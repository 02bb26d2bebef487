"""Self-test of the benchmark's own arithmetic and declarations.

Collected by the tier-1 run; no subprocess clusters, a few seconds in all.
The only thing it runs end to end is a 1 s in-process ``func_allupdates``
smoke in each mode, to prove every declared metric is produced.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench import compare, driver, func, live, metrics, run, spec  # noqa: E402
from bench.measure import (  # noqa: E402
    percentile,
    relative_iqr,
    stats_delta,
    tail_quantile,
)
from bench.tracing import Target, ThreadSpans, Tracer, layer_self_ns, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


# -- percentile rule ---------------------------------------------------------------


def test_tail_quantile_keeps_ten_samples_beyond():
    assert tail_quantile(5000) == 0.99
    assert tail_quantile(1000) == 0.99
    assert tail_quantile(400) == (400 - 10) / 400
    for count in (20, 137, 999, 1000, 25_000):
        assert count * (1 - tail_quantile(count)) >= 10 - 1e-9
    assert tail_quantile(12) == 0.5


def test_percentile_interpolates():
    ordered = [float(v) for v in range(1, 102)]  # 1..101
    assert percentile(ordered, 0.0) == 1.0
    assert percentile(ordered, 0.5) == 51.0
    assert percentile(ordered, 1.0) == 101.0
    assert percentile([1.0, 2.0], 0.25) == 1.25
    assert percentile([], 0.5) == 0.0
    assert percentile(ordered, tail_quantile(101)) == percentile(ordered, (101 - 10) / 101)


def test_relative_iqr_is_the_drivers_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert abs(relative_iqr(values) - (17.25 - 11.75) / 14.5) < 1e-12
    assert relative_iqr([5.0]) == 0.0


# -- span self time ----------------------------------------------------------------


def _span(state: ThreadSpans, name: int, start: int, end: int, parent: int) -> None:
    state.names.append(name)
    state.starts.append(start)
    state.ends.append(end)
    state.parents.append(parent)
    state.txns.append("t")


def test_self_time_subtracts_direct_children_only():
    state = ThreadSpans(0)
    _span(state, 0, 0, 100, -1)    # root
    _span(state, 1, 10, 40, 0)     # child A, with a grandchild
    _span(state, 2, 15, 25, 1)     # grandchild
    _span(state, 1, 50, 90, 0)     # sibling child B
    assert self_times(state) == [100 - 30 - 40, 30 - 10, 10, 40]
    assert sum(self_times(state)) == 100  # self times partition the root


def test_tracer_records_nesting_and_restores_patched_attributes():
    class Inner:
        def work(self):
            return 1

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def call(self):
            return self.inner.work() + self.inner.work()

    originals = (vars(Outer)["call"], vars(Inner)["work"])
    tracer = Tracer()
    tracer.install([Target(Outer, "call", "outer"), Target(Inner, "work", "inner")])
    try:
        assert Outer().call() == 2  # this thread has not opted in: nothing recorded
        assert tracer.threads == []
        state = tracer.thread()
        state.txn = "txn-1"
        assert Outer().call() == 2
    finally:
        tracer.uninstall()
    assert (vars(Outer)["call"], vars(Inner)["work"]) == originals
    assert [tracer.names[n] for n in state.names] == [
        "outer:test_tracer_records_nesting_and_restores_patched_attributes.<locals>.Outer.call",
        "inner:test_tracer_records_nesting_and_restores_patched_attributes.<locals>.Inner.work",
        "inner:test_tracer_records_nesting_and_restores_patched_attributes.<locals>.Inner.work",
    ]
    assert state.parents == [-1, 0, 0] and state.txns == ["txn-1"] * 3
    totals = layer_self_ns(tracer)
    assert totals["outer"] + totals["inner"] == state.ends[0] - state.starts[0]


def test_span_targets_name_existing_public_functions():
    for target in func.SPAN_TARGETS + live.SPAN_TARGETS:
        assert not target.attr.startswith("_")
        assert callable(vars(target.owner)[target.attr])


def test_trace_overhead_is_not_fooled_by_decay():
    def window(counts):
        phases = [driver.Phase(driver.Samples(done_at=[0.5] * count), 1.0, 0.0)
                  for count in counts]
        return driver.Window(phases, tracer=Tracer())

    # Time per transaction growing on a line, nothing traced slower: no overhead,
    # though the U slices of each block commit more than its T slices together.
    decaying = [round(60_000 / (10 + step)) for step in range(16)]
    assert abs(window(decaying).trace_overhead_share()) < 0.002
    # Flat throughput, every T slice 10 % down.
    flat = [1000 if kind == "U" else 900 for kind in driver.TRACED_PATTERN]
    assert abs(window(flat).trace_overhead_share() - 0.10) < 1e-9


# -- stats deltas -------------------------------------------------------------------


def _cluster_stats(scale: int) -> dict:
    """A canned ``LiveCluster.stats()`` payload whose counters are ``scale`` x a unit."""
    server = {"connections": 3, "frames_in": 10 * scale, "frames_out": 10 * scale,
              "bytes_in": 1000 * scale, "bytes_out": 500 * scale, "in_flight_high_water": 4}
    return {
        "scheduler": {
            "fsyncs": 50 * scale, "tx_table_size": 100 * scale, "pipeline": True,
            "certify_batching": {"busy_s": 0.9 * scale, "exec_s": 0.8 * scale,
                                 "rounds": 50 * scale, "requests": 100 * scale},
            "wal_clients": [{"shard_id": 0, "sync_wait_s": 0.85 * scale, "calls": 50 * scale}],
            "server": dict(server),
        },
        "replicas": {name: {"commit_wire_wait_s": 0.8 * scale, "commit_gate_wait_s": 0.01 * scale,
                            "server": dict(server)} for name in ("replica-0", "replica-1")},
        "shards": {0: {"wal": {"bytes": 2400 * scale, "records": 100 * scale,
                               "batches": 50 * scale}, "server": dict(server)}},
    }


def test_stats_delta_subtracts_counters_and_keeps_flags():
    delta = stats_delta(_cluster_stats(1), _cluster_stats(3))
    assert delta["scheduler"]["fsyncs"] == 100
    assert delta["scheduler"]["pipeline"] is True
    assert delta["scheduler"]["wal_clients"][0]["calls"] == 100
    assert delta["shards"][0]["wal"] == {"bytes": 4800, "records": 200, "batches": 100}
    assert stats_delta({"a": 1}, {"a": 4, "new": 7}) == {"a": 3, "new": 7}
    assert stats_delta([1, 2], [1, 2, 3]) == [1, 2, 3]  # reshaped: take the newer


def test_live_totals_sum_over_roles():
    totals = metrics.live_totals(stats_delta(_cluster_stats(1), _cluster_stats(3)))
    assert totals["fsyncs"] == 100 and totals["rounds"] == 100
    assert totals["certify_requests"] == 200 and totals["syncs"] == 100
    assert totals["frames"] == 4 * 20          # scheduler + 2 replicas + 1 shard
    assert totals["bytes"] == 4 * (2000 + 1000)
    assert abs(totals["wire_wait_s"] - 2 * 1.6) < 1e-12
    assert totals["wal_records"] == 200 and totals["shards"] == 1


# -- declarations ---------------------------------------------------------------------


def validate_contract(document: dict) -> None:
    """The driver contract's shape for ``BENCHMARK.json`` (raises AssertionError)."""
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    command, paths = document["command"], document["paths"]
    assert 1 <= len(command) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert not any(a.startswith("/") or ".." in a.split("/") for a in command)
    assert 1 <= len(paths) <= 16 and all(PATH.match(p) and not p.startswith("/") for p in paths)
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names), "a name is used once"
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_benchmark_json_matches_spec_and_contract():
    text = spec.BENCHMARK_JSON.read_text(encoding="utf-8")
    assert len(text.encode()) <= 64 * 1024
    assert text == spec.render_benchmark_json(), "run: python3 bench/spec.py --write"
    validate_contract(json.loads(text))


def test_declared_names_and_sizes():
    assert [w.name for w in spec.WORKLOADS] == [
        "allupdates_fsync8", "allupdates_fsync0", "tpcb_2shard_fsync8",
        "tpcw_fsync8", "func_allupdates"]
    assert [m.name for m in spec.END_TO_END] == [
        "setup_s", "txn_tps", "update_p50_ms", "update_p95_ms", "fsyncs_per_commit",
        "wal_bytes_per_commit", "peak_rss_mb"]
    for metric in spec.PER_LAYER:
        assert metric.layer and metric.moves and metric.definition
    # The contract's time cap: 4 + 22 x workloads runs inside 3420 s.
    runs = 4 + 22 * len(spec.WORKLOADS)
    per_run = spec.RUN_SECONDS + spec.SETUPS_PER_RUN * (spec.WARMUP_SECONDS + 2.0) + 4.0
    assert runs * per_run < 3420


def test_readme_is_a_complete_glossary():
    readme = (Path(__file__).resolve().parent / "README.md").read_text(encoding="utf-8")
    for declared in (*spec.WORKLOADS, *spec.END_TO_END, *spec.PER_LAYER):
        assert f"`{declared.name}`" in readme, declared.name


# -- compare ------------------------------------------------------------------------


def _suite(tps: list[float], failed: int = 0) -> dict:
    return {"runs": [{"workload": "allupdates_fsync8", "trace": 0, "attempted": 1000,
                      "failed": failed,
                      "metrics": {"txn_tps": {"value": value, "unit": "1/s"}}}
                     for value in tps]}


def test_compare_verdicts():
    base = _suite([200.0, 201.0, 202.0])
    verdicts = {
        "same": compare.compare(base, _suite([195.0, 196.0, 197.0])),
        "worse": compare.compare(base, _suite([140.0, 141.0, 142.0])),
        "better": compare.compare(base, _suite([260.0, 261.0, 262.0])),
        "unresolved": compare.compare(base, _suite([120.0, 200.0, 280.0])),
    }
    for expected, rows in verdicts.items():
        assert [row["verdict"] for row in rows] == [expected]
    # A 10 % loss is inside the 25 % bound; whether it is a regression depends
    # on how steadily this workload repeats.
    steady = compare.compare(base, _suite([180.0, 181.0, 182.0]))
    noisy = compare.compare(_suite([190.0, 200.0, 210.0]), _suite([171.0, 180.0, 189.0]))
    assert [(row["verdict"], row["threshold"]) for row in steady] == [("worse", 0.05)]
    assert [row["verdict"] for row in noisy] == ["same"]
    assert 0.05 < noisy[0]["threshold"] <= 0.25
    assert compare.failed_share(_suite([200.0], failed=5)) == 0.005


def test_complete_layers_refuses_missing_and_undeclared_rows():
    rows = dict.fromkeys(spec.measured_by("live"), 1.0)
    complete = metrics.complete_layers(rows, "live")
    assert list(complete) == [m.name for m in spec.PER_LAYER]
    assert complete["budget.fsync_share"] == 1.0
    assert complete["middleware.proxy.self_us_per_txn"] == 0.0   # a func-only layer
    assert spec.measured_by("live") | spec.measured_by("func") == set(complete)
    for wrong in ({**rows, "live.wal.byte_per_record": 1.0},
                  {k: v for k, v in rows.items() if k != "live.wal.bytes_per_record"}):
        try:
            metrics.complete_layers(wrong, "live")
        except ValueError as exc:
            assert "bytes_per_record" in str(exc) or "byte_per_record" in str(exc)
        else:
            raise AssertionError("a misspelled or missing row must not pass")


# -- smoke: every declared metric is produced ---------------------------------------------


def test_smoke_run_produces_every_declared_metric():
    untraced = run.execute("func_allupdates", seed=7, seconds=1.0, trace=False, smoke=True)
    traced = run.execute("func_allupdates", seed=7, seconds=1.0, trace=True, smoke=True)
    for result, declared in ((untraced, spec.END_TO_END), (traced, spec.PER_LAYER)):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m.name for m in declared]
        for metric in declared:
            assert result["metrics"][metric.name]["unit"] == metric.unit
    assert all(untraced["metrics"][m.name]["value"] > 0 for m in spec.END_TO_END)
    measured = spec.measured_by("func")
    for metric in spec.PER_LAYER:
        value = traced["metrics"][metric.name]["value"]
        if metric.name not in measured:
            assert value == 0.0, metric.name   # a live-only layer
        elif metric.name not in ("middleware.proxy.abort_share", "trace.overhead_share"):
            assert value != 0.0, metric.name   # (no aborts here; traced may equal untraced)
    # The traced run put every wrapped function back.
    for target in func.SPAN_TARGETS:
        assert not hasattr(vars(target.owner)[target.attr], "__wrapped__")
