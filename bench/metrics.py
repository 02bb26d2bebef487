"""From observations to the declared metrics (pure functions, no I/O).

Inputs are what the runners collect: the client-side :class:`~bench.driver.Window`
samples, the difference of two node ``stats`` snapshots
(:func:`bench.measure.stats_delta`), ``/proc`` CPU seconds per role, the idle
probes, and the tracer.  Outputs are ``{metric name: value}``; the runner
checks them against :mod:`bench.spec` before printing.
"""

from __future__ import annotations

from bench import tracing
from bench.driver import ROOT_SPAN, Samples, Window
from bench.measure import percentile, ratio, tail_quantile
from bench.spec import PER_LAYER, measured_by


def quarter_tps(window: Window) -> tuple[float, float]:
    """Throughput of the first and the last quarter of the measured window.

    One phase is split by completion time; of a traced window, the first and
    the last slice are taken (both untraced, each an eighth).
    """
    first, last = window.phases[0], window.phases[-1]
    if first is last:
        quarter = first.seconds / 4
        return first.committed_by(0.0, 0.25) / quarter, first.committed_by(0.75, 1.0) / quarter
    return first.tps, last.tps


def client_latencies(samples: Samples) -> dict[str, float]:
    """The client's stopwatch, in ms: medians and repeatable tails."""
    updates, reads = sorted(samples.update_s), sorted(samples.read_s)
    return {
        "update_p50_ms": percentile(updates, 0.5) * 1e3,
        "update_p95_ms": percentile(updates, 0.95) * 1e3,
        "update_p99_ms": percentile(updates, tail_quantile(len(updates))) * 1e3,
        "read_p50_ms": percentile(reads, 0.5) * 1e3,
        "read_p99_ms": percentile(reads, tail_quantile(len(reads))) * 1e3,
        "commit_call_p50_ms": percentile(sorted(samples.commit_call_s), 0.5) * 1e3,
        "reads_per_update": ratio(samples.reads_in_updates, samples.update_commits),
    }


def end_to_end(window: Window, *, fsyncs: float, wal_bytes: float,
               peak_rss_mb: float) -> dict[str, float]:
    """Every end-to-end metric but ``setup_s``, which the caller times."""
    (phase,) = window.phases
    samples = phase.samples
    latencies = client_latencies(samples)
    return {
        "txn_tps": phase.tps,
        "update_p50_ms": latencies["update_p50_ms"],
        "update_p95_ms": latencies["update_p95_ms"],
        "fsyncs_per_commit": ratio(fsyncs, samples.update_commits),
        "wal_bytes_per_commit": ratio(wal_bytes, samples.update_commits),
        "peak_rss_mb": peak_rss_mb,
    }


# -- live counters -------------------------------------------------------------


def live_totals(delta: dict) -> dict[str, float]:
    """Role-summed counter deltas of one ``LiveCluster.stats()`` difference."""
    scheduler = delta["scheduler"]
    replicas = list(delta["replicas"].values())
    shards = list(delta["shards"].values())
    servers = [scheduler["server"], *(r["server"] for r in replicas),
               *(s["server"] for s in shards)]
    batching = scheduler["certify_batching"]
    return {
        "fsyncs": scheduler["fsyncs"],
        "wal_bytes": sum(s["wal"]["bytes"] for s in shards),
        "wal_records": sum(s["wal"]["records"] for s in shards),
        "wal_batches": sum(s["wal"]["batches"] for s in shards),
        "frames": sum(s["frames_in"] for s in servers),
        "bytes": sum(s["bytes_in"] + s["bytes_out"] for s in servers),
        "certify_requests": batching["requests"],
        "rounds": batching["rounds"],
        "exec_s": batching["exec_s"],
        "busy_s": batching["busy_s"],
        "wire_wait_s": sum(r["commit_wire_wait_s"] for r in replicas),
        "gate_wait_s": sum(r["commit_gate_wait_s"] for r in replicas),
        "syncs": sum(c["calls"] for c in scheduler["wal_clients"]),
        "sync_wait_s": sum(c["sync_wait_s"] for c in scheduler["wal_clients"]),
        "shards": len(shards),
    }


def live_layers(*, totals: dict[str, float], tx_table_size: int, cpu_s: dict[str, float],
                window: Window, wall_s: float, floor_ms: float,
                probes: dict[str, float]) -> dict[str, float]:
    """The counter/probe rows of the layer budget for one live workload.

    Client latencies come from the untraced slices, commit counts from the
    whole window (the counter deltas span all of it), shares of time from
    ``wall_s`` — the wall clock between the two snapshots.  Rows marked "by
    subtraction" in the spec are residuals of measured rows, which is as far
    as measuring from outside the node processes can go.
    """
    latencies = client_latencies(window.untraced)
    samples = window.everything
    update_p50 = latencies["update_p50_ms"]
    ping_replica_ms = probes["live.wire.ping_rtt_us.replica"] / 1e3
    ping_scheduler_ms = probes["live.wire.ping_rtt_us.scheduler"] / 1e3
    append_ms = probes["live.wal.append_batch_us"] / 1e3

    certify_rtt = ratio(totals["wire_wait_s"] * 1e3, totals["certify_requests"])
    gate_wait = ratio(totals["gate_wait_s"] * 1e3, totals["certify_requests"])
    exec_per_round = ratio(totals["exec_s"] * 1e3, totals["rounds"])
    wal_hop = ratio(totals["sync_wait_s"] * 1e3, totals["syncs"])
    park = certify_rtt - exec_per_round - ping_scheduler_ms
    commit_local = latencies["commit_call_p50_ms"] - certify_rtt - gate_wait - ping_replica_ms
    unattributed = (update_p50 - latencies["reads_per_update"] * latencies["read_p50_ms"]
                    - latencies["commit_call_p50_ms"])
    rounds_waited = 1.0 + min(1.0, max(0.0, ratio(park, exec_per_round)))
    fsync_on_path = floor_ms * ratio(totals["syncs"], totals["rounds"]) * rounds_waited
    device_ms = max(floor_ms, append_ms)
    commits = samples.commits
    return {
        "live.wire.frames_per_commit": ratio(totals["frames"], commits),
        "live.wire.bytes_per_commit": ratio(totals["bytes"], commits),
        "live.node.replica.cpu_ms_per_commit": ratio(cpu_s["replica"] * 1e3, commits),
        "live.node.scheduler.cpu_ms_per_commit": ratio(cpu_s["scheduler"] * 1e3, commits),
        "live.node.shard.cpu_ms_per_commit": ratio(cpu_s["shard"] * 1e3, commits),
        "live.node.replica.certify_rtt_ms": certify_rtt,
        "live.node.replica.gate_wait_ms": gate_wait,
        "live.node.replica.commit_local_ms": commit_local,
        "live.node.replica.read_service_us": (latencies["read_p50_ms"] - ping_replica_ms) * 1e3,
        "live.node.scheduler.round_size": ratio(totals["certify_requests"], totals["rounds"]),
        "live.node.scheduler.exec_ms_per_round": exec_per_round,
        "live.node.scheduler.busy_share": ratio(totals["busy_s"], wall_s),
        "live.node.scheduler.park_ms": park,
        "live.node.scheduler.wal_hop_ms": wal_hop,
        "live.node.scheduler.tx_table_size": tx_table_size,
        "live.wal.records_per_batch": ratio(totals["wal_records"], totals["wal_batches"]),
        "live.wal.bytes_per_record": ratio(totals["wal_bytes"], totals["wal_records"]),
        "live.wal.device_busy_share": ratio(
            totals["wal_batches"] * device_ms / 1e3, wall_s * totals["shards"]),
        "live.wal.wire_overhead_ms": wal_hop - floor_ms - append_ms,
        "core.sharding.flushed_records_per_commit": ratio(
            totals["wal_records"], samples.update_commits),
        "core.sharding.shard_flush_overlap": ratio(totals["exec_s"], totals["sync_wait_s"]),
        "budget.fsync_share": ratio(fsync_on_path, update_p50),
        "budget.unattributed_ms": unattributed,
        "budget.unattributed_share": ratio(unattributed, update_p50),
    }


# -- spans ----------------------------------------------------------------------

#: Span layer -> the metric its total self time is reported as.  ``None``:
#: the span only separates its children from its caller — what is left of
#: ``WireClient.call`` is the wait for the reply, which the nodes' own
#: counters account for (``certify_rtt_ms`` and below).
_SPAN_METRICS = {
    "middleware.client_api": "middleware.client_api.self_us_per_txn",
    "middleware.proxy": "middleware.proxy.self_us_per_txn",
    "middleware.certifier": "middleware.certifier.self_us_per_txn",
    "core.certification": "core.certification.self_us_per_txn",
    "core.certifier_log": "core.certifier_log.self_us_per_txn",
    "transport.stream": "transport.stream.self_us_per_txn",
    "engine.database": "engine.database.self_us_per_txn",
    "engine.wal": "engine.wal.self_us_per_txn",
    "live.client": "live.client.self_us_per_txn",
    "live.wire.codec": "live.wire.client_self_us_per_txn",
    "live.wire.call": None,
}


def span_layers(window: Window, layers: set[str]) -> dict[str, float]:
    """Self time per transaction for each of the wrapped ``layers``.

    Where ``middleware.proxy`` is wrapped, also its first- and last-quarter
    split; where ``engine.database`` is, the cost of applying one writeset.
    A layer no row is declared for is a ``KeyError``.
    """
    tracer, traced = window.tracer, window.traced
    root = tracer.name_id(ROOT_SPAN)
    transactions = tracing.count_spans(tracer, root)
    totals = tracing.layer_self_ns(tracer)
    rows = {_SPAN_METRICS[layer]: ratio(totals.get(layer, 0) / 1e3, transactions)
            for layer in layers if _SPAN_METRICS[layer] is not None}
    if "middleware.proxy" in layers:
        rows.update(_proxy_quarters(tracer, traced, root))
    if "engine.database" in layers:
        apply_ns = tracing.span_duration_ns(
            tracer, "engine.database:Database.apply_writeset_batch")
        rows["engine.database.apply_us_per_writeset"] = ratio(
            apply_ns / 1e3, sum(phase.counts["writesets_applied"] for phase in traced))
    return rows


def _proxy_quarters(tracer, traced, root: int) -> dict[str, float]:
    rows = {}
    # Quarters of the traced time: its first and its last slice.  Phase
    # times and span stamps share one clock (perf_counter / _ns).
    for label, phase in (("q1", traced[0]), ("q4", traced[-1])):
        start = int(phase.started * 1e9)
        end = start + int(phase.seconds * 1e9)
        in_slice = tracing.layer_self_ns(tracer, start_ns=start, end_ns=end)
        rows[f"middleware.proxy.self_us_per_txn.{label}"] = ratio(
            in_slice.get("middleware.proxy", 0) / 1e3,
            tracing.count_spans(tracer, root, start_ns=start, end_ns=end))
    return rows


def window_rows(window: Window, cpu_s: dict[str, float]) -> dict[str, float]:
    """Layer rows every traced run has, live or in-process (``cpu_s``: seconds per role)."""
    samples = window.everything
    latencies = client_latencies(window.untraced)
    first_tps, last_tps = quarter_tps(window)
    return {
        **{name: latencies[name] for name in ("update_p99_ms", "read_p50_ms", "read_p99_ms")},
        "cpu_ms_per_commit": ratio(sum(cpu_s.values()) * 1e3, samples.commits),
        "bench.driver.cpu_ms_per_commit": ratio(cpu_s["driver"] * 1e3, samples.commits),
        "middleware.proxy.abort_share": ratio(samples.aborts, samples.attempted),
        "decay_ratio": ratio(last_tps, first_tps),
        "trace.overhead_share": window.trace_overhead_share(),
        "trace.span_cost_share": ratio(
            sum(len(state) for state in window.tracer.threads) * tracing.span_cost_ns(),
            sum(phase.seconds for phase in window.traced) * 1e9 * window.client_threads),
    }


def complete_layers(rows: dict[str, float], kind: str) -> dict[str, float]:
    """Every declared layer metric, 0.0 where workload ``kind`` has no such layer.

    ``rows`` must be exactly the rows a ``kind`` runner measures: a missing
    row would otherwise print as a measured 0.0 — on a lower-is-better
    metric, forever — and an undeclared one would vanish.
    """
    expected = measured_by(kind)
    if rows.keys() != expected:
        raise ValueError(f"{kind} runner: rows not produced {sorted(expected - rows.keys())}, "
                         f"rows not declared for it {sorted(rows.keys() - expected)}")
    return {metric.name: float(rows.get(metric.name, 0.0)) for metric in PER_LAYER}
