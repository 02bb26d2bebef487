"""Scheduler-routing benchmark: pinned vs routed transaction placement.

The paper's evaluation statically pins a fixed client population to each
replica; the cluster scheduler (``repro.balancer``) replaces that with
per-transaction routing.  This benchmark measures what the routing policy
costs — and buys — on the two update-heavy workloads:

* **AllUpdates with an update burst** (``update_burst`` consecutive
  rewrites of the same counter row per client, the session-affinity
  scenario axis): a replica only learns about a commit one durability round
  trip later, so a scheduler that bounces a mid-burst client onto a replica
  that has not yet applied its previous commit buys a *certification abort
  against the client's own predecessor writeset*.  Round-robin does exactly
  that; conflict-aware affinity routing keeps the burst on one replica and
  eliminates those aborts.
* **TPC-B**: genuine cross-client hot-row conflicts, which replica
  placement cannot remove (every replica's conflict window against the
  certifier head is the same one-round-trip wide).  Here the benchmark
  checks routing does not *cost* throughput — the conflict-aware policy's
  load-slack guard is what keeps hot branch affinity from herding the
  workload onto one replica.

Pinned mode runs the untouched seed code path (no scheduler is even
constructed), so its numbers double as the no-regression reference.
Results land in ``BENCH_scheduler.json`` at the repo root; axes are
env-tunable via ``REPRO_BENCH_SCHED_REPLICAS`` / ``REPRO_BENCH_SCHED_BURST``
(see ``benchmarks/conftest.py`` and ``docs/benchmarks.md``).
"""

from __future__ import annotations

import platform

from conftest import (
    MEASURE_MS,
    SCHED_REPLICAS,
    SCHED_UPDATE_BURST,
    WARMUP_MS,
    write_bench_json,
)

from repro.analysis.report import format_table
from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.core.config import SystemKind, WorkloadName

#: Routing legs measured at every point ("pinned" = no scheduler at all).
MAIN_LEGS = ("pinned", "round-robin", "conflict-aware")
#: Extra policies measured at the largest point for the comparison table.
EXTRA_LEGS = ("least-loaded", "staleness-aware")

#: Acceptance: at every >= 4-replica AllUpdates point, round-robin must pay
#: a visible abort rate and conflict-aware must cut it at least in half.
RR_ABORT_FLOOR = 0.01
CA_ABORT_CEILING_FACTOR = 0.5
#: Routed legs must stay within this factor of pinned throughput (TPC-B),
#: and conflict-aware must not regress pinned on AllUpdates.
THROUGHPUT_FLOOR = 0.75
CA_THROUGHPUT_FLOOR = 0.90


def _workload_options(workload: WorkloadName) -> dict | None:
    if workload is WorkloadName.ALL_UPDATES:
        return {"update_burst": SCHED_UPDATE_BURST}
    return None


def _run_point(workload: WorkloadName, num_replicas: int, leg: str) -> dict:
    config = ExperimentConfig(
        system=SystemKind.TASHKENT_MW,
        workload=workload,
        num_replicas=num_replicas,
        routing=None if leg == "pinned" else leg,
        workload_options=_workload_options(workload),
        warmup_ms=WARMUP_MS,
        measure_ms=MEASURE_MS,
    )
    result = run_experiment(config)
    stats = result.utilization
    return {
        "workload": workload.value,
        "policy": leg,
        "replicas": num_replicas,
        "throughput_tps": round(result.throughput_tps, 1),
        "abort_rate": round(result.abort_rate, 4),
        "mean_response_ms": round(result.mean_response_ms, 1),
        "routed_imbalance": round(
            float(stats.get("scheduler_routed_imbalance", 0.0)), 2),
        "admission_timeouts": int(stats.get("scheduler_admission_timeouts", 0)),
    }


def _run_matrix() -> list[dict]:
    rows = []
    for workload in (WorkloadName.ALL_UPDATES, WorkloadName.TPC_B):
        for num_replicas in SCHED_REPLICAS:
            for leg in MAIN_LEGS:
                rows.append(_run_point(workload, num_replicas, leg))
    # The policy comparison table: one extra point per remaining policy.
    largest = max(SCHED_REPLICAS)
    for leg in EXTRA_LEGS:
        rows.append(_run_point(WorkloadName.ALL_UPDATES, largest, leg))
    return rows


def test_scheduler_routing_and_emit_bench_json():
    rows = _run_matrix()

    payload = {
        "benchmark": "scheduler_routing",
        "python": platform.python_version(),
        "system": SystemKind.TASHKENT_MW.value,
        "update_burst": SCHED_UPDATE_BURST,
        "measure_ms": MEASURE_MS,
        "results": rows,
    }
    write_bench_json("BENCH_scheduler.json", payload)

    columns = ["workload", "policy", "replicas", "throughput_tps",
               "abort_rate", "routed_imbalance"]
    print()
    print(f"Scheduler routing (Tashkent-MW, AllUpdates burst={SCHED_UPDATE_BURST})")
    print(format_table(columns, [{k: row[k] for k in columns} for row in rows]))

    by_point = {(r["workload"], r["policy"], r["replicas"]): r for r in rows}
    for num_replicas in SCHED_REPLICAS:
        allup = {leg: by_point[(WorkloadName.ALL_UPDATES.value, leg, num_replicas)]
                 for leg in MAIN_LEGS}
        # Pinned mode never self-conflicts and is the throughput reference.
        assert allup["pinned"]["abort_rate"] <= 0.005, (
            f"pinned AllUpdates should not abort, got "
            f"{allup['pinned']['abort_rate']} at {num_replicas} replicas"
        )
        # The acceptance property: round-robin pays staleness self-conflict
        # aborts that conflict-aware routing removes.
        rr_aborts = allup["round-robin"]["abort_rate"]
        ca_aborts = allup["conflict-aware"]["abort_rate"]
        assert rr_aborts >= RR_ABORT_FLOOR, (
            f"round-robin shows no aborts to cut ({rr_aborts}) at "
            f"{num_replicas} replicas — burst axis broken?"
        )
        assert ca_aborts <= rr_aborts * CA_ABORT_CEILING_FACTOR, (
            f"conflict-aware abort rate {ca_aborts} not below half of "
            f"round-robin's {rr_aborts} at {num_replicas} replicas"
        )
        # Affinity routing must not buy that with throughput: it has to
        # stay within a few percent of the pinned reference.
        assert (allup["conflict-aware"]["throughput_tps"]
                >= CA_THROUGHPUT_FLOOR * allup["pinned"]["throughput_tps"])

        tpcb = {leg: by_point[(WorkloadName.TPC_B.value, leg, num_replicas)]
                for leg in MAIN_LEGS}
        # Placement cannot remove TPC-B's genuine conflicts; routing must
        # at least not cost meaningful throughput vs pinned.
        for leg in ("round-robin", "conflict-aware"):
            assert (tpcb[leg]["throughput_tps"]
                    >= THROUGHPUT_FLOOR * tpcb["pinned"]["throughput_tps"]), (
                f"{leg} TPC-B throughput regressed below "
                f"{THROUGHPUT_FLOOR}x pinned at {num_replicas} replicas"
            )
