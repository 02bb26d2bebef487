"""Figures 12 and 13: TPC-W shopping mix, shared IO.

Paper reference: with only 20% updates (≈ 48 updates/s system-wide at the
maximum of ~240 tps) there is no commit-grouping opportunity, so Tashkent-API
matches Base; Tashkent-MW is still better because Base and Tashkent-API
suffer "significantly higher critical path fsync delays due to non-logging
IO congestion" on the shared channel.  Read-only response times are similar
for all systems; update response times are much higher for Base and
Tashkent-API than for Tashkent-MW.
"""

from conftest import MEASURE_MS, WARMUP_MS, REPLICA_COUNTS, largest_replica_count

from repro.analysis.report import render_figure
from repro.cluster.experiment import ExperimentConfig
from repro.cluster.sweeps import run_replica_sweep
from repro.core.config import SystemKind, WorkloadName
from functools import lru_cache

SYSTEMS = (SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API)


@lru_cache(maxsize=None)
def _sweep():
    return run_replica_sweep(
        ExperimentConfig(workload=WorkloadName.TPC_W, dedicated_io=False,
                         warmup_ms=WARMUP_MS, measure_ms=max(MEASURE_MS, 2000.0)),
        systems=SYSTEMS,
        replica_counts=REPLICA_COUNTS,
    )


def test_fig12_tpcw_shared_throughput(benchmark):
    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(render_figure(sweep, metric="throughput",
                        title="Figure 12: TPC-W shopping mix throughput (shared IO)"))
    n = largest_replica_count()
    base = dict(sweep.throughput_series(SystemKind.BASE))[n]
    mw = dict(sweep.throughput_series(SystemKind.TASHKENT_MW))[n]
    api = dict(sweep.throughput_series(SystemKind.TASHKENT_API))[n]
    print(f"at {n} replicas: base={base:.0f} tashAPI={api:.0f} tashMW={mw:.0f} tps")
    # Tashkent-API brings no benefit at this low update rate...
    assert abs(api - base) / base < 0.35
    # ...but Tashkent-MW still wins because its replicas do not log at all.
    assert mw > 1.1 * base


def test_fig13_tpcw_shared_response_times(benchmark):
    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    n = largest_replica_count()
    rows = []
    for system in SYSTEMS:
        point = next(p for p in sweep.curve(system) if p.num_replicas == n)
        rows.append({
            "system": system.value,
            "readonly_ms": round(point.result.readonly_response_ms, 1),
            "update_ms": round(point.result.update_response_ms, 1),
        })
    print()
    print("Figure 13: TPC-W response times by transaction class "
          f"({n} replicas, shared IO)")
    for row in rows:
        print(f"  {row['system']:>14s}  read-only {row['readonly_ms']:>8.1f} ms   "
              f"update {row['update_ms']:>8.1f} ms")
    by_system = {row["system"]: row for row in rows}
    # Read-only transactions are handled identically everywhere: similar times.
    readonly = [row["readonly_ms"] for row in rows]
    assert max(readonly) < 3.0 * min(readonly)
    # Update transactions are far slower on the systems that log at replicas.
    assert by_system["base"]["update_ms"] > 1.5 * by_system["tashkent-mw"]["update_ms"]
    assert by_system["tashkent-api"]["update_ms"] > 1.5 * by_system["tashkent-mw"]["update_ms"]
