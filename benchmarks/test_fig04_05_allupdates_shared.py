"""Figures 4 and 5: AllUpdates throughput and response time, shared IO.

Paper reference points at 15 replicas: Base ≈ 735 req/s (≈ 49 per replica,
fsync-bound), Tashkent-MW ≈ 3657 req/s (5.0x Base), Tashkent-API ≈ 2240
req/s (3.0x Base), tashAPInoCERT ≈ 2901 req/s; Base response time roughly
doubles between one and two replicas.
"""

from conftest import cached_sweep, largest_replica_count

from repro.analysis.report import render_figure
from repro.analysis.results import summarize_sweep
from repro.core.config import SystemKind, WorkloadName


def _sweep():
    return cached_sweep(WorkloadName.ALL_UPDATES, dedicated_io=False)


def test_fig04_allupdates_shared_throughput(benchmark):
    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(render_figure(sweep, metric="throughput",
                        title="Figure 4: AllUpdates throughput (shared IO)"))
    summary = summarize_sweep(sweep, num_replicas=largest_replica_count())
    print(f"speedups over Base at {summary.num_replicas} replicas: "
          f"Tashkent-MW {summary.mw_speedup:.1f}x (paper ~5.0x), "
          f"Tashkent-API {summary.api_speedup:.1f}x (paper ~3.0x)")
    # Shape assertions: the Tashkent systems greatly outperform Base.
    assert summary.mw_speedup > 3.0
    assert summary.api_speedup > 2.0
    assert summary.mw_speedup > summary.api_speedup
    # Base grows roughly linearly with the number of replicas (fsync bound).
    base = sweep.throughput_series(SystemKind.BASE)
    per_replica = [tps / n for n, tps in base if n > 1]
    assert all(30 <= rate <= 80 for rate in per_replica)


def test_fig05_allupdates_shared_response_time(benchmark):
    sweep = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(render_figure(sweep, metric="response",
                        title="Figure 5: AllUpdates response time (shared IO)"))
    n = largest_replica_count()
    base = dict(sweep.response_series(SystemKind.BASE))
    mw = dict(sweep.response_series(SystemKind.TASHKENT_MW))
    api = dict(sweep.response_series(SystemKind.TASHKENT_API))
    # The Tashkent systems also provide lower response times (paper abstract).
    assert mw[n] < base[n]
    assert api[n] < base[n]
    # Base's response time jumps once remote writesets appear (1 -> many replicas).
    assert base[n] > 1.5 * base[1]
