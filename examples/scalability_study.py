#!/usr/bin/env python3
"""Scalability study: regenerate the paper's headline figure from the API.

Runs the simulated evaluation for the AllUpdates workload on a compressed
replica axis and prints the Figure 4/5-style series plus the speedup summary
("at 15 replicas ... the Tashkent systems outperform Base by factors of five
and three in throughput").

Run with:  python examples/scalability_study.py          (takes ~1 minute)
           python examples/scalability_study.py --fast   (coarser, ~15 s)
"""

import sys

from repro import ExperimentConfig, run_replica_sweep
from repro.analysis.report import render_figure
from repro.analysis.results import summarize_sweep
from repro.core.config import SystemKind, WorkloadName


def main() -> None:
    fast = "--fast" in sys.argv
    replica_counts = (1, 4, 15) if fast else (1, 2, 4, 8, 12, 15)
    measure_ms = 1000.0 if fast else 2000.0

    print("Running the AllUpdates replica sweep (shared IO channel)...")
    sweep = run_replica_sweep(
        ExperimentConfig(workload=WorkloadName.ALL_UPDATES, dedicated_io=False,
                         warmup_ms=400.0, measure_ms=measure_ms),
        systems=(SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API,
                 SystemKind.TASHKENT_API_NO_CERT),
        replica_counts=replica_counts,
    )

    print()
    print(render_figure(sweep, metric="throughput",
                        title="AllUpdates throughput vs number of replicas (cf. Figure 4)"))
    print()
    print(render_figure(sweep, metric="response",
                        title="AllUpdates response time vs number of replicas (cf. Figure 5)"))

    summary = summarize_sweep(sweep)
    print()
    print(f"At {summary.num_replicas} replicas:")
    print(f"  Base         : {summary.base_tps:8.1f} req/s")
    print(f"  Tashkent-API : {summary.tashkent_api_tps:8.1f} req/s "
          f"({summary.api_speedup:.1f}x Base; paper reports ~3x)")
    print(f"  Tashkent-MW  : {summary.tashkent_mw_tps:8.1f} req/s "
          f"({summary.mw_speedup:.1f}x Base; paper reports ~5x)")
    mw_point = sweep.curve(SystemKind.TASHKENT_MW)[-1]
    print(f"  Tashkent-MW certifier groups "
          f"{mw_point.result.writesets_per_fsync:.0f} writesets per fsync "
          f"(paper reports ~29)")


if __name__ == "__main__":
    main()
