"""Live-backend smoke benchmark: certs/sec and batch apply over real sockets.

Boots the real multi-process cluster (1 certifier shard + scheduler + 2
replicas over localhost TCP, every commit gated on an ``os.fsync`` in the
shard process) and measures two end-to-end rates:

* ``live_certs_per_sec`` — sequential update transactions through one
  client session: wire round trips + certification + durable WAL append.
* ``batch_apply_writesets_per_sec`` — a lagging replica refreshing a
  backlog of remote writesets in one bounded-staleness batch apply.

Emitted as ``BENCH_live.json`` and guarded very loosely by
``tools/check_bench_regression.py`` — these are wall-clock numbers on real
processes, so only an order-of-magnitude collapse (a lost batch path, an
accidental per-call reconnect, a sleep on the hot path) should fail CI.
"""

import platform
import socket
import time
from functools import lru_cache

import pytest

from conftest import write_bench_json
from repro.analysis.report import format_table
from repro.core.config import ReplicationConfig, SystemKind
from repro.live.cluster import LiveCluster
from repro.sim.rng import RandomStreams
from repro.workloads import workload_by_name

COMMITS = 60
BACKLOG = 40


def _tcp_available() -> bool:
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", 0))
        return True
    except OSError:
        return False


@lru_cache(maxsize=None)
def _live_rows():
    workload = workload_by_name("allupdates", num_replicas=2)
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=1, rng_seed=1)
    with LiveCluster(config, workload.schemas()) as cluster:
        cluster.load_initial_data(workload)
        session = cluster.session("replica-0")
        rng = RandomStreams(1)

        started = time.perf_counter()
        for sequence in range(COMMITS):
            assert workload.run_transaction(session, rng, client_index=0,
                                            sequence=sequence)
        certify_elapsed = time.perf_counter() - started

        # Build a backlog replica-1 has not seen, then time one batch apply.
        for sequence in range(COMMITS, COMMITS + BACKLOG):
            assert workload.run_transaction(session, rng, client_index=0,
                                            sequence=sequence)
        started = time.perf_counter()
        applied = cluster._call(cluster.replicas["replica-1"], "refresh")["applied"]
        apply_elapsed = time.perf_counter() - started
        wal = cluster.shard_wal_stats(0)

    assert applied >= BACKLOG
    return [
        {"metric": "live_certs_per_sec",
         "value": round(COMMITS / certify_elapsed, 1),
         "transactions": COMMITS, "wal_fsync_batches": wal["batches"]},
        {"metric": "batch_apply_writesets_per_sec",
         "value": round(applied / apply_elapsed, 1),
         "writesets_applied": applied},
    ]


@pytest.mark.skipif(not _tcp_available(), reason="cannot bind localhost TCP")
def test_live_cluster_smoke_throughput(benchmark):
    rows = benchmark.pedantic(_live_rows, rounds=1, iterations=1)
    print()
    print("Live backend smoke: real processes, localhost TCP, durable WAL")
    print(format_table(list(rows[0].keys()), rows))

    payload = {
        "benchmark": "live_smoke",
        "python": platform.python_version(),
        "time_base": "wall-clock on live subprocesses (loosely guarded)",
        "results": rows,
    }
    write_bench_json("BENCH_live.json", payload)

    by_metric = {row["metric"]: row for row in rows}
    # Loose wall-clock floors: catastrophic-collapse guards only.
    assert by_metric["live_certs_per_sec"]["value"] > 20.0
    assert by_metric["batch_apply_writesets_per_sec"]["value"] > 50.0
    assert by_metric["live_certs_per_sec"]["wal_fsync_batches"] >= COMMITS
