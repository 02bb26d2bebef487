"""Availability smoke benchmark: a shard-leader crash mid-measurement.

The paper's availability claim (Section 7) is qualitative: updates proceed
while a majority of certifier nodes is up, and a crashed node rejoins by
state transfer.  This benchmark makes the sharded version quantitative on
the simulated cluster: closed-loop clients drive a sharded certifier
(bounded fsync groups, as in ``test_certifier_sharding.py``) while shard
0's leader is crashed for a fixed window (``certifier_crash_schedule``) —
the group elects a new leader and transfers state for the whole window, so
transactions touching shard 0 stall and drain on recovery.

Measured, all in deterministic *simulated* time (→ ``BENCH_recovery.json``,
guarded by ``tools/check_bench_regression.py``):

* ``certifications_per_sec`` — whole-window throughput, steady vs faulty
  (the cost of one outage amortized over the run);
* ``outage_rate_ratio`` — throughput *during* the crash window relative to
  the steady scenario's same window: the availability dip.  It is deep but
  non-zero: transactions on the surviving shard keep committing until their
  closed-loop client happens to draw a shard-0 item and parks — an open
  (or shard-aware-routed) workload would retain far more of the surviving
  shard's service;
* ``recovery_lag_ms`` — first commit completion after the leader returns:
  how quickly the stalled pipeline drains;
* ``backlog_drain_ratio`` — post-recovery throughput relative to steady
  (> 1 while the stalled closed-loop clients catch up).
"""

from __future__ import annotations

import platform
from typing import Generator

from conftest import (
    RECOVERY_CLIENTS,
    RECOVERY_CRASH_AT_MS,
    RECOVERY_FLUSH_CAP,
    RECOVERY_MEASURE_MS,
    RECOVERY_RECOVER_AT_MS,
    RECOVERY_SHARDS,
    RECOVERY_WARMUP_MS,
    write_bench_json,
)

from repro.analysis.report import format_table
from repro.cluster.nodes import SimCertifierNode
from repro.core.certification import CertificationRequest
from repro.core.config import ReplicationConfig, SystemKind
from repro.core.sharding import HashPartitioner
from repro.core.writeset import make_writeset
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams

POOL_KEYS_PER_SHARD = 2000
#: Fraction of transactions straddling two shards (a little cross-shard
#: traffic makes the outage also stall some shard-1 originated merges).
CROSS_RATIO = 0.1


def _key_pools(num_shards: int) -> list[list[int]]:
    partitioner = HashPartitioner(num_shards)
    pools: list[list[int]] = [[] for _ in range(num_shards)]
    key = 0
    while min(len(pool) for pool in pools) < POOL_KEYS_PER_SHARD:
        pools[partitioner.shard_of(("t", key))].append(key)
        key += 1
    return pools


def _client(env: Environment, node: SimCertifierNode, rng,
            pools: list[list[int]], commit_times: list[float],
            warmup_end: float) -> Generator:
    num_shards = len(pools)
    while True:
        if num_shards > 1 and rng.random() < CROSS_RATIO:
            first, second = rng.sample(range(num_shards), 2)
            entries = [("t", rng.choice(pools[first])),
                       ("t", rng.choice(pools[second]))]
        else:
            pool = pools[rng.randrange(num_shards)]
            entries = [("t", rng.choice(pool)), ("t", rng.choice(pool))]
        version = node.core.system_version.version
        request = CertificationRequest(
            tx_start_version=version,
            writeset=make_writeset(entries),
            replica_version=version,
            origin_replica="replica-0",
        )
        result = yield from node.certify(request)
        if result.committed and env.now >= warmup_end:
            commit_times.append(env.now)


def _run_scenario(crash_schedule: tuple) -> dict:
    env = Environment()
    rng_streams = RandomStreams(20060418)
    config = ReplicationConfig(
        system=SystemKind.TASHKENT_MW,
        num_replicas=1,
        certifier_shards=RECOVERY_SHARDS,
        certifier_max_flush_batch=RECOVERY_FLUSH_CAP,
        certifier_crash_schedule=crash_schedule,
    )
    node = SimCertifierNode(env, config, rng_streams)
    pools = _key_pools(RECOVERY_SHARDS)
    run_end = RECOVERY_WARMUP_MS + RECOVERY_MEASURE_MS
    commit_times: list[float] = []
    for index in range(RECOVERY_CLIENTS):
        env.process(
            _client(env, node, rng_streams.stream(f"client-{index}"), pools,
                    commit_times, RECOVERY_WARMUP_MS),
            name=f"client-{index}",
        )
    env.run_until(run_end)
    assert not env.failed_processes, env.failed_processes

    def rate(start: float, end: float) -> float:
        count = sum(1 for t in commit_times if start <= t < end)
        return count / ((end - start) / 1000.0)

    stats = node.stats()
    row = {
        "scenario": "one_shard_leader_crash" if crash_schedule else "steady",
        "certifications_per_sec": round(
            len(commit_times) / (RECOVERY_MEASURE_MS / 1000.0), 1),
        "commits": len(commit_times),
        "outage_window_rate": round(
            rate(RECOVERY_CRASH_AT_MS, RECOVERY_RECOVER_AT_MS), 1),
        "post_recovery_rate": round(rate(RECOVERY_RECOVER_AT_MS, run_end), 1),
        "crash_events": int(stats["certifier_crash_events"]),
        "downtime_ms": stats["certifier_downtime_ms"],
        "stalled_requests": int(stats["certifier_stalled_requests"]),
    }
    if crash_schedule:
        after = [t for t in commit_times if t >= RECOVERY_RECOVER_AT_MS]
        # null (never Infinity: invalid JSON) when nothing commits after
        # recovery; the regression gate skips null metrics on both sides.
        row["recovery_lag_ms"] = (
            round(min(after) - RECOVERY_RECOVER_AT_MS, 2) if after else None)
    return row


def test_availability_under_shard_leader_crash_and_emit_bench_json():
    schedule = ((0, RECOVERY_CRASH_AT_MS, RECOVERY_RECOVER_AT_MS),)
    steady = _run_scenario(())
    faulty = _run_scenario(schedule)

    faulty["outage_rate_ratio"] = round(
        faulty["outage_window_rate"] / steady["outage_window_rate"], 3
    ) if steady["outage_window_rate"] else 0.0
    faulty["backlog_drain_ratio"] = round(
        faulty["post_recovery_rate"] / steady["post_recovery_rate"], 3
    ) if steady["post_recovery_rate"] else 0.0

    rows = [steady, faulty]
    payload = {
        "benchmark": "availability_recovery",
        "python": platform.python_version(),
        "shards": RECOVERY_SHARDS,
        "clients": RECOVERY_CLIENTS,
        "flush_cap_records": RECOVERY_FLUSH_CAP,
        "crash_window_ms": [RECOVERY_CRASH_AT_MS, RECOVERY_RECOVER_AT_MS],
        "warmup_ms": RECOVERY_WARMUP_MS,
        "measure_ms": RECOVERY_MEASURE_MS,
        "time_base": "simulated (deterministic)",
        "results": rows,
    }
    write_bench_json("BENCH_recovery.json", payload)

    print()
    print(f"Availability: shard-0 leader down "
          f"{RECOVERY_CRASH_AT_MS:.0f}-{RECOVERY_RECOVER_AT_MS:.0f} ms "
          f"of a {RECOVERY_MEASURE_MS:.0f} ms window, "
          f"{RECOVERY_CLIENTS} closed-loop clients, {RECOVERY_SHARDS} shards")
    columns = ["scenario", "certifications_per_sec", "outage_window_rate",
               "post_recovery_rate", "stalled_requests", "downtime_ms"]
    print(format_table(columns, [{k: row.get(k, "") for k in columns}
                                 for row in rows]))

    # The outage is injected and costed...
    assert faulty["crash_events"] == 1
    assert faulty["downtime_ms"] == RECOVERY_RECOVER_AT_MS - RECOVERY_CRASH_AT_MS
    assert faulty["stalled_requests"] > 0
    assert faulty["certifications_per_sec"] < steady["certifications_per_sec"]
    assert faulty["outage_window_rate"] < 0.8 * steady["outage_window_rate"]
    # ...but the surviving shard keeps serving single-shard transactions
    # through the outage (per-shard fault isolation, the availability win),
    assert faulty["outage_window_rate"] > 0
    # ...and the pipeline drains promptly once the leader is back: the
    # post-recovery rate returns to (at least) the steady level — the fsync
    # pipelines are already saturated in the steady scenario, so "recovered"
    # means matching it, not exceeding it.
    assert faulty["recovery_lag_ms"] is not None
    assert faulty["recovery_lag_ms"] < 100.0
    assert faulty["post_recovery_rate"] >= 0.9 * steady["post_recovery_rate"]
