"""Certifier-sharding benchmark: certifications/sec vs shard count.

The certifier is the one component every update transaction in the cluster
serializes through.  With a bounded fsync group (a real log buffer cannot
absorb an unbounded backlog into one synchronous write) a single log device
saturates at roughly ``flush_cap / fsync_time`` certifications per second;
the sharded certifier gives each shard its own log device, so single-shard
transactions scale that ceiling with the shard count, while cross-shard
transactions pay the merge: a log record on *every* touched shard, release
only after the slowest touched flush, and certification CPU per fragment.

This benchmark drives the simulated certifier nodes directly (no replicas)
with closed-loop clients issuing 2-item writesets:

* a **single-shard** transaction draws both items from one shard's key pool;
* a **cross-shard** transaction draws one item from each of two shards.

The ``cross_ratio`` axis (0%, 10%, 50% by default) sets the mix.  Results —
all in deterministic *simulated* time — land in
``BENCH_certifier_shards.json``; the documented crossover is visible in the
``speedup_vs_single`` column: the win shrinks as the cross-shard ratio grows
because every cross-shard transaction occupies two flush pipelines.

Acceptance (ISSUE 4): at 4 shards under a 0%-cross-shard workload the
certifier must clear at least 2x the certifications/sec of ``shards=1``.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Generator

from conftest import (
    SHARD_CLIENTS,
    SHARD_COUNTS,
    SHARD_CROSS_RATIOS,
    SHARD_FLUSH_CAP,
    SHARD_MEASURE_MS,
    SHARD_WARMUP_MS,
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

#: Acceptance floor: certifications/sec at 4 shards / 0% cross-shard must be
#: at least this multiple of the single-certifier baseline.
SPEEDUP_FLOOR = 2.0
ACCEPTANCE_SHARDS = 4

#: Distinct keys per shard pool (large, so write-write conflicts are rare and
#: the measurement isolates the durability pipeline, not the abort rate).
POOL_KEYS_PER_SHARD = 4000
ITEMS_PER_WRITESET = 2

TRACKED_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_certifier_shards.json"
#: The payload fields that, with the row keys, fix every emitted number.
KNOBS = ("clients", "flush_cap_records", "warmup_ms", "measure_ms")


def _key_pools(num_shards: int) -> list[list[int]]:
    """Per-shard key pools under the certifier's own stable partitioner."""
    partitioner = HashPartitioner(num_shards)
    pools: list[list[int]] = [[] for _ in range(num_shards)]
    key = 0
    while min(len(pool) for pool in pools) < POOL_KEYS_PER_SHARD:
        pools[partitioner.shard_of(("t", key))].append(key)
        key += 1
    return pools


def _client(env: Environment, node, rng, pools: list[list[int]],
            cross_ratio: float, counters: dict, window: tuple[float, float]) -> Generator:
    num_shards = len(pools)
    warmup_end, _run_end = window
    while True:
        if num_shards > 1 and rng.random() < cross_ratio:
            first, second = rng.sample(range(num_shards), 2)
            entries = [("t", rng.choice(pools[first])),
                       ("t", rng.choice(pools[second]))]
        else:
            shard = rng.randrange(num_shards)
            pool = pools[shard]
            entries = [("t", rng.choice(pool)) for _ in range(ITEMS_PER_WRITESET)]
        version = node.core.system_version.version
        request = CertificationRequest(
            tx_start_version=version,
            writeset=make_writeset(entries),
            replica_version=version,
            origin_replica="replica-0",
        )
        started = env.now
        result = yield from node.certify(request)
        if env.now >= warmup_end:
            counters["commits" if result.committed else "aborts"] += 1
            counters["latency_ms_total"] += env.now - started
            counters["latency_samples"] += 1


def _run_point(shards: int, cross_ratio: float) -> dict:
    env = Environment()
    rng_streams = RandomStreams(20060418)
    config = ReplicationConfig(
        system=SystemKind.TASHKENT_MW,
        num_replicas=1,
        certifier_shards=shards,
        certifier_max_flush_batch=SHARD_FLUSH_CAP,
    )
    node = SimCertifierNode(env, config, rng_streams)
    pools = _key_pools(shards)
    run_end = SHARD_WARMUP_MS + SHARD_MEASURE_MS
    counters = {"commits": 0, "aborts": 0,
                "latency_ms_total": 0.0, "latency_samples": 0}
    for index in range(SHARD_CLIENTS):
        env.process(
            _client(env, node, rng_streams.stream(f"client-{index}"), pools,
                    cross_ratio, counters, (SHARD_WARMUP_MS, run_end)),
            name=f"client-{index}",
        )
    env.run_until(run_end)
    assert not env.failed_processes, env.failed_processes

    commits = counters["commits"]
    certs_per_sec = commits / (SHARD_MEASURE_MS / 1000.0)
    samples = counters["latency_samples"]
    stats = node.stats()
    return {
        "shards": shards,
        "cross_ratio": cross_ratio,
        "certifications_per_sec": round(certs_per_sec, 1),
        "commits": commits,
        "aborts": counters["aborts"],
        "mean_latency_ms": round(counters["latency_ms_total"] / samples, 2)
        if samples else 0.0,
        "fsyncs": int(stats["certifier_fsyncs"]),
        "writesets_per_fsync": round(stats["certifier_writesets_per_fsync"], 2),
        # Log records flushed per committed transaction: 1.0 when every
        # commit lives on one shard, 1 + cross_ratio as cross-shard commits
        # write a fragment record on each touched shard (merge amplification).
        "flushed_records_per_commit": round(
            stats["certifier_fsyncs"] * stats["certifier_writesets_per_fsync"]
            / max(stats["certifier_commits"], 1), 3),
    }


def _run_matrix() -> list[dict]:
    rows = []
    for shards in SHARD_COUNTS:
        # A single certifier has no shard boundary to cross.
        ratios = (0.0,) if shards == 1 else SHARD_CROSS_RATIOS
        for cross_ratio in ratios:
            rows.append(_run_point(shards, cross_ratio))
    baseline = next(
        (row["certifications_per_sec"] for row in rows
         if row["shards"] == 1 and row["cross_ratio"] == 0.0),
        None,
    )
    for row in rows:
        row["speedup_vs_single"] = (
            round(row["certifications_per_sec"] / baseline, 2)
            if baseline else 0.0
        )
    return rows


def test_certifier_sharding_and_emit_bench_json():
    rows = _run_matrix()

    payload = {
        "benchmark": "certifier_sharding",
        "python": platform.python_version(),
        "clients": SHARD_CLIENTS,
        "flush_cap_records": SHARD_FLUSH_CAP,
        "warmup_ms": SHARD_WARMUP_MS,
        "measure_ms": SHARD_MEASURE_MS,
        "time_base": "simulated (deterministic)",
        "results": rows,
    }
    tracked = json.loads(TRACKED_BASELINE.read_text())
    write_bench_json("BENCH_certifier_shards.json", payload)

    print()
    print(f"Certifier sharding: {SHARD_CLIENTS} closed-loop clients, "
          f"fsync group capped at {SHARD_FLUSH_CAP} records")
    columns = ["shards", "cross_ratio", "certifications_per_sec",
               "speedup_vs_single", "mean_latency_ms", "writesets_per_fsync",
               "flushed_records_per_commit"]
    print(format_table(columns, [{k: row[k] for k in columns} for row in rows]))

    by_point = {(row["shards"], row["cross_ratio"]): row for row in rows}
    baseline = by_point[(1, 0.0)]
    assert baseline["certifications_per_sec"] > 0

    # Simulated time is deterministic: at the tracked file's knobs every row
    # reproduces exactly, on any host.  A row that moves is a behaviour
    # change of the simulated certifier, not noise.
    if all(payload[knob] == tracked[knob] for knob in KNOBS):
        tracked_rows = {(row["shards"], row["cross_ratio"]): row
                        for row in tracked["results"]}
        for point, row in by_point.items():
            assert row == tracked_rows[point], (
                f"shards={point[0]} cross_ratio={point[1]} moved:\n"
                f"  emitted {row}\n  tracked {tracked_rows[point]}")

    for row in rows:
        # Conflicts are rare by construction; the measurement is about the
        # durability pipeline, not the abort rate.
        assert row["aborts"] <= row["commits"] * 0.01

    if (ACCEPTANCE_SHARDS, 0.0) in by_point:
        speedup = by_point[(ACCEPTANCE_SHARDS, 0.0)]["speedup_vs_single"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"{ACCEPTANCE_SHARDS} shards only {speedup:.2f}x over the single "
            f"certifier at 0% cross-shard (floor {SPEEDUP_FLOOR}x)"
        )

    # The documented crossover: the sharding win must shrink as the
    # cross-shard ratio grows (each cross-shard commit occupies two flush
    # pipelines and waits for the slower one).
    for shards in SHARD_COUNTS:
        if shards == 1:
            continue
        ratios = sorted(r for s, r in by_point if s == shards)
        series = [by_point[(shards, r)]["certifications_per_sec"] for r in ratios]
        assert series == sorted(series, reverse=True), (
            f"throughput should fall as cross-shard ratio rises: {series}"
        )
