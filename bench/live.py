"""Runner for the live (multi-process) workloads.

Boots a ``LiveCluster`` — 2 replicas, Tashkent-MW, pipelined, batch window 0,
batch max 64 — under a run directory inside ``bench/out/``, drives it with
the closed-loop clients, and observes it strictly from outside: the nodes'
public ``stats`` op, ``/proc/<pid>``, idle probes, and (traced runs) spans
around the driver-side ``LiveSession`` / ``WireClient`` calls.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.core.certification import (
    CertificationDecision,
    CertificationRequest,
    CertificationResult,
    RemoteWriteSetInfo,
)
from repro.core.config import ReplicationConfig, SystemKind
from repro.errors import TransactionAborted
from repro.live import codec, wire
from repro.live.client import LiveSession
from repro.live.cluster import LiveCluster
from repro.live.harness import ProcessHarness
from repro.live.wal import BatchWalFile
from repro.sim.rng import RandomStreams
from repro.workloads import workload_by_name

from bench import checks, metrics
from bench.driver import Lane, Samples, Stack, Window, run_window
from bench.measure import (
    percentile,
    process_cpu_seconds,
    process_peak_rss_mb,
    stats_delta,
)
from bench.spec import OUT_DIR, Workload
from bench.tracing import Target

REPLICAS = 2

#: Driver-side public functions a traced run wraps.
SPAN_TARGETS = [
    *(Target(LiveSession, attr, "live.client")
      for attr in ("begin", "read", "update", "insert", "commit")),
    Target(wire.WireClient, "call", "live.wire.call"),
    Target(wire, "encode_frame", "live.wire.codec"),
    Target(wire, "decode_body", "live.wire.codec"),
]


class LiveStack(Stack):
    """A booted, loaded, warmed cluster with its clients attached."""

    def __init__(self, spec: Workload, cluster: LiveCluster, generator,
                 clients: list[list[Lane]], run_dir: Path) -> None:
        super().__init__(spec, generator, clients)
        self.cluster = cluster
        self.run_dir = run_dir

    def node_pids(self) -> dict[str, list[int]]:
        cluster = self.cluster
        return {
            "replica": [node.pid for node in cluster.replicas.values()],
            "scheduler": [cluster.scheduler.pid],
            "shard": [node.pid for node in cluster.shards],
        }

    def snapshot(self) -> dict:
        """Every node's ``stats`` plus CPU seconds per role (driver included)."""
        own = os.times()
        return {
            **self.cluster.stats(),
            "wall_s": time.perf_counter(),
            "cpu": {**{role: sum(process_cpu_seconds(pid) for pid in pids)
                       for role, pids in self.node_pids().items()},
                    "driver": own.user + own.system},
        }

    def peak_rss_mb(self) -> float:
        return sum(process_peak_rss_mb(pid)
                   for pids in self.node_pids().values() for pid in pids)


@contextmanager
def booted(spec: Workload, seed: int, warmup_s: float) -> Iterator[LiveStack]:
    """One full set-up: boot, handshakes, data load, sessions, fixed warm-up.

    Teardown reaps every node (the harness asserts none survived) and removes
    the run directory, on success, failure and the ceiling alike.
    """
    generator = workload_by_name(spec.generator, num_replicas=REPLICAS, scale=spec.scale)
    config = ReplicationConfig(
        system=SystemKind.TASHKENT_MW, num_replicas=REPLICAS,
        certifier_shards=spec.shards, rng_seed=7, live_pipeline=True,
        live_certify_batch_window_ms=0.0, live_certify_batch_max=64,
        live_wal_fsync_floor_ms=spec.fsync_floor_ms,
    )
    run_dir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT_DIR))
    try:
        with LiveCluster(config, generator.schemas(), run_dir=run_dir) as cluster:
            cluster.load_initial_data(generator)
            names = list(cluster.replicas)
            clients = [[Lane(cluster.session(names[i % REPLICAS], client_name=f"bench-{i}"),
                             i, seed)] for i in range(spec.clients)]
            stack = LiveStack(spec, cluster, generator, clients, run_dir)
            stack.run(warmup_s)
            yield stack
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# -- idle probes ----------------------------------------------------------------


def _timed_p50_us(call, count: int) -> float:
    samples = []
    for index in range(count):
        started = time.perf_counter()
        call(index)
        samples.append(time.perf_counter() - started)
    return percentile(sorted(samples), 0.5) * 1e6


def _ping_rtt_us(port: int) -> float:
    with wire.WireClient("127.0.0.1", port, name="bench-probe") as client:
        return _timed_p50_us(lambda _: client.call("ping"), 300)


def _codec_roundtrip_us(generator) -> float:
    """Request and result through the codec and JSON, as one certify costs each side."""
    rng = RandomStreams(1)
    sequence = 0
    while True:
        profile = generator.next_transaction(rng, replica_index=0, client_index=0,
                                             sequence=sequence)
        if profile.is_update:
            break
        sequence += 1
    writeset = profile.writeset
    request = CertificationRequest(tx_start_version=41, writeset=writeset,
                                   replica_version=41, origin_replica="replica-0")
    result = CertificationResult(
        decision=CertificationDecision.COMMIT, tx_commit_version=43,
        remote_writesets=[RemoteWriteSetInfo(42, writeset, "replica-1", 41)])

    def roundtrip(_: int) -> None:
        codec.decode_request(json.loads(json.dumps(codec.encode_request(request))))
        codec.decode_result(json.loads(json.dumps(codec.encode_result(result))))

    return _timed_p50_us(roundtrip, 2000)


def _append_batch_us(run_dir: Path) -> float:
    wal = BatchWalFile(run_dir / "probe-inprocess.wal", fsync_floor_ms=0.0)
    try:
        return _timed_p50_us(lambda i: wal.append_batch(i + 1, [b"\x00\x00\x00\x3a"]), 200)
    finally:
        wal.close()


def _idle_append_rtt_us(run_dir: Path) -> float:
    """``wal_append`` to a standalone floor-0 shard: wire + JSON + fsync, no scheduler."""
    harness = ProcessHarness(run_dir=run_dir / "probe-shard")
    try:
        with harness:
            node = harness.spawn("certifier-shard", "probe-shard",
                                 ["--shard-id", "0", "--wal", "probe-shard.wal",
                                  "--fsync-floor-ms", "0"])
            with wire.WireClient("127.0.0.1", node.port, name="bench-probe") as client:
                return _timed_p50_us(
                    lambda i: client.call("wal_append", seq=i + 1, payloads=["0000003a"]), 100)
    finally:
        harness.assert_no_orphans()


def _idle_update_ms(stack: LiveStack) -> float:
    """One client, nobody else: the unloaded commit path end to end."""
    lane = stack.clients[0][0]
    lane.timed.samples = samples = Samples()
    for _ in range(400):
        if samples.update_commits >= 40:
            break
        samples.attempted += 1
        try:
            stack.generator.run_transaction(lane.timed, lane.rng, client_index=lane.index,
                                            sequence=lane.sequence)
        except TransactionAborted:
            samples.aborts += 1
        except Exception as exc:  # noqa: BLE001 - counted like a client's failure in the window
            samples.failed += 1
            samples.errors.append(f"idle probe seq {lane.sequence}: {exc!r}")
            break
        finally:
            lane.sequence += 1
    stack.acknowledged.merge(samples)
    return percentile(sorted(samples.update_s), 0.5) * 1e3


def probes(stack: LiveStack) -> dict[str, float]:
    """Outside-in, on the idle cluster: ping per role, then WAL append, then a commit."""
    cluster = stack.cluster
    return {
        "live.wire.ping_rtt_us.replica": _ping_rtt_us(cluster.replicas["replica-0"].port),
        "live.wire.ping_rtt_us.scheduler": _ping_rtt_us(cluster.scheduler.port),
        "live.wire.ping_rtt_us.shard": _ping_rtt_us(cluster.shards[0].port),
        "live.codec.roundtrip_us": _codec_roundtrip_us(stack.generator),
        "live.wal.append_batch_us": _append_batch_us(stack.run_dir),
        "live.wal.idle_append_rtt_us": _idle_append_rtt_us(stack.run_dir),
        "live.commit.idle_update_ms": _idle_update_ms(stack),
    }


# -- checks ---------------------------------------------------------------------


def verify(stack: LiveStack) -> list[str]:
    """Replica equality, the workload's invariant, then the WAL after ``kill -9``.

    Destructive: every node is dead when this returns.
    """
    cluster = stack.cluster
    cluster.refresh_all()
    cluster.refresh_all()
    tables = [schema.name for schema in stack.generator.schemas()]
    states = [{table: cluster.dump_table(name, table) for table in tables}
              for name in cluster.replicas]
    acknowledged = stack.acknowledged.update_commits
    problems = checks.replicas_equal(states)
    problems += checks.BY_GENERATOR[stack.spec.generator](states[0], acknowledged)
    cluster.close()
    for node in cluster.harness.nodes.values():
        node.kill()
    # The loader's one set-up transaction is acknowledged too.
    problems += checks.wal_durability(
        [stack.run_dir / f"shard-{i}.wal" for i in range(stack.spec.shards)],
        acknowledged + 1)
    return problems


# -- one measured run -------------------------------------------------------------


def measure(stack: LiveStack, seconds: float, trace: bool) -> tuple[Window, dict[str, float]]:
    """The measured window on a set-up stack, and the metrics of its mode.

    Untraced: the end-to-end metrics (``setup_s`` is the caller's).  Traced:
    every layer metric.
    """
    spec = stack.spec
    before = stack.snapshot()
    window = run_window(stack.run, seconds, SPAN_TARGETS if trace else None,
                        len(stack.clients))
    after = stack.snapshot()
    peak_rss = stack.peak_rss_mb()
    delta = stats_delta(before, after)
    totals = metrics.live_totals(delta)
    if not trace:
        return window, metrics.end_to_end(
            window, fsyncs=totals["fsyncs"], wal_bytes=totals["wal_bytes"],
            peak_rss_mb=peak_rss)
    probe_rows = probes(stack)
    rows = metrics.live_layers(
        totals=totals, tx_table_size=after["scheduler"]["tx_table_size"],
        cpu_s=delta["cpu"], window=window, wall_s=delta["wall_s"],
        floor_ms=spec.fsync_floor_ms, probes=probe_rows)
    rows.update(probe_rows)
    rows.update(metrics.span_layers(window, {target.layer for target in SPAN_TARGETS}))
    rows.update(metrics.window_rows(window, delta["cpu"]))
    return window, metrics.complete_layers(rows, "live")
