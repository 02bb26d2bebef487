"""What the benchmark runs and what it reports: workloads and metric declarations.

This module is the single source of truth; ``BENCHMARK.json`` at the repo
root is its projection onto the keys the driver contract allows
(``python3 bench/spec.py --write`` regenerates it, the self-test checks they
agree).  The columns the contract has no key for — which layer a metric
belongs to and which end-to-end metric it should move, on which workload —
live here and in ``bench/README.md``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Run directories, span files and result details; ignored by git.
OUT_DIR = ROOT / "bench" / "out"

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
#: Measured window of one run, seconds.  The contract's cap — 4 + 22 x 5 runs
#: inside 3420 s, set-up included — leaves ~30 s per run; see README "Sizes".
RUN_SECONDS = 10
#: Fixed warm-up before every measured window (part of ``setup_s``).
WARMUP_SECONDS = 1.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 3
#: Hard wall-clock ceiling for one run; hitting it is a failure.
CEILING_SECONDS = 90

#: The flush policy, identical on every live workload and on both sides of
#: any comparison.
FLUSH_POLICY = (
    "every certifier WAL batch is write + flush + os.fsync on the shard "
    "process, padded to live_wal_fsync_floor_ms (8 ms = the paper's disk, "
    "0 = raw container fsync); replicas commit in memory (Tashkent-MW). "
    "kill -9 keeps the OS page cache, so the durability check proves "
    "ack-after-fsync ordering, not survival of power loss."
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``live`` = LiveCluster processes, ``func`` = in-process functional stack.
    kind: str
    generator: str
    shards: int
    clients: int
    fsync_floor_ms: float
    scale: int
    why: str


WORKLOADS = (
    Workload("allupdates_fsync8", "live", "allupdates", 1, 4, 8.0, 1,
             "paper regime: 8 ms WAL fsync and the group-certification batcher "
             "do the waiting; a CPU-side (codec/wire) speed-up must show no change here"),
    Workload("allupdates_fsync0", "live", "allupdates", 1, 2, 0.0, 1,
             "durability ~free, five processes on two cores: wire, codec, thread hops, "
             "proxy and engine do the work; batching changes must show no gain here"),
    Workload("tpcb_2shard_fsync8", "live", "tpcb", 2, 4, 8.0, 8,
             "cross-shard four-table writesets with hot branch rows: shard merge, two "
             "remote WALs and the abort path do the work (the standing 2-shard anomaly)"),
    Workload("tpcw_fsync8", "live", "tpcw", 1, 4, 8.0, 1,
             "80% reads beside 20% buys on one replica wire, state lock and engine: a "
             "commit-path gain that lengthens lock hold slows the reads and so lowers txn_tps"),
    Workload("func_allupdates", "func", "allupdates", 1, 1, 0.0, 1,
             "single-process baseline, no wire, no fsync: isolates middleware/core/"
             "transport/engine self time; where certifier-collapse refactors are judged"),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Bounds follow the spread measured between ten seeds on the reference box
#: (README "Steadiness"): its host CPU speed drifts by +-20 % over tens of
#: seconds, a bound is per metric and the driver holds every workload's
#: spread to it, so every metric that is CPU-bound on some workload carries
#: the contract's maximum, and only counts and memory are held tighter.
#: ``bench/compare.py`` judges each workload by its own spread instead, so a
#: fsync-bound row that repeats within 1-2 % is not excused by this bound.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "boot + handshakes + data load + fixed warm-up, median of the run's set-ups"),
    EndToEnd("txn_tps", "1/s", "higher", 0.25,
             "committed transactions (read-only + update) / measured window"),
    EndToEnd("update_p50_ms", "ms", "lower", 0.25,
             "committed update transaction, begin -> commit ack, median"),
    EndToEnd("update_p95_ms", "ms", "lower", 0.25,
             "same, 95th percentile (the bounded tail; p99 is a layer metric)"),
    EndToEnd("fsyncs_per_commit", "count", "lower", 0.15,
             "certifier-WAL fsyncs / committed update transactions (the paper's quantity)"),
    EndToEnd("wal_bytes_per_commit", "B", "lower", 0.10,
             "certifier-log bytes written, summed over shards / committed update transactions"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "sum of VmHWM over node processes (the driver on func_allupdates) at window end"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: Module the number belongs to (``repro.<layer>``), or ``bench``.
    layer: str
    #: Which end-to-end metric it should move, on which workload.
    moves: str
    definition: str


def _span(name: str, layer: str, around: str, moves: str) -> PerLayer:
    return PerLayer(name, "us", "lower", layer, moves, f"span self time around {around}")


#: Rows every runner measures.  The first four were specified end-to-end and
#: are demoted because their spread between seeds of the same code reaches or
#: exceeds the largest bound the contract allows (README "Steadiness"): the
#: client's stopwatch over the untraced slices, and the CPU bill.
_EVERY_KIND = (
    PerLayer("update_p99_ms", "ms", "lower", "client",
             "update_p95_ms on every workload (same samples, further out)",
             "committed update transaction, highest percentile <= p99 with >= 10 samples beyond"),
    PerLayer("read_p50_ms", "ms", "lower", "client",
             "txn_tps on tpcw_fsync8 (its transactions are mostly reads)",
             "one result-bearing read statement (one replica round trip on live), median"),
    PerLayer("read_p99_ms", "ms", "lower", "client",
             "txn_tps on tpcw_fsync8",
             "same, highest percentile <= p99 with >= 10 samples beyond"),
    PerLayer("cpu_ms_per_commit", "ms", "lower", "bench",
             "txn_tps on allupdates_fsync0 and func_allupdates (CPU-bound: tps ~ 1 / CPU per commit)",
             "utime+stime of every node process and the driver / committed transactions"),
    PerLayer("trace.overhead_share", "ratio", "lower", "bench",
             "validity of the traced numbers (must stay <= 0.10)",
             "1 - traced txn_tps / untraced txn_tps over interleaved slices (U T T U blocks; untraced "
             "read off a line through the time per transaction of each block's two U slices)"),
    PerLayer("trace.span_cost_share", "ratio", "lower", "bench",
             "validity of the traced numbers where throughput drifts (func_allupdates)",
             "spans recorded x calibrated cost of one span / client time in traced slices"),
    PerLayer("bench.driver.cpu_ms_per_commit", "ms", "lower", "bench",
             "cpu_ms_per_commit (the load generator's share)", "os.times() of the driver"),
    PerLayer("middleware.proxy.abort_share", "ratio", "lower", "middleware.proxy",
             "txn_tps on tpcb_2shard_fsync8", "concurrency-control aborts / attempts"),
    PerLayer("decay_ratio", "ratio", "higher", "bench",
             "< 1 on allupdates_fsync0 and func_allupdates today; ~1 on fsync8",
             "last-quarter txn_tps / first-quarter txn_tps (both untraced slices)"),
)

#: Rows only the in-process runner measures: spans around the whole stack
#: (wrappers on public methods, traced slices).  On a live workload these
#: layers run inside node processes and the rows read 0.0.
_FUNC_ONLY = (
    _span("middleware.client_api.self_us_per_txn", "middleware.client_api",
          "ClientSession.begin/read/update/insert/commit", "txn_tps on func_allupdates"),
    _span("middleware.proxy.self_us_per_txn", "middleware.proxy",
          "TransparentProxy.begin/read/update/insert/commit/refresh",
          "txn_tps, update_p50_ms on func_allupdates"),
    _span("middleware.proxy.self_us_per_txn.q1", "middleware.proxy",
          "the same, first quarter of the traced window", "explains decay_ratio"),
    _span("middleware.proxy.self_us_per_txn.q4", "middleware.proxy",
          "the same, last quarter of the traced window", "explains decay_ratio"),
    _span("middleware.certifier.self_us_per_txn", "middleware.certifier",
          "CertifierService/ShardedCertifierService.certify and .flush",
          "txn_tps on func_allupdates"),
    _span("core.certification.self_us_per_txn", "core.certification",
          "Certifier.certify", "txn_tps on func_allupdates (small share expected)"),
    _span("core.certifier_log.self_us_per_txn", "core.certifier_log",
          "CertifierLog.append and .first_conflicting_version", "txn_tps on func_allupdates"),
    _span("transport.stream.self_us_per_txn", "transport.stream",
          "WritesetStream.offer/flush/propagate_from_log and subscription poll",
          "txn_tps on func_allupdates"),
    _span("engine.database.self_us_per_txn", "engine.database",
          "Database.begin/read/update/insert/commit/extract_writeset/apply_writeset_batch",
          "txn_tps on func_allupdates"),
    PerLayer("engine.database.apply_us_per_writeset", "us", "lower", "engine.database",
             "txn_tps on func_allupdates",
             "Database.apply_writeset_batch span time / remote writesets applied"),
    _span("engine.wal.self_us_per_txn", "engine.wal", "WriteAheadLog.append and .flush",
          "none under Tashkent-MW (replicas commit in memory): a guard"),
)

#: Rows only the live runner measures: driver-side spans, ``stats``-op deltas
#: over the window, ``/proc``, idle probes and the budget residuals.
_LIVE_ONLY = (
    _span("live.client.self_us_per_txn", "live.client",
          "LiveSession.begin/read/update/insert/commit (driver)",
          "cpu_ms_per_commit on allupdates_fsync0"),
    _span("live.wire.client_self_us_per_txn", "live.wire",
          "encode_frame and decode_body under WireClient.call (driver)",
          "cpu_ms_per_commit, read_p50_ms on allupdates_fsync0 and tpcw_fsync8"),
    PerLayer("live.codec.roundtrip_us", "us", "lower", "live.codec",
             "cpu_ms_per_commit on allupdates_fsync0",
             "in-process probe: encode_request -> JSON -> decode_request plus "
             "encode_result -> JSON -> decode_result on a workload writeset, p50 of 2000"),
    PerLayer("live.wire.ping_rtt_us.replica", "us", "lower", "live.wire",
             "read_p50_ms everywhere; floor under every hop", "300 sequential pings, p50"),
    PerLayer("live.wire.ping_rtt_us.scheduler", "us", "lower", "live.wire",
             "update_p50_ms on every live workload", "300 sequential pings, p50"),
    PerLayer("live.wire.ping_rtt_us.shard", "us", "lower", "live.wire",
             "update_p50_ms on fsync8 workloads", "300 sequential pings, p50"),
    PerLayer("live.wire.frames_per_commit", "count", "lower", "live.wire",
             "cpu_ms_per_commit on allupdates_fsync0",
             "sum of server.frames_in over nodes / committed transactions"),
    PerLayer("live.wire.bytes_per_commit", "B", "lower", "live.wire",
             "cpu_ms_per_commit on allupdates_fsync0",
             "sum of server.bytes_in + bytes_out over nodes / committed transactions"),
    PerLayer("live.node.replica.cpu_ms_per_commit", "ms", "lower", "live.node",
             "cpu_ms_per_commit (its replica share)", "/proc/<pid>/stat, both replicas"),
    PerLayer("live.node.scheduler.cpu_ms_per_commit", "ms", "lower", "live.node",
             "cpu_ms_per_commit (its scheduler share)", "/proc/<pid>/stat"),
    PerLayer("live.node.shard.cpu_ms_per_commit", "ms", "lower", "live.node",
             "cpu_ms_per_commit (its shard share)", "/proc/<pid>/stat, all shards"),
    PerLayer("live.node.replica.certify_rtt_ms", "ms", "lower", "live.node",
             "update_p50_ms on every live workload",
             "delta commit_wire_wait_s / delta certify requests"),
    PerLayer("live.node.replica.gate_wait_ms", "ms", "lower", "live.node",
             "update_p99_ms on tpcw_fsync8 and allupdates_fsync8",
             "delta commit_gate_wait_s / delta certify requests"),
    PerLayer("live.node.replica.commit_local_ms", "ms", "lower", "live.node",
             "update_p50_ms, cpu_ms_per_commit on allupdates_fsync0",
             "client commit() p50 - certify_rtt_ms - gate_wait_ms - ping_rtt.replica (by subtraction)"),
    PerLayer("live.node.replica.read_service_us", "us", "lower", "live.node",
             "read_p50_ms on tpcw_fsync8", "read p50 - ping_rtt.replica"),
    PerLayer("live.node.scheduler.round_size", "count", "higher", "live.node",
             "fsyncs_per_commit, txn_tps on allupdates_fsync8",
             "delta certify requests / delta rounds"),
    PerLayer("live.node.scheduler.exec_ms_per_round", "ms", "lower", "live.node",
             "update_p50_ms on tpcb_2shard_fsync8", "delta exec_s / delta rounds"),
    PerLayer("live.node.scheduler.busy_share", "ratio", "lower", "live.node",
             "txn_tps on allupdates_fsync0", "delta batcher busy_s / window"),
    PerLayer("live.node.scheduler.park_ms", "ms", "lower", "live.node",
             "update_p50_ms on allupdates_fsync8 (the second 8 ms)",
             "certify_rtt_ms - exec_ms_per_round - ping_rtt.scheduler (by subtraction)"),
    PerLayer("live.node.scheduler.wal_hop_ms", "ms", "lower", "live.node",
             "update_p50_ms on fsync8 workloads",
             "delta sync_wait_s / delta syncs over the scheduler's wal_clients"),
    PerLayer("live.node.scheduler.tx_table_size", "count", "lower", "live.node",
             "peak_rss_mb", "exactly-once table entries at window end"),
    PerLayer("live.wal.records_per_batch", "count", "higher", "live.wal",
             "fsyncs_per_commit", "delta records / delta batches over shards"),
    PerLayer("live.wal.bytes_per_record", "B", "lower", "live.wal",
             "wal_bytes_per_commit", "delta WAL file bytes / delta records over shards"),
    PerLayer("live.wal.device_busy_share", "ratio", "higher", "live.wal",
             "~0.9 on allupdates_fsync8 (paper regime), ~0 on allupdates_fsync0",
             "delta batches x max(floor, append_batch_us) / window, mean over shards"),
    PerLayer("live.wal.append_batch_us", "us", "lower", "live.wal",
             "context for floor-0 rows: the raw container fsync",
             "in-process BatchWalFile.append_batch, floor 0, 200 one-record batches, p50"),
    PerLayer("live.wal.wire_overhead_ms", "ms", "lower", "live.wal",
             "update_p50_ms on fsync8; cpu_ms_per_commit on fsync0",
             "wal_hop_ms - floor - append_batch_us"),
    PerLayer("live.wal.idle_append_rtt_us", "us", "lower", "live.wal",
             "cross-check of wire_overhead_ms",
             "100 wal_append calls to a standalone floor-0 shard process, p50"),
    PerLayer("live.commit.idle_update_ms", "ms", "lower", "live.client",
             "update_p50_ms minus this = queueing under load",
             "40 sequential update transactions by one client on the idle cluster, p50"),
    PerLayer("core.sharding.flushed_records_per_commit", "count", "lower", "core.sharding",
             "wal_bytes_per_commit on tpcb_2shard_fsync8",
             "delta shard WAL records / committed update transactions"),
    PerLayer("core.sharding.shard_flush_overlap", "ratio", "lower", "core.sharding",
             "update_p50_ms, txn_tps on tpcb_2shard_fsync8",
             "delta exec_s / sum over shards of delta sync_wait_s "
             "(>= 1: shards flushed one after another; -> 1/shards: in parallel)"),
    PerLayer("budget.fsync_share", "ratio", "higher", "bench",
             "ROADMAP item 5 target >= 0.8 on allupdates_fsync8",
             "floor x syncs per round x (1 + clamp(park_ms / exec_ms_per_round, 0, 1)) / update_p50_ms"),
    PerLayer("budget.unattributed_ms", "ms", "lower", "bench",
             "the stated residual of ROADMAP item 1",
             "update p50 - reads per update txn x read p50 - commit() p50"),
    PerLayer("budget.unattributed_share", "ratio", "lower", "bench",
             "the stated residual of ROADMAP item 1", "unattributed_ms / update p50"),
)

PER_LAYER = _EVERY_KIND + _FUNC_ONLY + _LIVE_ONLY


def measured_by(kind: str) -> frozenset[str]:
    """Names of the layer rows the runner of workload ``kind`` must produce."""
    own = {"live": _LIVE_ONLY, "func": _FUNC_ONLY}[kind]
    return frozenset(metric.name for metric in _EVERY_KIND + own)


WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def benchmark_json() -> dict:
    """The contract's ``BENCHMARK.json``: exactly its keys, nothing more."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        BENCHMARK_JSON.write_text(render_benchmark_json(), encoding="utf-8")
    else:
        sys.stdout.write(render_benchmark_json())
