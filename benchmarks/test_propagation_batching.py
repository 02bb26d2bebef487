"""Propagation micro-benchmark: per-writeset vs batched writeset delivery.

The transport layer (``repro.transport``) turned remote-writeset propagation
into one policy-pluggable pipeline: the certifier offers certified writesets
to a :class:`WritesetStream`, a flush policy cuts them into batches, and each
replica applies whole batches through the engine's group-apply path
(:meth:`Database.apply_writeset_batch` — one version bump and one WAL append,
hence one synchronous write, per batch).

This module measures that pipeline end to end on engine-backed replicas:

* **per-writeset** — ``ImmediateFlushPolicy``; every writeset travels and
  commits alone, costing one WAL append + fsync per writeset per replica
  (the regime of a naive push system, and of Base's serial submission);
* **batched** — ``SizeCappedFlushPolicy``; writesets share batches, so the
  fsyncs-per-writeset ratio drops by the batch factor;
* **windowed** — ``TimeWindowFlushPolicy``; the bounded-staleness regime,
  where everything arriving inside the window shares one delivery.

Replica databases write through a :class:`ThrottledLogDevice` whose sync has
a small minimum service time (default 0.2 ms — far below the paper's ~8 ms
disks; tune with ``REPRO_BENCH_PROP_FSYNC_MS``), so the wall-clock numbers
reflect the fsync-bound regime the paper analyses instead of a free-fsync
fiction.  Results land in ``BENCH_propagation.json`` at the repo root.
Axes are env-tunable — see ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import platform
import time

from conftest import PROP_BATCH_SIZE, PROP_FSYNC_MS, PROP_WRITESETS, REPLICA_COUNTS, write_bench_json

from repro.analysis.report import format_table
from repro.core.certification import RemoteWriteSetInfo
from repro.core.writeset import WriteSet
from repro.engine.database import Database
from repro.engine.log_device import ThrottledLogDevice
from repro.transport import (
    FlushPolicy,
    ImmediateFlushPolicy,
    SizeCappedFlushPolicy,
    TimeWindowFlushPolicy,
    WritesetStream,
)

#: Acceptance: batched propagation must beat per-writeset propagation by at
#: least this factor in applies/sec, at every measured point with 8+ replicas.
SPEEDUP_FLOOR = 3.0
ACCEPTANCE_REPLICAS = 8

#: Distinct keys in the benchmark table (writesets cycle through them).
KEY_SPACE = 4096
ITEMS_PER_WRITESET = 2


def _make_infos(count: int) -> list[RemoteWriteSetInfo]:
    infos = []
    for version in range(1, count + 1):
        writeset = WriteSet()
        for j in range(ITEMS_PER_WRITESET):
            key = (version * ITEMS_PER_WRITESET + j) % KEY_SPACE
            writeset.add_update("bench", key, balance=version)
        infos.append(
            RemoteWriteSetInfo(
                commit_version=version,
                writeset=writeset,
                origin_replica="origin",
                conflict_free_back_to=0,
            )
        )
    return infos


def _make_replica(index: int) -> Database:
    db = Database(
        f"replica-{index}",
        synchronous_commit=True,
        log_device=ThrottledLogDevice(PROP_FSYNC_MS),
    )
    db.create_table("bench", ["id", "balance"])
    return db


def _run_leg(label: str, policy: FlushPolicy, num_replicas: int) -> dict:
    """Propagate PROP_WRITESETS writesets to ``num_replicas`` replicas."""
    stream = WritesetStream(policy=policy)
    replicas = [_make_replica(i) for i in range(num_replicas)]
    subscriptions = [stream.subscribe(db.name) for db in replicas]
    infos = _make_infos(PROP_WRITESETS)

    started = time.perf_counter()
    for info in infos:
        # Writesets "arrive" 0.05 ms apart on a synthetic clock so the
        # time-windowed policy has an arrival process to cut against.
        stream.offer(info, now=info.commit_version * 0.05)
    stream.flush()
    for db, subscription in zip(replicas, subscriptions):
        for batch in subscription.poll():
            db.apply_writeset_batch(
                (info.commit_version, info.writeset) for info in batch
            )
    elapsed = time.perf_counter() - started

    total_applies = PROP_WRITESETS * num_replicas
    total_fsyncs = sum(db.fsync_count for db in replicas)
    total_appends = sum(db.wal.stats.records_appended for db in replicas)
    assert all(
        db.remote_writesets_applied == PROP_WRITESETS for db in replicas
    ), "every replica must apply every writeset exactly once"
    return {
        "policy": label,
        "replicas": num_replicas,
        "applies_per_sec": round(total_applies / elapsed, 1),
        "fsyncs_per_writeset": round(total_fsyncs / total_applies, 4),
        "wal_appends_per_writeset": round(total_appends / total_applies, 4),
        "batches_delivered": stream.stats.flushes,
        "mean_batch_size": round(stream.stats.average_batch_size, 2),
    }


def _run_matrix() -> list[dict]:
    legs = [
        ("per-writeset", lambda: ImmediateFlushPolicy()),
        ("batched", lambda: SizeCappedFlushPolicy(PROP_BATCH_SIZE)),
        ("windowed", lambda: TimeWindowFlushPolicy(
            2.0, max_batch=2 * PROP_BATCH_SIZE)),
    ]
    rows = []
    for num_replicas in REPLICA_COUNTS:
        for label, make_policy in legs:
            rows.append(_run_leg(label, make_policy(), num_replicas))
    return rows


def test_propagation_batching_and_emit_bench_json():
    rows = _run_matrix()

    payload = {
        "benchmark": "propagation_batching",
        "python": platform.python_version(),
        "writesets": PROP_WRITESETS,
        "batch_size": PROP_BATCH_SIZE,
        "replica_fsync_ms": PROP_FSYNC_MS,
        "results": rows,
    }
    write_bench_json("BENCH_propagation.json", payload)

    print()
    print(f"Propagation batching: {PROP_WRITESETS} writesets, modeled "
          f"{PROP_FSYNC_MS} ms replica fsync floor")
    print(format_table(
        ["policy", "replicas", "applies_per_sec", "fsyncs_per_writeset",
         "batches_delivered", "mean_batch_size"],
        [{k: row[k] for k in
          ("policy", "replicas", "applies_per_sec", "fsyncs_per_writeset",
           "batches_delivered", "mean_batch_size")}
         for row in rows],
    ))

    by_point = {(row["policy"], row["replicas"]): row for row in rows}
    for num_replicas in REPLICA_COUNTS:
        per_ws = by_point[("per-writeset", num_replicas)]
        batched = by_point[("batched", num_replicas)]
        # Per-writeset propagation pays one fsync and one WAL append per
        # writeset; batching divides both by the batch factor.
        assert per_ws["fsyncs_per_writeset"] == 1.0
        assert batched["fsyncs_per_writeset"] <= 2.0 / PROP_BATCH_SIZE
        # Batching must never lose, at any scale.
        assert batched["applies_per_sec"] > per_ws["applies_per_sec"]

        if num_replicas >= ACCEPTANCE_REPLICAS:
            speedup = batched["applies_per_sec"] / per_ws["applies_per_sec"]
            assert speedup >= SPEEDUP_FLOOR, (
                f"batched propagation only {speedup:.2f}x over per-writeset "
                f"at {num_replicas} replicas (floor {SPEEDUP_FLOOR}x)"
            )
