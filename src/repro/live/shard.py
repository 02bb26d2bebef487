"""The ``certifier-shard`` role: one certification shard's log, beside its disk.

The scheduler's certifier service gates every commit decision on this
process's acknowledgements, so killing it mid-flush is a genuine
durability-path fault.  Fault points: ``--wedge-before-sync`` /
``--wedge-after-sync`` freeze the node around the fsync of its Nth group — the
``pre-flush`` (decision unreleased, nothing durable) and ``mid-flush``
(durable but unacknowledged) crash points of ``tests/faults.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import binascii
import functools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.live.server import ASYNC, Op, Reply, Role, freeze
from repro.live.wal import BatchWalFile, read_wal_batches


def _call(callback, *args) -> None:
    callback(*args)


#: A thread hand-off costs the shard two wake-ups per group and buys
#: decoding the next frames while the disk is busy.  Measured: at the
#: paper's 8 ms disk it pays (``allupdates_fsync8`` p50 17.2 → 16.5 ms); on
#: a container filesystem (fsync 0.15 ms idle, 1-1.5 ms beside the replicas'
#: own logs) it only costs CPU, and half the groups flapped across a 1 ms
#: line.  The line is drawn between the two regimes.
_HANDOFF_WORTH_S = 0.004


class CertifierShardRole(Role):
    """Durable WAL server for one certification shard: the group-commit log
    writer, beside the disk.

    The event loop reads and decodes ``wal_append`` frames and queues their
    batches; whenever the disk is free *everything queued* is written as one
    WAL record with one fsync and the covered batches are acknowledged — under
    load the disk never idles and group size = arrivals per fsync (the
    paper's single log writer).  Where the write runs follows the disk as
    observed: while the previous write took under :data:`_HANDOFF_WORTH_S`
    the loop writes inline, once it has decoded everything it read in this
    pass (what arrived during the previous write rides together); once a
    write outlasts that, a writer thread takes over, so frames keep being
    read and decoded while the disk is busy, and it keeps going until it
    finds nothing queued.  The wedge fault points freeze the whole process
    around the Nth group.
    """

    role_name = "certifier-shard"

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__()
        self.shard_id = args.shard_id
        self.wal = BatchWalFile(args.wal or f"{args.name}.wal",
                                fsync_floor_ms=args.fsync_floor_ms)
        self.wedge_before_sync = args.wedge_before_sync
        self.wedge_after_sync = args.wedge_after_sync
        self.append_ops = 0
        self.append_groups = 0
        #: Batches waiting for the disk — ``(seq, payloads, reply)`` —
        #: and whether somebody (loop or writer thread) is committed to
        #: writing them; both under ``_lock``.
        self._queue: list = []
        self._writing = False
        self._lock = threading.Lock()
        self._slow_disk = False
        self._writer = ThreadPoolExecutor(max_workers=1,
                                          thread_name_prefix="log-writer")
        # The log writer is the one second thread in any node, so this is
        # the one process where the GIL's switch interval matters: at the
        # default 5 ms the loop thread starves a writer that just finished
        # its fsync (observed: a 0.25 ms WAL round trip ballooning to ~4 ms
        # under load).  1 ms keeps the hand-off back prompt at negligible
        # switching cost.
        sys.setswitchinterval(0.001)
        self.queued_high_water = 0

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def _append(self, seq: int, payloads: list[bytes], reply: Reply) -> None:
        with self._lock:
            self._queue.append((seq, payloads, reply))
            self.queued_high_water = max(self.queued_high_water, len(self._queue))
            idle, self._writing = not self._writing, True
        if idle and self._slow_disk:
            self._writer.submit(self._write_queued, self._loop.call_soon_threadsafe)
        elif idle:  # once the frames this loop pass has read are all queued
            self._loop.call_soon(self._write_queued, _call)

    def _write_queued(self, deliver) -> None:
        """Write groups until nothing is queued (loop or writer thread);
        ``deliver(callback, *args)`` runs a callback on the loop."""
        while True:
            with self._lock:
                group, self._queue = self._queue, []
                self._writing = bool(group)
            if not group:
                return
            self.append_groups += 1
            if self.append_groups == self.wedge_before_sync:
                # Nothing written: the group is lost with this process; the
                # scheduler still holds it and resends after the restart.
                return self._loop.call_soon_threadsafe(freeze, "wal_append")
            started = time.perf_counter()
            try:
                result = self.wal.append_group(
                    [(seq, payloads) for seq, payloads, _ in group])
                if any(result):  # a write happened: that is how fast the disk is
                    self._slow_disk = time.perf_counter() - started > _HANDOFF_WORTH_S
            except Exception as exc:  # noqa: BLE001 - answered per batch
                result = exc
            if self.append_groups == self.wedge_after_sync:
                # Durable but unacknowledged: the resends after the restart
                # must be deduplicated by record offset.
                return self._loop.call_soon_threadsafe(freeze, "wal_append")
            deliver(self._acknowledge, group, result, self.wal.last_seq)

    def _acknowledge(self, group, result, group_seq: int) -> None:
        """Answer every batch of a written group (a reply whose connection
        went away is dropped; its resend asks again)."""
        for index, (_, _, reply) in enumerate(group):
            if isinstance(result, Exception):
                reply(result)
            else:
                # ``group`` names the fsync that covered this batch (0: none
                # was needed), so the sender can count fsyncs, not batches.
                reply({"applied": result[index], "group": group_seq if any(result) else 0})

    def wal_append(self, payload: dict, reply: Reply) -> None:
        self.append_ops += 1
        self._append(int(payload["seq"]),
                     [binascii.unhexlify(p) for p in payload["payloads"]], reply)

    def wal_read(self, payload: dict, reply: Reply) -> None:
        """Promotion path: a standby scheduler reads back the applied groups
        to rebuild the certifier; its own batches continue the log at
        ``records``.  An empty batch is acknowledged once everything queued
        ahead of it is on disk, so no group is half-written when the file is
        read."""
        self._append(0, [], functools.partial(self._read_back, reply))

    def _read_back(self, reply: Reply, ack) -> None:
        try:
            answer = ack if isinstance(ack, Exception) else self._wal_contents()
        except Exception as exc:  # noqa: BLE001 - answered; the group's other acks go on
            answer = exc
        reply(answer)

    def _wal_contents(self) -> dict:
        return {
            "last_seq": self.wal.last_seq,
            "records": self.wal.records,
            "batches": [
                {"seq": batch["seq"],
                 "payloads": [binascii.hexlify(p).decode()
                              for p in batch["payloads"]]}
                for batch in read_wal_batches(self.wal.path)
            ],
        }

    def stats(self, payload: dict):
        return {"wal": {**self.wal.stats(),
                        "writer_busy_s": round(self.wal.writer_busy_s, 6),
                        "group_size_histogram": {
                            str(k): v for k, v in sorted(
                                self.wal.group_sizes.batch_size_histogram.items())},
                        "queued_high_water": self.queued_high_water},
                "append_ops": self.append_ops,
                "server": self.server_stats.as_dict()}

    ops = {
        "wal_append": Op(wal_append, ASYNC),
        "wal_read": Op(wal_read, ASYNC),
        "wal_stats": Op(lambda self, _: self.wal.stats()),
        "stats": Op(stats),
        "ping": Op(lambda self, _: {"role": "certifier-shard", "shard_id": self.shard_id}),
    }

    def describe(self) -> dict:
        return {"shard_id": self.shard_id, "wal": str(self.wal.path)}
