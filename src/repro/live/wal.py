"""File-backed WAL for live certifier-shard nodes, and its remote device.

A certifier-shard process owns one append-only WAL file.  The scheduler's
certifier service writes through a :class:`RemoteWalDevice` — a streaming
:class:`~repro.engine.log_device.LogDevice` whose ``ship()`` sends the
pending payloads to the shard process and returns; the shard's log writer
appends whatever has arrived to the file, ``os.fsync``\\ s, and acknowledges.
The decision for a transaction is only released once the acknowledgements
cover it, so live commits are gated on a real disk write in a different OS
process — exactly the deployment shape of the paper's certifier log — while
the next round is already being certified.

Idempotent re-append
====================

A ``kill -9`` can land between the shard's fsync and its acknowledgement;
the scheduler then resends every unacknowledged batch, in order, to the
restarted process.  Every shipped batch therefore carries as its ``seq`` the
**record offset** its last payload lands on (payloads shipped so far on that
device), and the shard knows how many records its file holds — on restart it
replays the file to count them — so a batch at or below that offset is
acknowledged without being written again.  The file ends up with each record
exactly once no matter where the kill landed — the invariant the crash tests
assert.

File format: one JSON line per fsync group — ``{"seq": n, "payloads":
[hex...]}``, ``n`` counting the file's lines from 1 (the shard numbers them;
one group may hold several shipped batches).  A torn final line (kill
mid-write, before the fsync covering it) is discarded on replay *and
truncated away* before the file is reopened for append; none of its batches
was acknowledged, so the scheduler still holds them and will resend.  The
truncation matters: appending after a stale torn line would leave garbage
mid-file that a *second* crash's replay stops at, silently dropping every
later group and resetting the record count so resent duplicates are
re-accepted.
"""

from __future__ import annotations

import binascii
import functools
import json
import os
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.core.group_commit import GroupCommitStats
from repro.errors import ReproError
from repro.live.wire import WireClient


class BatchWalFile:
    """The shard process's append-only WAL file, one line per fsync group."""

    def __init__(self, path: str | Path, *, fsync_floor_ms: float = 0.0) -> None:
        self.path = Path(path)
        #: Wall-clock floor on one group (write + fsync).  Container
        #: filesystems complete fsync in ~0.1 ms; the floor emulates the
        #: paper's measured disk (~8 ms per fsync) so wall-clock benchmarks
        #: see the fsync-bound regime group commit exists to amortize.
        self.fsync_floor_ms = fsync_floor_ms
        self.last_seq = 0
        self.batches = 0
        #: Payloads in the file — the record offset resends are judged by.
        self.records = 0
        self.duplicate_batches_skipped = 0
        self.torn_bytes_truncated = 0
        #: Records per group, and seconds spent writing (floor included).
        self.group_sizes = GroupCommitStats()
        self.writer_busy_s = 0.0
        self._replay()
        self._file = open(self.path, "ab")

    def _replay(self) -> None:
        """Count the existing file's groups and records, and truncate any
        torn tail so new appends start at a clean line boundary.
        """
        if not self.path.exists():
            return
        good_end = 0
        for entry, length in _intact_batches(self.path):
            good_end += length
            self.last_seq = max(self.last_seq, int(entry["seq"]))
            self.batches += 1
            self.records += len(entry["payloads"])
        torn = self.path.stat().st_size - good_end
        if torn > 0:
            # Reopening in append mode without this would bury the torn line
            # mid-file; a second crash's replay would stop there and silently
            # drop every group appended after it.
            with open(self.path, "rb+") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
            self._fsync_directory()
            self.torn_bytes_truncated = torn

    def _fsync_directory(self) -> None:
        """Persist the truncation's metadata (size) against a crash."""
        dir_fd = os.open(str(self.path.parent), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def append_batch(self, seq: int, payloads: list[bytes]) -> bool:
        """Durably append one batch; returns False when it was a duplicate."""
        return self.append_group([(seq, payloads)])[0]

    def append_group(self, batches: list[tuple[int, list[bytes]]]) -> list[bool]:
        """Durably append shipped batches as ONE line with ONE fsync.

        Each batch is ``(seq, payloads)``, ``seq`` the record offset its last
        payload lands on.  Taken in order: a batch the file already covers
        (with what precedes it in this group) is a resend and is skipped —
        the returned flags say which were written; one that would leave a
        hole is refused before anything is written.
        """
        started = time.perf_counter()
        offset = self.records
        fresh: list[bytes] = []
        applied = []
        for seq, payloads in batches:
            applied.append(seq > offset)
            if seq > offset:
                if seq != offset + len(payloads):
                    raise ReproError(f"WAL batch ending at record {seq} does not "
                                     f"continue the log at record {offset}")
                fresh += payloads
                offset = seq
            elif payloads:
                self.duplicate_batches_skipped += 1
        if not fresh:
            return applied  # no write happens, so no floor applies either
        entry = {"seq": self.last_seq + 1,
                 "payloads": [binascii.hexlify(p).decode() for p in fresh]}
        self._file.write(json.dumps(entry, separators=(",", ":")).encode() + b"\n")
        self._file.flush()
        os.fsync(self._file.fileno())
        if self.fsync_floor_ms > 0:
            shortfall = self.fsync_floor_ms / 1000.0 - (time.perf_counter() - started)
            if shortfall > 0:
                time.sleep(shortfall)
        self.last_seq += 1
        self.batches += 1
        self.records = offset
        self.group_sizes.record_flush(len(fresh))
        self.writer_busy_s += time.perf_counter() - started
        return applied

    def stats(self) -> dict[str, int]:
        return {
            "last_seq": self.last_seq,
            "batches": self.batches,
            "records": self.records,
            "duplicate_batches_skipped": self.duplicate_batches_skipped,
            "torn_bytes_truncated": self.torn_bytes_truncated,
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def close(self) -> None:
        self._file.close()


def _intact_batches(path: Path) -> Iterator[tuple[dict, int]]:
    """A WAL file's batch lines with their on-disk length, up to the first
    torn or unparsable one (never acknowledged, so it will be resent)."""
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                return
            try:
                yield json.loads(raw), len(raw)
            except ValueError:
                return


def read_wal_batches(path: str | Path) -> list[dict]:
    """Parse a shard WAL file into its applied batches (crash-test oracle)."""
    path = Path(path)
    if not path.exists():
        return []
    return [{"seq": int(entry["seq"]),
             "payloads": [binascii.unhexlify(p) for p in entry["payloads"]]}
            for entry, _ in _intact_batches(path)]


@dataclass(slots=True)
class _Shipped:
    """One shipped, unacknowledged batch of a :class:`RemoteWalDevice`."""

    offset: int  # the record offset it ends at: its wire ``seq``
    on_durable: Callable[[], None] | None
    shipped_at: float
    durable: bool = False


class RemoteWalDevice:
    """A streaming :class:`LogDevice` whose writes land on a certifier-shard
    process.

    ``append`` buffers payloads; ``ship`` posts them as one ``wal_append`` —
    numbered by the record offset it ends at — on a pipelined
    :class:`~repro.live.wire.WireClient` and returns, so any number of
    batches can be on their way; ``sync`` is ship + wait for all of them.
    The client's reader (a thread, or the owner's event loop after
    :meth:`read_on`) delivers the acknowledgements; after a lost connection
    the client re-dials and resends every unacknowledged batch in order.  A
    dead shard stalls the stream in that loop rather than failing it: the
    certifier has already admitted the transactions it carries.  The harness
    restarts killed nodes on their original port; the shard drops resends by
    offset.  A batch the shard *refuses* (it would leave a hole in
    the log) is different: no resend can heal that, so the device is
    ``failed`` from then on — ``ship`` and ``sync`` raise, waiters wake, and
    ``on_failure(error)`` tells the owner.

    All state is guarded by ``lock`` — the owner's (reentrant) service lock
    when given: ``ship``/``sync`` run under it, the reader takes it to run
    the ``on_durable`` callbacks, and ``sync`` waits on it (so never call
    ``sync`` on the thread that reads the acknowledgements).
    """

    def __init__(self, host: str, port: int, *, shard_id: int = 0,
                 attempt_timeout_s: float = 2.0, start_seq: int = 0,
                 lock: "threading.RLock | None" = None,
                 on_failure: Callable[[ReproError], None] | None = None) -> None:
        self.shard_id = shard_id
        self._client = WireClient(host, port, timeout=attempt_timeout_s,
                                  name=f"wal-{shard_id}", pipelined=True)
        self._cond = threading.Condition(lock if lock is not None else threading.RLock())
        self._pending: list[bytes] = []
        #: Records shipped so far, and how many of them are acknowledged.  A
        #: promoted standby starts at the shard's record count, so its
        #: batches continue the log instead of being swallowed as the dead
        #: primary's resends.
        self._offset = self._durable_offset = start_seq
        #: Shipped, unacknowledged batches, oldest first.
        self._unacked: deque[_Shipped] = deque()
        self.failed: ReproError | None = None
        self.on_failure = on_failure
        self._last_group = 0
        self._sync_count = 0
        self._bytes_written = 0
        #: Seconds from shipping a batch to reading its acknowledgement
        #: (queueing behind the write in progress + fsync + wire), summed
        #: over ``calls`` acknowledged batches.
        self.sync_wait_s = 0.0
        self.calls = 0

    # -- LogDevice interface --------------------------------------------------

    def append(self, payload: bytes) -> None:
        self._pending.append(payload)
        self._bytes_written += len(payload)

    def ship(self, on_durable: Callable[[], None] | None = None) -> None:
        """Put the pending payloads on the wire as one batch; ``on_durable``
        runs (under the lock, on the reader's thread) once the shard has
        acknowledged the fsync covering it.  Nothing pending: nothing sent."""
        with self._cond:
            if self.failed is not None:
                raise self.failed
            if not self._pending:
                return
            self._offset += len(self._pending)
            batch = _Shipped(self._offset, on_durable, time.perf_counter())
            self._unacked.append(batch)
            payloads = [binascii.hexlify(p).decode() for p in self._pending]
            self._pending = []
            self._client.post("wal_append", functools.partial(self._acknowledged, batch),
                              seq=batch.offset, payloads=payloads)

    def sync(self) -> None:
        with self._cond:
            self.ship()
            shipped = self._offset  # the owner may keep shipping meanwhile
            self._cond.wait_for(lambda: self._durable_offset >= shipped
                                or self.failed is not None)
            if self.failed is not None:
                raise self.failed

    def _acknowledged(self, batch: _Shipped, ack: dict) -> None:
        with self._cond:
            try:
                if not ack.get("ok", False):
                    self.failed = ReproError(
                        f"certifier shard {self.shard_id} refused the WAL batch "
                        f"ending at record {batch.offset}: {ack.get('error')}")
                    if self.on_failure is not None:
                        self.on_failure(self.failed)
                    return
                if ack.get("group", 0) > self._last_group:
                    # One shard fsync may cover several shipped batches; the
                    # ack names the group it wrote: each fsync counts once.
                    self._last_group = ack["group"]
                    self._sync_count += 1
                batch.durable = True
                self.calls += 1
                self.sync_wait_s += time.perf_counter() - batch.shipped_at
                while self._unacked and self._unacked[0].durable:  # in shipping order
                    batch = self._unacked.popleft()
                    self._durable_offset = batch.offset
                    if batch.on_durable is not None:
                        batch.on_durable()
            except Exception:  # noqa: BLE001 - the reader must keep reading acks
                traceback.print_exc(file=sys.stderr)
            finally:
                self._cond.notify_all()

    def read_on(self, loop) -> None:
        """Have ``loop`` read the acknowledgements (no reader thread): the
        ``on_durable`` callbacks then run on the loop's thread."""
        self._client.read_on(loop)

    @property
    def resent_batches(self) -> int:
        """Batches sent again after their connection died."""
        return self._client.resends

    def wire_stats(self) -> dict[str, int | float]:
        wire = self._client.stats()
        return {"shard_id": self.shard_id, "calls": self.calls,
                "sync_wait_s": round(self.sync_wait_s, 6),
                "reconnects": wire["reconnects"], "resends": wire["resends"],
                "in_flight_high_water": wire["in_flight_high_water"]}

    @property
    def sync_count(self) -> int:
        """Distinct shard fsync groups acknowledged."""
        return self._sync_count

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def close(self) -> None:
        self._client.close()
