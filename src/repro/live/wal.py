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

File format: one binary record per fsync group, written with one
``write``, one ``flush`` and one ``os.fsync``; every integer is big-endian::

    record = length:u32 | check:u16 | crc:u32 | body      (10-byte header)
    body   = seq:u32 | (size:u32 | payload)*

``length`` is the body's size; ``check`` is the CRC-16 (``binascii.crc_hqx``)
of the four length bytes, so a reader can trust the length before the body
is there; ``crc`` is the CRC-32 of the length bytes and the body.  ``seq``
counts the file's groups from 1 (the shard numbers them; one group may hold
several shipped batches); the payloads follow, raw, each behind its size.
So a file holds at most 2**32 - 1 groups: ``encode_record`` raises
``struct.error`` beyond that, and the device fails loudly instead of
wrapping the count.

Torn versus corrupt.  A kill mid-write (before the fsync covering it) can
leave only a *short* final record: a partial header, or a header whose
check holds and whose body is short.  That record was never acknowledged,
so the scheduler still holds its batches and will resend; replay discards
it *and truncates it away* before the file is reopened for append
(appending after it would bury it mid-file).  Anything else that does not
decode was fsynced and acknowledged: a length whose check fails (even one
pointing past the end of the file), a full-length record whose CRC fails,
or a body whose sizes do not add up.  Replay then raises
:class:`~repro.errors.RecoveryError` naming the file and byte offset and
truncates nothing, instead of cutting every acknowledged group after it.
One reader, :func:`_intact_batches`, serves the shard's replay, its
``wal_read``, promotion and :func:`read_wal_batches`; ``repro-cluster
decode <file.wal>`` prints what it reads.
"""

from __future__ import annotations

import binascii
import functools
import os
import struct
import sys
import time
import traceback
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.core.group_commit import GroupCommitStats
from repro.errors import RecoveryError, ReproError
from repro.live.wire import WireClient


_U32 = struct.Struct(">I")
#: A record's header: body length, the length's CRC-16, the record's CRC-32.
_HEADER = struct.Struct(">IHI")


def _length_check(length: bytes) -> int:
    return binascii.crc_hqx(length, 0xFFFF)


def encode_record(seq: int, payloads: list[bytes]) -> bytes:
    """One fsync group's record, as the module docstring lays it out."""
    parts = [_U32.pack(seq)]
    for payload in payloads:
        parts += (_U32.pack(len(payload)), payload)
    body = b"".join(parts)
    length = _U32.pack(len(body))
    return _HEADER.pack(len(body), _length_check(length),
                        zlib.crc32(body, zlib.crc32(length))) + body


class BatchWalFile:
    """The shard process's append-only WAL file, one record per fsync group."""

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
        torn tail so new appends start at a record boundary.
        """
        if not self.path.exists():
            return
        good_end = 0
        for entry, length in _intact_batches(self.path):
            good_end += length
            self.last_seq = max(self.last_seq, entry["seq"])
            self.batches += 1
            self.records += len(entry["payloads"])
        torn = self.path.stat().st_size - good_end
        if torn > 0:
            # Reopening in append mode without this would bury the torn record
            # mid-file, where the next replay refuses it as corruption.
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
        """Durably append shipped batches as ONE record with ONE fsync.

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
        self._file.write(encode_record(self.last_seq + 1, fresh))
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
    """A WAL file's decoded groups — ``{"seq", "payloads"}`` — with their
    on-disk length, up to a torn final record (a partial header, or a
    checked header whose body is short: never acknowledged, so it will be
    resent).  Any other record that does not decode raises
    ``RecoveryError`` naming the file and the record's byte offset."""
    offset = 0
    with open(path, "rb") as handle:
        while header := handle.read(_HEADER.size):
            if len(header) < _HEADER.size:
                return
            length, check, crc = _HEADER.unpack(header)
            if check != _length_check(header[:4]):
                raise _corrupt(path, offset, "its length fails its check")
            body = handle.read(length)
            if len(body) < length:
                return
            if zlib.crc32(body, zlib.crc32(header[:4])) != crc:
                raise _corrupt(path, offset, "its CRC-32 does not match")
            try:
                entry = _decode_body(body)
            except (struct.error, ValueError) as exc:
                raise _corrupt(path, offset, "its payload sizes do not add up") from exc
            yield entry, _HEADER.size + length
            offset += _HEADER.size + length


def _decode_body(body: bytes) -> dict:
    (seq,) = _U32.unpack_from(body)
    payloads = []
    at = _U32.size
    while at < len(body):
        (size,) = _U32.unpack_from(body, at)
        at += _U32.size + size
        if at > len(body):
            raise ValueError("payload runs past the record")
        payloads.append(body[at - size:at])
    return {"seq": seq, "payloads": payloads}


def _corrupt(path: Path, offset: int, why: str) -> RecoveryError:
    return RecoveryError(f"{path}: corrupt WAL record at byte offset {offset} "
                         f"({why}); nothing truncated")


def read_wal_batches(path: str | Path) -> list[dict]:
    """Parse a shard WAL file into its applied batches (crash-test oracle)."""
    path = Path(path)
    return [entry for entry, _ in _intact_batches(path)] if path.exists() else []


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
    numbered by the record offset it ends at — on a posting
    :class:`~repro.live.wire.WireClient` and returns, so any number of
    batches can be on their way.  The owner's event loop (given to
    :meth:`read_on` before the first ``ship``) reads the acknowledgements
    and runs the ``on_durable`` callbacks, so the device has one thread and
    no lock, and there is no blocking wait: what waits for a batch is its
    callback.  After a lost connection the client re-dials and resends every
    unacknowledged batch in order.  A dead shard stalls the stream in that
    loop rather than failing it: the certifier has already admitted the
    transactions it carries.  The harness restarts killed nodes on their
    original port; the shard drops resends by offset.  A batch the shard
    *refuses* (it would leave a hole in the log) is different: no resend can
    heal that, so the device is ``failed`` from then on — ``ship`` raises,
    and ``on_failure(error)`` tells the owner.
    """

    def __init__(self, host: str, port: int, *, shard_id: int = 0,
                 attempt_timeout_s: float = 2.0, start_seq: int = 0,
                 on_failure: Callable[[ReproError], None] | None = None) -> None:
        self.shard_id = shard_id
        self._client = WireClient(host, port, timeout=attempt_timeout_s,
                                  name=f"wal-{shard_id}")
        self._pending: list[bytes] = []
        #: Records shipped so far.  A promoted standby starts at the shard's
        #: record count, so its batches continue the log instead of being
        #: swallowed as the dead primary's resends.
        self._offset = start_seq
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
        runs on the loop once the shard has acknowledged the fsync covering
        it, after every earlier batch's.  Nothing pending: nothing sent."""
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

    def _acknowledged(self, batch: _Shipped, ack: dict) -> None:
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
                if batch.on_durable is not None:
                    batch.on_durable()
        except Exception:  # noqa: BLE001 - the loop must keep reading acks
            traceback.print_exc(file=sys.stderr)

    def read_on(self, loop) -> None:
        """``loop`` reads the acknowledgements and runs the ``on_durable``
        callbacks; call before the first :meth:`ship`."""
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
