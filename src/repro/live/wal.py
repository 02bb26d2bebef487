"""File-backed WAL for live certifier-shard nodes, and its remote device.

A certifier-shard process owns one append-only WAL file.  The scheduler's
certifier service writes through a :class:`RemoteWalDevice` — a drop-in
:class:`~repro.engine.log_device.LogDevice` whose ``sync()`` ships the
pending payloads to the shard process, which appends them to the file,
``os.fsync``\\ s, and acknowledges.  The decision for a transaction is only
released once that acknowledgement arrives, so live commits are gated on a
real disk write in a different OS process — exactly the deployment shape of
the paper's certifier log.

Idempotent re-append
====================

A ``kill -9`` can land between the shard's fsync and its acknowledgement;
the scheduler then resends the batch to the restarted process.  Every sync
batch therefore carries a per-device monotonically increasing ``seq``, and
the WAL file records it with the batch: on restart the node replays the file
to find the highest applied ``seq`` and acknowledges (without re-writing)
any batch at or below it.  The file ends up with each batch exactly once no
matter where the kill landed — the invariant the crash tests assert.

File format: one JSON line per batch — ``{"seq": n, "payloads": [hex...]}``.
A torn final line (kill mid-write, before the fsync covering it) is
discarded on replay *and truncated away* before the file is reopened for
append; its batch was never acknowledged, so the scheduler still holds it
and will resend.  The truncation matters: appending after a stale torn
line would leave garbage mid-file that a *second* crash's replay stops at,
silently dropping every later batch and resetting ``last_seq`` so resent
duplicates are re-accepted.
"""

from __future__ import annotations

import binascii
import json
import os
import time
from pathlib import Path
from typing import Iterator

from repro.live.wire import WireClient


class BatchWalFile:
    """The shard process's append-only, batch-sequenced WAL file."""

    def __init__(self, path: str | Path, *, fsync_floor_ms: float = 0.0) -> None:
        self.path = Path(path)
        #: Wall-clock floor on one ``append_batch`` (write + fsync).  Container
        #: filesystems complete fsync in ~0.1 ms; the floor emulates the
        #: paper's measured disk (~8 ms per fsync) so wall-clock benchmarks
        #: see the fsync-bound regime group commit exists to amortize.
        self.fsync_floor_ms = fsync_floor_ms
        self.last_seq = 0
        self.batches = 0
        self.records = 0
        self.duplicate_batches_skipped = 0
        self.torn_bytes_truncated = 0
        self._replay()
        self._file = open(self.path, "ab")

    def _replay(self) -> None:
        """Scan the existing file for the highest applied batch seq, and
        truncate any torn tail so new appends start at a clean line boundary.
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
            # drop every batch appended after it.
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
        if seq <= self.last_seq:
            self.duplicate_batches_skipped += 1
            return False  # no write happens, so no floor applies either
        started = time.perf_counter()
        entry = {"seq": seq, "payloads": [binascii.hexlify(p).decode() for p in payloads]}
        self._file.write(json.dumps(entry, separators=(",", ":")).encode() + b"\n")
        self._file.flush()
        os.fsync(self._file.fileno())
        if self.fsync_floor_ms > 0:
            shortfall = self.fsync_floor_ms / 1000.0 - (time.perf_counter() - started)
            if shortfall > 0:
                time.sleep(shortfall)
        self.last_seq = seq
        self.batches += 1
        self.records += len(payloads)
        return True

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


class RemoteWalDevice:
    """A :class:`LogDevice` whose syncs land on a certifier-shard process.

    ``append`` buffers payloads locally; ``sync`` ships them as one
    sequence-numbered batch and blocks until the shard process acknowledges
    the fsync.  A dead shard process stalls the sync in a reconnect/resend
    loop rather than failing it: the certifier has already admitted the
    transaction by the time it flushes, so giving up would strand a decision
    that is half-made.  The harness restarts killed nodes on their original
    port; the resend is deduplicated by ``seq`` on the other side.
    """

    def __init__(self, host: str, port: int, *, shard_id: int = 0,
                 attempt_timeout_s: float = 2.0, start_seq: int = 0) -> None:
        self.shard_id = shard_id
        self._client = WireClient(host, port, timeout=attempt_timeout_s,
                                  name=f"wal-{shard_id}")
        self._pending: list[bytes] = []
        #: First batch goes out as ``start_seq + 1``.  A promoted standby
        #: passes the shard's current ``last_seq`` here so its appends are
        #: not swallowed by the seq-dedupe protecting the dead primary's
        #: resends.
        self._seq = start_seq
        self._sync_count = 0
        self._bytes_written = 0
        self.resent_batches = 0
        #: Cumulative wall-clock seconds from sending a batch to reading its
        #: acknowledgement — the shard round trip including its fsync.  Over
        #: ``sync_count``: the flush latency the group-commit batcher amortises.
        self.sync_wait_s = 0.0

    # -- LogDevice interface --------------------------------------------------

    def append(self, payload: bytes) -> None:
        self._pending.append(payload)
        self._bytes_written += len(payload)

    def sync(self) -> None:
        self.begin_sync()
        self.finish_sync()

    def begin_sync(self) -> None:
        """``sync``, first half: put the pending batch on the wire, so
        :func:`~repro.engine.log_device.sync_all` can have every touched
        shard fsyncing at once."""
        self._sync_started = time.perf_counter()
        self._seq += 1
        # Count actual resends (a call retried after its frame may have
        # reached the shard), not clean reconnects of an idle connection.
        self._resends_before = self._client.resends
        self._client.begin_call(
            "wal_append", seq=self._seq,
            payloads=[binascii.hexlify(p).decode() for p in self._pending])

    def finish_sync(self, *, resend: bool = True) -> bool:
        """``sync``, second half: wait for the shard's acknowledgement and
        return whether it arrived.  ``resend=False`` gives up (``False``) on
        a lost connection; a later ``finish_sync()`` enters the resend loop."""
        if self._client.finish_call(resend=resend) is None:
            return False
        if self._client.resends > self._resends_before:
            self.resent_batches += 1
        self._pending.clear()
        self._sync_count += 1
        self.sync_wait_s += time.perf_counter() - self._sync_started
        return True

    def wire_stats(self) -> dict[str, int | float]:
        return {"shard_id": self.shard_id,
                "sync_wait_s": round(self.sync_wait_s, 6),
                **self._client.stats()}

    @property
    def sync_count(self) -> int:
        return self._sync_count

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def close(self) -> None:
        self._client.close()
