"""Write-ahead log with group commit and a synchronous-commit switch.

The WAL records, per committed transaction, the redo information (the
writeset) and a commit record carrying the commit version.  Two properties of
the paper's analysis are modelled explicitly:

* **synchronous vs asynchronous commit** — with synchronous commit enabled
  every commit waits for its record to be durable; disabling it (the paper's
  "disable WAL synchronous writes", used by Tashkent-MW replicas) makes the
  commit an in-memory action and the records are only synced lazily.
* **group commit** — all records pending when the log writer runs are made
  durable by a *single* synchronous write.  The ``sync_count`` of the
  underlying :class:`~repro.engine.log_device.LogDevice` is therefore the
  number of fsyncs, and ``records_per_sync`` is the statistic the paper
  quotes (e.g. 29 writesets per fsync for the Tashkent-MW certifier).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.core.group_commit import GroupCommitBatcher
from repro.core.writeset import WriteItem, WriteOp, WriteSet
from repro.engine.log_device import CountingLogDevice, LogDevice
from repro.errors import RecoveryError


@dataclass(frozen=True)
class WalRecord:
    """One committed transaction's redo record."""

    commit_version: int
    txn_id: int
    writeset: WriteSet
    #: Checkpoint records carry no writeset and mark a recovery starting point.
    is_checkpoint: bool = False

    def to_payload(self) -> bytes:
        """Serialise for the log device (JSON keeps recovery debuggable)."""
        body = {
            "commit_version": self.commit_version,
            "txn_id": self.txn_id,
            "checkpoint": self.is_checkpoint,
            "items": [
                {
                    "table": item.table,
                    "key": item.key,
                    "op": item.op.value,
                    "values": dict(item.values),
                }
                for item in self.writeset
            ],
        }
        return json.dumps(body, sort_keys=True, default=str).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        try:
            body = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RecoveryError(f"corrupt WAL payload: {exc}") from exc
        writeset = WriteSet(
            WriteItem(
                table=item["table"],
                key=item["key"],
                op=WriteOp(item["op"]),
                values=item.get("values", {}),
            )
            for item in body.get("items", [])
        )
        return cls(
            commit_version=body["commit_version"],
            txn_id=body["txn_id"],
            writeset=writeset,
            is_checkpoint=body.get("checkpoint", False),
        )


@dataclass
class WalStats:
    """Counters the evaluation harness reads off the WAL."""

    records_appended: int = 0
    synchronous_commits: int = 0
    asynchronous_commits: int = 0
    #: Records dropped from memory by :meth:`WriteAheadLog.discard_through`.
    records_discarded: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class WriteAheadLog:
    """The engine's write-ahead log."""

    def __init__(self, device: LogDevice | None = None, *, synchronous_commit: bool = True) -> None:
        self.device: LogDevice = device if device is not None else CountingLogDevice()
        self.synchronous_commit = synchronous_commit
        self._batcher: GroupCommitBatcher[WalRecord] = GroupCommitBatcher()
        self._records: list[WalRecord] = []
        self._durable_count = 0
        self.stats = WalStats()

    # -- configuration -----------------------------------------------------------

    def set_synchronous_commit(self, enabled: bool) -> None:
        """The paper's enable/disable switch for WAL synchronous writes."""
        self.synchronous_commit = enabled

    # -- appending ----------------------------------------------------------------

    def append(self, record: WalRecord, *, force_sync: bool | None = None) -> bool:
        """Append a commit record.

        Returns True when the record is durable on return.  With synchronous
        commit enabled (or ``force_sync=True``) the pending batch — this
        record plus anything enqueued earlier — is flushed with one
        synchronous write; otherwise the record merely joins the batch.
        """
        self._records.append(record)
        self._batcher.enqueue(record)
        self.stats.records_appended += 1
        must_sync = self.synchronous_commit if force_sync is None else force_sync
        if must_sync:
            self.flush()
            self.stats.synchronous_commits += 1
            return True
        self.stats.asynchronous_commits += 1
        return False

    def append_many(self, records: Iterable[WalRecord], *, force_sync: bool | None = None) -> bool:
        """Append several records as one group (ordered-commit path)."""
        records = list(records)
        for record in records:
            self._records.append(record)
            self._batcher.enqueue(record)
            self.stats.records_appended += 1
        must_sync = self.synchronous_commit if force_sync is None else force_sync
        if must_sync and records:
            self.flush()
            self.stats.synchronous_commits += len(records)
            return True
        self.stats.asynchronous_commits += len(records)
        return False

    def flush(self) -> list[WalRecord]:
        """Make every pending record durable with a single synchronous write."""
        if not self._batcher.has_pending:
            return []
        batch = self._batcher.take_batch()
        for record in batch:
            self.device.append(record.to_payload())
        self.device.sync()
        self._batcher.complete_batch()
        self._durable_count += len(batch)
        return batch

    # -- interrogation ---------------------------------------------------------------

    @property
    def sync_count(self) -> int:
        """Number of synchronous writes issued so far."""
        return self.device.sync_count

    @property
    def records_per_sync(self) -> float:
        """Average number of commit records per synchronous write."""
        return self._batcher.stats.average_batch_size

    @property
    def durable_records(self) -> list[WalRecord]:
        """Records guaranteed to survive a crash."""
        return self._records[: self._durable_count]

    @property
    def pending_count(self) -> int:
        return self._batcher.pending_count

    @property
    def retained_count(self) -> int:
        """Records currently held in memory (durable and pending)."""
        return len(self._records)

    def last_durable_version(self) -> int:
        """Highest commit version among durable records (0 when none)."""
        durable = self.durable_records
        return max((r.commit_version for r in durable), default=0)

    # -- crash / recovery ---------------------------------------------------------------

    def simulate_crash(self) -> int:
        """Discard records that never reached the device; returns count lost."""
        lost = len(self._records) - self._durable_count
        del self._records[self._durable_count:]
        # Reset the batcher: anything pending is gone.
        self._batcher = GroupCommitBatcher()
        return lost

    def discard_through(self, version: int) -> int:
        """Forget every retained record at or below ``version``.

        For a log nobody will recover from: a Tashkent-MW replica runs with
        synchronous commit off, "its contents cannot be trusted" (Section 7),
        and it is rebuilt from a checkpoint plus the certifier's log — so the
        records it keeps, flushed or still queued, only pin their writesets.
        The append and commit counters keep counting.  Returns the number of
        records dropped.
        """
        def stale(record: WalRecord) -> bool:
            return record.commit_version <= version

        durable = [r for r in self._records[: self._durable_count] if not stale(r)]
        pending = [r for r in self._records[self._durable_count:] if not stale(r)]
        dropped = len(self._records) - len(durable) - len(pending)
        if dropped:
            self._records = durable + pending
            self._durable_count = len(durable)
            self._batcher.drop_pending(stale)
            self.stats.records_discarded += dropped
        return dropped

    def checkpoint(self, commit_version: int) -> None:
        """Write a checkpoint marker (always synchronous)."""
        record = WalRecord(
            commit_version=commit_version,
            txn_id=-1,
            writeset=WriteSet(),
            is_checkpoint=True,
        )
        self.append(record, force_sync=True)

    def records_for_recovery(self, after_version: int = 0) -> list[WalRecord]:
        """Durable, non-checkpoint records with commit version > ``after_version``."""
        return [
            record
            for record in self.durable_records
            if not record.is_checkpoint and record.commit_version > after_version
        ]

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(records={len(self._records)}, durable={self._durable_count}, "
            f"syncs={self.sync_count}, sync_commit={self.synchronous_commit})"
        )
