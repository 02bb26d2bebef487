"""Engine-level transactions.

An :class:`EngineTransaction` buffers its own writes (its private workspace),
reads through that buffer first and falls back to the snapshot, and records
every modification as a :class:`~repro.core.writeset.WriteItem` so the
writeset can be extracted at commit time — the engine equivalent of the
paper's trigger-based writeset extraction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.writeset import WriteItem, WriteOp, WriteSet
from repro.errors import InvalidTransactionState


class TransactionStatus(str, enum.Enum):
    """Lifecycle of an engine transaction."""

    ACTIVE = "active"
    PREPARED = "prepared"          # ordered commit staged, waiting for its turn
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _BufferedWrite:
    op: WriteOp
    #: Stored by reference and only ever *rebound* (never mutated in place),
    #: so the same mapping can safely back the emitted WriteItem.
    values: Mapping[str, object] = field(default_factory=dict)
    deleted: bool = False


class EngineTransaction:
    """A transaction running inside one database instance."""

    def __init__(self, txn_id: int, snapshot_version: int, *, readonly_hint: bool = False) -> None:
        self.txn_id = txn_id
        self.snapshot_version = snapshot_version
        self.readonly_hint = readonly_hint
        self.status = TransactionStatus.ACTIVE
        self.commit_version: int | None = None
        #: Ordered-commit sequence requested via COMMIT <n> (Tashkent-API).
        self.requested_commit_sequence: int | None = None
        self._writes: dict[tuple[str, object], _BufferedWrite] = {}
        self._write_order: list[WriteItem] = []
        #: The extracted writeset, until the next buffered write: the proxy
        #: extracts at [C1] and the engine's commit must not build a second
        #: copy of the same thing.
        self._writeset: WriteSet | None = None
        self.reads: int = 0
        self.abort_reason: str | None = None

    # -- state checks ----------------------------------------------------------

    def _require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise InvalidTransactionState(
                f"transaction {self.txn_id} is {self.status.value}, not active"
            )

    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE

    @property
    def is_readonly(self) -> bool:
        """True when the transaction has made no modifications (yet)."""
        return not self._writes

    # -- buffered writes ---------------------------------------------------------

    def buffer_insert(self, table: str, key: object, values: Mapping[str, object]) -> WriteItem:
        """Buffer an insert.  ``values`` ownership passes to the transaction:
        the mapping is stored by reference (the buffer never mutates it in
        place — re-updates rebind to a fresh merged dict), so callers on the
        hot apply path can hand over committed writeset values without cloning.
        """
        self._require_active()
        self._writeset = None
        write = _BufferedWrite(op=WriteOp.INSERT, values=values)
        self._writes[(table, key)] = write
        item = WriteItem(table=table, key=key, op=WriteOp.INSERT, values=values)
        self._write_order.append(item)
        return item

    def buffer_update(self, table: str, key: object, values: Mapping[str, object]) -> WriteItem:
        """Buffer an update (same by-reference ownership as :meth:`buffer_insert`)."""
        self._require_active()
        self._writeset = None
        existing = self._writes.get((table, key))
        if existing is not None and not existing.deleted:
            merged = dict(existing.values)
            merged.update(values)
            existing.values = merged
            existing.deleted = False
            if existing.op is WriteOp.INSERT:
                # An update on top of our own insert stays an insert.
                item = WriteItem(table=table, key=key, op=WriteOp.INSERT, values=merged)
            else:
                item = WriteItem(table=table, key=key, op=WriteOp.UPDATE, values=values)
        else:
            self._writes[(table, key)] = _BufferedWrite(op=WriteOp.UPDATE, values=values)
            item = WriteItem(table=table, key=key, op=WriteOp.UPDATE, values=values)
        self._write_order.append(item)
        return item

    def buffer_delete(self, table: str, key: object) -> WriteItem:
        self._require_active()
        self._writeset = None
        self._writes[(table, key)] = _BufferedWrite(op=WriteOp.DELETE, deleted=True)
        item = WriteItem(table=table, key=key, op=WriteOp.DELETE)
        self._write_order.append(item)
        return item

    # -- read-your-own-writes -----------------------------------------------------

    def buffered_read(self, table: str, key: object) -> tuple[bool, Mapping[str, object] | None]:
        """Return ``(hit, values)`` from the private workspace.

        ``hit`` is False when the transaction has not touched the row, in
        which case the caller must read from the snapshot.  A buffered delete
        returns ``(True, None)``.
        """
        write = self._writes.get((table, key))
        if write is None:
            return False, None
        if write.deleted or write.op is WriteOp.DELETE:
            return True, None
        return True, dict(write.values)

    def record_read(self) -> None:
        self.reads += 1

    # -- writeset extraction -------------------------------------------------------

    def extract_writeset(self) -> WriteSet:
        """The writeset capturing this transaction's modifications.

        Collapses multiple writes to the same row into the final effect, in
        first-touch order, which is what the trigger-based extraction in the
        paper produces (new row for INSERT, primary key plus modified columns
        for UPDATE, primary key for DELETE).  Extracted once: repeated calls
        return the same object until another write is buffered.
        """
        if self._writeset is not None:
            return self._writeset
        writeset = WriteSet()
        seen: set[tuple[str, object]] = set()
        for item in self._write_order:
            identity = (item.table, item.key)
            if identity in seen:
                continue
            seen.add(identity)
            final = self._writes[identity]
            if final.deleted or final.op is WriteOp.DELETE:
                writeset.add(WriteItem(table=item.table, key=item.key, op=WriteOp.DELETE))
            else:
                writeset.add(
                    WriteItem(
                        table=item.table,
                        key=item.key,
                        op=final.op,
                        values=final.values,
                    )
                )
        self._writeset = writeset
        return writeset

    def written_items(self) -> frozenset[tuple[str, object]]:
        """Identities of rows written so far (partial writeset, for eager checks)."""
        return frozenset(self._writes)

    # -- terminal transitions --------------------------------------------------------

    def mark_prepared(self, sequence: int) -> None:
        self._require_active()
        self.status = TransactionStatus.PREPARED
        self.requested_commit_sequence = sequence

    def mark_committed(self, commit_version: int) -> None:
        if self.status not in (TransactionStatus.ACTIVE, TransactionStatus.PREPARED):
            raise InvalidTransactionState(
                f"cannot commit transaction {self.txn_id} in state {self.status.value}"
            )
        self.status = TransactionStatus.COMMITTED
        self.commit_version = commit_version

    def mark_aborted(self, reason: str = "abort") -> None:
        if self.status is TransactionStatus.COMMITTED:
            raise InvalidTransactionState(
                f"cannot abort committed transaction {self.txn_id}"
            )
        self.status = TransactionStatus.ABORTED
        self.abort_reason = reason

    def __repr__(self) -> str:
        return (
            f"EngineTransaction(id={self.txn_id}, snapshot={self.snapshot_version}, "
            f"status={self.status.value}, writes={len(self._writes)})"
        )
