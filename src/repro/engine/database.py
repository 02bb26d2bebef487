"""The database facade: a standalone snapshot-isolation database.

:class:`Database` ties the pieces together: tables of versioned rows, write
locks, the WAL with group commit, writeset extraction, an ordered-commit API
and checkpointing.  It reproduces the PostgreSQL behaviours the paper relies
on:

* **snapshot isolation** — ``begin`` assigns the latest snapshot; readers
  never block writers and vice versa.
* **first-updater-wins write locks** — the first writer of a row blocks
  competitors; when it commits the competitors abort; when it aborts one of
  them proceeds (Section 8.2).
* **writeset extraction** — ``extract_writeset`` returns exactly what the
  paper's triggers capture.
* **synchronous-commit switch** — ``set_synchronous_commit(False)`` turns a
  commit into an in-memory action (Tashkent-MW replicas).
* **ordered commit** — ``commit_ordered(txn, sequence)`` is the paper's
  ``COMMIT <n>`` API extension: commit records of several transactions can be
  grouped into one flush while their effects become visible strictly in
  sequence order.
* **priority application of remote writesets** — ``apply_writeset`` aborts
  any local transaction whose write lock blocks a certified remote writeset.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.ordering import CommitSequencer
from repro.core.stats import MvccStats
from repro.core.versions import VersionClock
from repro.core.writeset import WriteOp, WriteSet
from repro.engine.checkpoint import Checkpoint
from repro.engine.locks import LockBlockedError, LockManager, LockStatus
from repro.engine.log_device import LogDevice
from repro.engine.table import Table, TableSchema
from repro.engine.transaction import EngineTransaction, TransactionStatus
from repro.engine.wal import WalRecord, WriteAheadLog
from repro.errors import (
    InvalidTransactionState,
    StorageError,
    TransactionAborted,
    UnknownTableError,
    WriteConflictError,
)

#: Alias exported for callers that want to catch any SI violation uniformly.
IsolationError = TransactionAborted


class Database:
    """A standalone multi-version snapshot-isolation database."""

    def __init__(
        self,
        name: str = "db",
        *,
        synchronous_commit: bool = True,
        log_device: LogDevice | None = None,
    ) -> None:
        self.name = name
        self.tables: dict[str, Table] = {}
        self.locks = LockManager()
        self.wal = WriteAheadLog(log_device, synchronous_commit=synchronous_commit)
        self.version_clock = VersionClock()
        self.sequencer = CommitSequencer()
        self._next_txn_id = 1
        self._active: dict[int, EngineTransaction] = {}
        #: Transactions staged via commit_ordered waiting for flush/announce.
        self._staged_ordered: dict[int, EngineTransaction] = {}
        #: Callbacks fired when a transaction is force-aborted (first-updater
        #: -wins or remote-writeset priority) so the middleware can observe it.
        self.abort_listeners: list[Callable[[EngineTransaction, str], None]] = []
        # Statistics
        self.commits = 0
        self.readonly_commits = 0
        self.aborts = 0
        self.forced_aborts = 0
        self.remote_batches_applied = 0
        self.remote_writesets_applied = 0
        self.vacuum_runs = 0
        self.last_vacuum_horizon = 0
        #: Position in ``tables`` where the next budgeted vacuum pass starts.
        self._vacuum_cursor = 0

    # ------------------------------------------------------------------ schema

    def create_table(self, name: str, columns: Iterable[str], primary_key: str = "id") -> Table:
        """Create a table; returns the :class:`Table` object."""
        if name in self.tables:
            raise StorageError(f"table {name!r} already exists")
        schema = TableSchema(name=name, columns=tuple(columns), primary_key=primary_key)
        table = Table(schema)
        self.tables[name] = table
        return table

    def create_table_from_schema(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise StorageError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    # ------------------------------------------------------------------ config

    def set_synchronous_commit(self, enabled: bool) -> None:
        """Enable or disable synchronous WAL writes on commit."""
        self.wal.set_synchronous_commit(enabled)

    @property
    def synchronous_commit(self) -> bool:
        return self.wal.synchronous_commit

    @property
    def current_version(self) -> int:
        """The database's latest committed snapshot version."""
        return self.version_clock.version

    @property
    def fsync_count(self) -> int:
        """Synchronous writes the WAL has issued (the paper's key metric)."""
        return self.wal.sync_count

    # ------------------------------------------------------------------ lifecycle

    def begin(self, *, readonly_hint: bool = False) -> EngineTransaction:
        """Start a transaction on the latest snapshot."""
        txn = EngineTransaction(
            txn_id=self._next_txn_id,
            snapshot_version=self.current_version,
            readonly_hint=readonly_hint,
        )
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def active_transactions(self) -> list[EngineTransaction]:
        return list(self._active.values())

    def oldest_active_snapshot(self) -> int:
        """Oldest snapshot any active transaction may still read."""
        if not self._active:
            return self.current_version
        return min(txn.snapshot_version for txn in self._active.values())

    # ------------------------------------------------------------------ reads

    def read(self, txn: EngineTransaction, table_name: str, key: object) -> Mapping[str, object] | None:
        """Read a row through the transaction's snapshot (and its own writes)."""
        self._require_known(txn)
        hit, values = txn.buffered_read(table_name, key)
        if hit:
            txn.record_read()
            return values
        table = self.table(table_name)
        txn.record_read()
        return table.read(key, txn.snapshot_version)

    def scan(self, txn: EngineTransaction, table_name: str) -> list[tuple[object, Mapping[str, object]]]:
        """Scan every row visible to the transaction's snapshot."""
        self._require_known(txn)
        table = self.table(table_name)
        rows = []
        for key, values in table.scan(txn.snapshot_version):
            hit, buffered = txn.buffered_read(table_name, key)
            if hit:
                if buffered is not None:
                    rows.append((key, buffered))
            else:
                rows.append((key, values))
        return rows

    # ------------------------------------------------------------------ writes

    def insert(self, txn: EngineTransaction, table_name: str, key: object,
               **values: object) -> None:
        """Insert a row (buffered until commit)."""
        self._buffer_insert(txn, table_name, key, values)

    def update(self, txn: EngineTransaction, table_name: str, key: object,
               **values: object) -> None:
        """Update columns of a row (buffered until commit)."""
        self._buffer_update(txn, table_name, key, values)

    def _buffer_insert(self, txn: EngineTransaction, table_name: str, key: object,
                       values: Mapping[str, object]) -> None:
        """Mapping-taking insert path shared with the remote-apply fast path.

        ``values`` is buffered by reference when it already carries the
        primary key (remote writesets always do — extraction captures the
        full row), so applying a certified writeset clones nothing.
        """
        self._require_known(txn)
        table = self.table(table_name)
        if table.schema.primary_key not in values:
            row_values = dict(values)
            row_values[table.schema.primary_key] = key
            values = row_values
        table.schema.validate_values(values, partial=False)
        self._acquire_write_lock(txn, table_name, key)
        txn.buffer_insert(table_name, key, values)

    def _buffer_update(self, txn: EngineTransaction, table_name: str, key: object,
                       values: Mapping[str, object]) -> None:
        """Mapping-taking update path shared with the remote-apply fast path."""
        self._require_known(txn)
        table = self.table(table_name)
        table.schema.validate_values(values, partial=True)
        self._acquire_write_lock(txn, table_name, key)
        txn.buffer_update(table_name, key, values)

    def delete(self, txn: EngineTransaction, table_name: str, key: object) -> None:
        """Delete a row (buffered until commit)."""
        self._require_known(txn)
        self.table(table_name)
        self._acquire_write_lock(txn, table_name, key)
        txn.buffer_delete(table_name, key)

    def _acquire_write_lock(self, txn: EngineTransaction, table_name: str, key: object) -> None:
        """First-updater-wins: eager write-write conflict detection."""
        table = self.table(table_name)
        last_modified = table.last_modified_version(key)
        if last_modified > txn.snapshot_version:
            # A concurrent transaction already committed a newer version of
            # this row: under SI the later writer must abort.
            self._abort_internal(txn, reason="ww-conflict")
            raise WriteConflictError((table_name, key))
        try:
            status = self.locks.try_acquire(txn.txn_id, (table_name, key))
        except LockBlockedError:
            raise
        except TransactionAborted:
            # Deadlock victim: the lock manager chose the requester.
            self._abort_internal(txn, reason="deadlock")
            raise
        assert status in (LockStatus.GRANTED, LockStatus.ALREADY_HELD)

    # ------------------------------------------------------------------ writeset extraction

    def extract_writeset(self, txn: EngineTransaction) -> WriteSet:
        """Extract the transaction's writeset (the trigger mechanism)."""
        self._require_known(txn, allow_prepared=True)
        return txn.extract_writeset()

    # ------------------------------------------------------------------ commit / abort

    def commit(self, txn: EngineTransaction, *, version: int | None = None) -> int:
        """Commit ``txn``; returns the commit version (0 for read-only).

        ``version`` lets the replication proxy force the database version to
        match the global commit version assigned by the certifier.  Without
        it the local version simply increments.
        """
        self._require_known(txn)
        if txn.is_readonly:
            txn.mark_committed(txn.snapshot_version)
            del self._active[txn.txn_id]
            self.readonly_commits += 1
            return 0

        writeset = txn.extract_writeset()
        commit_version = self._allocate_commit_version(version)
        self._install_writeset(writeset, commit_version)
        self.wal.append(WalRecord(commit_version=commit_version, txn_id=txn.txn_id, writeset=writeset))
        txn.mark_committed(commit_version)
        del self._active[txn.txn_id]
        self._release_locks_after_commit(txn)
        self.commits += 1
        return commit_version

    def commit_ordered(self, txn: EngineTransaction, sequence: int) -> None:
        """Stage ``txn`` for ordered commit at global ``sequence`` (COMMIT <n>).

        The commit record is appended to the WAL without an individual sync;
        the effects become visible only when :meth:`flush_ordered_commits`
        runs and the sequencer reaches ``sequence``.
        """
        self._require_known(txn)
        if txn.is_readonly:
            raise InvalidTransactionState("ordered commit is only meaningful for update transactions")
        writeset = txn.extract_writeset()
        txn.mark_prepared(sequence)

        def announce(ws: WriteSet = writeset, seq: int = sequence, t: EngineTransaction = txn) -> None:
            self._install_writeset(ws, seq)
            self.version_clock.advance_to(max(self.version_clock.version, seq))
            t.mark_committed(seq)
            self._release_locks_after_commit(t)
            self.commits += 1

        self.sequencer.register(sequence, announce)
        self.wal.append(
            WalRecord(commit_version=sequence, txn_id=txn.txn_id, writeset=writeset),
            force_sync=False,
        )
        self._staged_ordered[sequence] = txn
        del self._active[txn.txn_id]

    def flush_ordered_commits(self) -> list[int]:
        """Flush every staged ordered commit with one synchronous write.

        Returns the sequence numbers announced as a result (commits whose
        predecessors are still missing stay durable-but-waiting, exactly like
        the semaphore in the paper's PostgreSQL patch).
        """
        if not self._staged_ordered and self.wal.pending_count == 0:
            return []
        self.wal.flush()
        announced: list[int] = []
        for sequence in sorted(self._staged_ordered):
            announced.extend(self.sequencer.mark_durable(sequence))
        for sequence in announced:
            self._staged_ordered.pop(sequence, None)
        return announced

    def abort(self, txn: EngineTransaction, reason: str = "abort") -> None:
        """Abort ``txn`` and release its locks."""
        if txn.status is TransactionStatus.ABORTED:
            return
        self._require_known(txn)
        self._abort_internal(txn, reason=reason)

    def _abort_internal(self, txn: EngineTransaction, *, reason: str) -> None:
        txn.mark_aborted(reason)
        self._active.pop(txn.txn_id, None)
        self.locks.cancel_wait(txn.txn_id)
        self.locks.release_all(txn.txn_id)
        self.aborts += 1
        for listener in self.abort_listeners:
            listener(txn, reason)

    def _release_locks_after_commit(self, txn: EngineTransaction) -> None:
        """Release locks; competitors that were waiting must abort (SI rule)."""
        promotions = self.locks.release_all(txn.txn_id)
        for _item, waiter_id in promotions:
            waiter = self._active.get(waiter_id)
            if waiter is not None:
                self.forced_aborts += 1
                self._abort_internal(waiter, reason="first-updater-wins")

    def _allocate_commit_version(self, version: int | None) -> int:
        if version is None:
            return self.version_clock.increment()
        return self.version_clock.advance_to(max(version, self.version_clock.version))

    def _install_writeset(self, writeset: WriteSet, commit_version: int) -> None:
        for item in writeset:
            table = self.table(item.table)
            if item.op is WriteOp.INSERT:
                table.install_insert(item.key, item.values, commit_version)
            elif item.op is WriteOp.UPDATE:
                table.install_update(item.key, item.values, commit_version)
            else:
                table.install_delete(item.key, commit_version)

    # ------------------------------------------------------------------ remote writesets

    def apply_writeset(self, writeset: WriteSet, *, version: int | None = None,
                       priority: bool = True) -> int:
        """Apply a certified remote writeset in its own transaction.

        With ``priority=True`` (the default, matching the paper's rule that a
        certified remote transaction "must eventually be permitted to
        commit"), any active local transaction holding a write lock on a row
        the writeset touches is aborted first.
        """
        if priority:
            self.abort_conflicting_transactions(writeset, reason="remote-writeset-priority")
        txn = self.begin()
        try:
            for item in writeset:
                if item.op is WriteOp.INSERT:
                    self._buffer_insert(txn, item.table, item.key, item.values)
                elif item.op is WriteOp.UPDATE:
                    self._buffer_update(txn, item.table, item.key, item.values)
                else:
                    self.delete(txn, item.table, item.key)
        except TransactionAborted:
            # A conflicting *committed* version newer than our snapshot can
            # only appear if versions were applied out of order, which the
            # proxy never does; re-raise for visibility.
            raise
        return self.commit(txn, version=version)

    def apply_writesets_grouped(self, writesets: Iterable[WriteSet], *,
                                version: int | None = None, priority: bool = True) -> int:
        """Apply several remote writesets as one transaction (one commit).

        This is the paper's grouping of remote writesets (T1_2_3): their
        effects are combined and committed with a single disk write.
        """
        combined = WriteSet.union(writesets)
        if combined.is_empty():
            return 0
        return self.apply_writeset(combined, version=version, priority=priority)

    def apply_writeset_batch(self, batch: Iterable[tuple[int, WriteSet]], *,
                             priority: bool = True) -> int:
        """Apply a batch of certified remote writesets (the group-apply path).

        ``batch`` holds ``(commit_version, writeset)`` pairs as delivered by
        the transport layer's :class:`~repro.transport.stream.WritesetStream`.
        Each writeset is installed at its *own* global commit version — so
        snapshot readers observe the original commit order, unlike
        :meth:`apply_writesets_grouped` which collapses the batch onto one
        version — but the whole batch costs a single version-clock advance
        and a single WAL append (hence at most one synchronous write).

        Certification guarantees the writesets committed in version order
        without SI conflicts, which is what makes the direct install safe:
        no locks are taken; with ``priority`` (the paper's rule that a
        certified remote transaction must eventually commit) any active
        local transaction holding a write lock on a touched row is aborted
        first.

        Per-version granularity applies to *live* snapshots only: the WAL
        carries one combined record at the batch's highest version, so crash
        recovery restores the batch atomically at that version — the same
        recovery granularity as :meth:`apply_writesets_grouped` (the durable
        copy of the individual versions is the certifier's log).

        Returns the number of writesets applied.
        """
        pairs = sorted(batch, key=lambda pair: pair[0])
        pairs = [(version, ws) for version, ws in pairs if not ws.is_empty()]
        if not pairs:
            return 0
        # The priority sweep only matters while local transactions hold
        # write locks; an idle replica (the common case on the apply path)
        # skips it entirely.
        sweep_conflicts = priority and self._active
        for commit_version, writeset in pairs:
            if sweep_conflicts:
                self.abort_conflicting_transactions(
                    writeset, reason="remote-writeset-priority"
                )
            self._install_writeset(writeset, commit_version)
        max_version = pairs[-1][0]
        self.version_clock.advance_to(max(max_version, self.version_clock.version))
        if len(pairs) == 1:
            combined = pairs[0][1]
        else:
            combined = WriteSet.union(ws for _version, ws in pairs)
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        self.wal.append(
            WalRecord(commit_version=max_version, txn_id=txn_id, writeset=combined)
        )
        # One logical commit of the grouped remote transaction (T1_2_3),
        # matching the accounting of the transactional grouped-apply path.
        self.commits += 1
        self.remote_batches_applied += 1
        self.remote_writesets_applied += len(pairs)
        return len(pairs)

    def abort_conflicting_transactions(self, writeset: WriteSet, *, reason: str) -> list[int]:
        """Abort active local transactions holding locks the writeset needs."""
        aborted: list[int] = []
        for item in writeset:
            holder_id = self.locks.holder_of((item.table, item.key))
            if holder_id is None:
                continue
            holder = self._active.get(holder_id)
            if holder is not None:
                self.forced_aborts += 1
                self._abort_internal(holder, reason=reason)
                aborted.append(holder_id)
        return aborted

    # ------------------------------------------------------------------ checkpoints / crash

    def dump(self) -> Checkpoint:
        """Produce a complete copy of the database at the current version."""
        return Checkpoint.capture(self.name, self.current_version, self.tables)

    @classmethod
    def restore(cls, checkpoint: Checkpoint, *, synchronous_commit: bool = True,
                log_device: LogDevice | None = None) -> "Database":
        """Rebuild a database from a checkpoint."""
        checkpoint.validate()
        db = cls(checkpoint.database_name, synchronous_commit=synchronous_commit,
                 log_device=log_device)
        for schema in checkpoint.schemas:
            db.create_table_from_schema(schema)
        restore_version = max(checkpoint.version, 1)
        for table_name, rows in checkpoint.table_states.items():
            table = db.table(table_name)
            for key, values in rows.items():
                table.install_insert(key, values, restore_version)
        db.version_clock.advance_to(checkpoint.version)
        db.sequencer.announced_version = checkpoint.version
        return db

    def simulate_crash(self) -> int:
        """Crash the database: active transactions and unflushed WAL are lost.

        Returns the number of WAL records lost.  The object remains usable
        only as a source of durable state for recovery (see
        :mod:`repro.engine.recovery`).
        """
        for txn in list(self._active.values()):
            self._abort_internal(txn, reason="crash")
        self._staged_ordered.clear()
        return self.wal.simulate_crash()

    # ------------------------------------------------------------------ maintenance

    def vacuum(self, *, replication_horizon: int | None = None,
               max_rows: int | None = None) -> int:
        """Garbage-collect row versions no reader can still request.

        The horizon is the *minimum* of the local oldest active snapshot and
        the supplied ``replication_horizon`` (the certifier's replica
        low-water mark): a vacuum must never reclaim a version that a lagging
        replica, a resubscribing replica or a recovering reader could still
        ask this replica to serve.  ``max_rows`` bounds the candidate rows
        visited across all tables, making the pass incremental.  A pass that
        runs out of budget is resumed by the next one at the table after the
        one that used it up, so a table with more candidates than the budget
        cannot starve the tables behind it.  Returns versions reclaimed.
        """
        horizon = self.oldest_active_snapshot()
        if replication_horizon is not None:
            horizon = min(horizon, replication_horizon)
        self.last_vacuum_horizon = horizon
        reclaimed = 0
        budget = max_rows
        tables = list(self.tables.values())
        for offset in range(len(tables)):
            if budget is not None and budget <= 0:
                break
            position = (self._vacuum_cursor + offset) % len(tables)
            table = tables[position]
            visited_before = table.vacuum_rows_visited
            reclaimed += table.vacuum(horizon, max_rows=budget)
            if budget is not None:
                budget -= table.vacuum_rows_visited - visited_before
                if budget <= 0:
                    self._vacuum_cursor = position + 1
        self.vacuum_runs += 1
        return reclaimed

    def mvcc_stats(self, *, include_chains: bool = True) -> "MvccStats":
        """Typed MVCC snapshot aggregated over all tables."""
        stats = MvccStats()
        for table in self.tables.values():
            stats.merge(table.mvcc_stats(include_chains=include_chains))
        return stats

    def dead_candidate_count(self) -> int:
        """Rows the next vacuum pass would consider, across all tables."""
        return sum(table.dead_candidate_count() for table in self.tables.values())

    def row_count(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "version": self.current_version,
            "commits": self.commits,
            "readonly_commits": self.readonly_commits,
            "aborts": self.aborts,
            "forced_aborts": self.forced_aborts,
            "remote_batches_applied": self.remote_batches_applied,
            "remote_writesets_applied": self.remote_writesets_applied,
            "fsyncs": self.fsync_count,
            "records_per_sync": self.wal.records_per_sync,
            "active_transactions": len(self._active),
            "tables": {name: len(table) for name, table in self.tables.items()},
            "vacuum_runs": self.vacuum_runs,
            "last_vacuum_horizon": self.last_vacuum_horizon,
            # Counters only; the O(rows) chain histogram stays opt-in via
            # Database.mvcc_stats(include_chains=True).
            "mvcc": self.mvcc_stats(include_chains=False).as_dict(),
        }

    # ------------------------------------------------------------------ helpers

    def _require_known(self, txn: EngineTransaction, *, allow_prepared: bool = False) -> None:
        if txn.status is TransactionStatus.ACTIVE:
            if txn.txn_id not in self._active:
                raise InvalidTransactionState(
                    f"transaction {txn.txn_id} does not belong to database {self.name!r}"
                )
            return
        if allow_prepared and txn.status is TransactionStatus.PREPARED:
            return
        raise InvalidTransactionState(
            f"transaction {txn.txn_id} is {txn.status.value}"
        )

    def __repr__(self) -> str:
        return (
            f"Database(name={self.name!r}, version={self.current_version}, "
            f"tables={len(self.tables)}, active={len(self._active)})"
        )
