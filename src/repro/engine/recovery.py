"""Engine crash recovery.

Two procedures are provided, matching Section 7 of the paper:

* :func:`recover_from_wal` — the standalone / Base / Tashkent-API path: the
  database redoes every durable committed transaction found in its own WAL,
  starting from the latest checkpoint record if one exists.  Transactions
  whose commit records never reached the disk are lost *from the database's
  point of view*; the replication proxy re-applies them from the certifier's
  log afterwards.

* :func:`recover_from_checkpoint` — the Tashkent-MW path: the replica's WAL
  was running without synchronous writes, so its contents cannot be trusted;
  the database is rebuilt from the most recent valid dump and the middleware
  then replays remote writesets from the certifier's log to catch up.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.checkpoint import Checkpoint, CheckpointStore
from repro.engine.database import Database
from repro.engine.log_device import LogDevice
from repro.engine.table import TableSchema
from repro.engine.wal import WalRecord, WriteAheadLog


def recover_from_wal(
    wal: WriteAheadLog,
    schemas: Iterable[TableSchema],
    *,
    database_name: str = "db",
    base_checkpoint: Checkpoint | None = None,
    synchronous_commit: bool = True,
    log_device: LogDevice | None = None,
) -> Database:
    """Rebuild a database by redoing the durable records of ``wal``.

    ``base_checkpoint`` (optional) provides the starting state; only records
    with a commit version greater than the checkpoint version are redone.
    Returns the recovered database, whose version equals the highest durable
    commit version.
    """
    if base_checkpoint is not None:
        db = Database.restore(
            base_checkpoint,
            synchronous_commit=synchronous_commit,
            log_device=log_device,
        )
        start_version = base_checkpoint.version
    else:
        db = Database(database_name, synchronous_commit=synchronous_commit,
                      log_device=log_device)
        for schema in schemas:
            db.create_table_from_schema(schema)
        start_version = 0

    redone = 0
    for record in wal.records_for_recovery(after_version=start_version):
        _redo(db, record)
        redone += 1
    if redone == 0 and db.current_version == 0 and start_version == 0:
        # Nothing durable: the database restarts empty at version 0, which is
        # a valid (if ancient) consistent prefix of the certifier's log.
        pass
    db.sequencer.announced_version = db.current_version
    return db


def _redo(db: Database, record: WalRecord) -> None:
    """Redo one WAL record idempotently."""
    if record.is_checkpoint:
        return
    if record.commit_version <= db.current_version:
        return  # Already reflected (idempotent replay).
    db.apply_writeset(record.writeset, version=record.commit_version, priority=False)


def recover_from_checkpoint(
    store: CheckpointStore,
    *,
    synchronous_commit: bool = False,
    log_device: LogDevice | None = None,
) -> Database:
    """Rebuild a Tashkent-MW replica database from its most recent valid dump.

    Raises :class:`RecoveryError` when neither of the retained dumps
    validates (both copies corrupt), which in the paper's design cannot
    happen because a new dump only replaces the older copy once complete.
    """
    checkpoint = store.latest_valid()
    return Database.restore(
        checkpoint,
        synchronous_commit=synchronous_commit,
        log_device=log_device,
    )


def verify_same_state(left: Database, right: Database) -> bool:
    """Structural equality of the latest committed state of two databases.

    Used by tests and by the fault-tolerance examples to check that a
    recovered replica converged to the same state as a healthy one.
    """
    if set(left.tables) != set(right.tables):
        return False
    for name in left.tables:
        left_state = left.table(name).snapshot_state(left.current_version)
        right_state = right.table(name).snapshot_state(right.current_version)
        if left_state != right_state:
            return False
    return True
