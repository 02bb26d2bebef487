"""A from-scratch snapshot-isolation MVCC storage engine.

This package plays the role PostgreSQL plays in the paper: a standalone
multi-version database offering snapshot isolation, write locks with
first-updater-wins conflict handling, a write-ahead log with group commit, a
switch to enable or disable synchronous commit writes, writeset-extraction
hooks (the equivalent of the paper's triggers), an ordered-commit API
(``COMMIT <version>``, the paper's 20-line PostgreSQL patch), checkpoint
dumps and crash recovery.  See ``docs/architecture.md`` for the layer map
and the group-apply batch path the transport layer drives.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.engine.database": ["Database", "IsolationError"],
    "repro.engine.locks": ["LockBlockedError", "LockManager", "LockStatus"],
    "repro.engine.log_device": ["CountingLogDevice", "FileLogDevice", "LogDevice"],
    "repro.engine.rows": ["RowVersion", "VersionedRow"],
    "repro.engine.table": ["Table", "TableSchema"],
    "repro.engine.transaction": ["EngineTransaction", "TransactionStatus"],
    "repro.engine.wal": ["WalRecord", "WriteAheadLog"],
    "repro.engine.checkpoint": ["Checkpoint"],
})
