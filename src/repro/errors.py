"""Exception hierarchy shared across the repro packages.

Every layer raises exceptions derived from :class:`ReproError` so callers can
catch library failures without catching unrelated programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class TransactionError(ReproError):
    """Base class for transaction-level failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (conflict, deadlock or explicit abort)."""

    def __init__(self, message: str = "transaction aborted", *, reason: str = "abort") -> None:
        super().__init__(message)
        self.reason = reason


class WriteConflictError(TransactionAborted):
    """A write-write conflict with a committed concurrent transaction."""

    def __init__(self, item: object, message: str | None = None) -> None:
        super().__init__(message or f"write-write conflict on {item!r}", reason="ww-conflict")
        self.item = item


class DeadlockError(TransactionAborted):
    """The lock manager chose this transaction as a deadlock victim."""

    def __init__(self, message: str = "deadlock detected") -> None:
        super().__init__(message, reason="deadlock")


class CertificationAborted(TransactionAborted):
    """The certifier refused to commit the transaction."""

    def __init__(self, message: str = "certification failed") -> None:
        super().__init__(message, reason="certification")


class InvalidTransactionState(TransactionError):
    """An operation was attempted in a state that does not permit it."""


class StorageError(ReproError):
    """Base class for storage engine failures."""


class UnknownTableError(StorageError):
    """A statement referenced a table that does not exist."""


class DuplicateKeyError(StorageError):
    """An insert violated a primary-key constraint."""


class RecoveryError(ReproError):
    """A recovery procedure could not complete."""


class LogPrunedError(ReproError):
    """A certifier-log read referenced records below the GC horizon.

    Raised when a caller asks for records (or a conflict window) that log
    garbage collection has already discarded.  Under the low-water-mark
    protocol this indicates either a protocol violation or a recovering node
    whose dump predates the horizon and therefore needs a full state
    transfer instead of log replay.
    """

    def __init__(self, requested_after: int, pruned_version: int) -> None:
        super().__init__(
            f"log records after version {requested_after} were requested, but "
            f"the log is pruned up to version {pruned_version}"
        )
        self.requested_after = requested_after
        self.pruned_version = pruned_version


class ConsensusError(ReproError):
    """Base class for Paxos / replicated-log failures."""


class NotLeaderError(ConsensusError):
    """A request was sent to a certifier node that is not the current leader."""


class QuorumUnavailableError(ConsensusError):
    """Not enough certifier nodes are up to make progress."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""
