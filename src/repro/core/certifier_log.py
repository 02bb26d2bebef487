"""The certifier's log of certified writesets.

The certifier maintains a persistent log recording ``(writeset,
tx_commit_version)`` tuples for every committed update transaction (paper,
Section 6.1).  The log serves three purposes:

* it defines the global total order of update commits,
* it is the durable record that allows the certifier to recover, and
* under Tashkent-MW it is the *only* durable copy of committed updates, so
  replicas recover by replaying a suffix of it.

This module keeps the log as an in-memory structure with an explicit
"durable horizon": records are appended immediately (so certification can
proceed) but only become durable once the group-commit flush completes.  The
persistence itself (real file or simulated disk) is supplied by the caller.

Inverted version index
======================

Every update transaction in the cluster funnels through the certifier, so
the conflict check is the system's single serialized hot path.  The log
therefore maintains an **inverted version index**: for each item identity
``(table, key)`` an ascending list of the commit versions that wrote it.
Certification of a writeset against the window ``(after, up_to]`` becomes
one dict probe plus one binary search per distinct item — an item conflicts
iff some writer version falls inside the window — independent of log length.
The paper's own memoization ("the certifier records for each writeset the
point to where it has been certified and avoids repeated checks",
Section 5.2.1) is kept on top of the index via ``certified_back_to``.

The replica proxy keeps its ``proxy_log`` — the writesets it has applied,
consulted by eager pre-certification and local certification — in this same
class, so there is one index and one pruning routine in the tree.

========================  =======================  =====================
operation                 linear scan (seed)       indexed (this module)
========================  =======================  =====================
``conflicts``             O(window × |ws|)         O(|ws| × log k)
``first_conflicting``     O(window × |ws|)         O(|ws| × log k)
``first_writer``          O(window)                O(log k)
``extend_certification``  O(window × |ws|)         O(|ws| × log k)
``append``                O(1)                     O(|ws|)
``prune_to`` (GC)         —                        O(pruned records)
========================  =======================  =====================

(``k`` is the number of retained versions per item, typically tiny.)

The seed's linear scan lives on outside the library, in
``tests/certifier_log_oracle.py``: the property tests check every query of
this index against it, and the micro-benchmark times it as the baseline.

Garbage collection and the low-water mark
=========================================

The seed log grew without bound.  :meth:`prune_to` discards the durable
prefix up to a **low-water mark** — the minimum ``replica_version`` across
connected replicas (minus a configurable headroom for in-flight
transactions), fed by :class:`repro.core.certification.Certifier` — because
no replica will ever again ask for those records and no live transaction
started below that version.  Physical truncation is transparent to the
version-based API: ``record_at`` / ``records_between`` / ``replay`` apply
the base offset internally.  Reads that genuinely reference pruned records
raise :class:`repro.errors.LogPrunedError`; conflict *checks* whose window
starts below the horizon conservatively report a conflict (the GSI
equivalent of "snapshot too old" — aborting is always safe).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.core.writeset import WriteSet
from repro.errors import ConfigurationError, LogPrunedError

@dataclass(frozen=True)
class LogRecord:
    """One certified update transaction."""

    commit_version: int
    writeset: WriteSet
    #: Replica that originated the transaction (diagnostics / filtering).
    origin_replica: str = "unknown"
    #: How far back this writeset has been intersection-tested.  Initially
    #: the transaction's effective start version; Tashkent-API may extend the
    #: test further back on behalf of a replica (Section 5.2.1).
    certified_back_to: int = 0

    def size_bytes(self) -> int:
        return self.writeset.size_bytes() + 16


class CertifierLog:
    """Append-only log of certified writesets, indexed by commit version.

    Commit versions are dense and start at 1.  After garbage collection the
    retained records start at ``pruned_version + 1``; record lookups apply
    the offset internally so callers keep addressing records by commit
    version.  The log also tracks ``durable_version`` — the highest commit
    version whose record has been flushed to stable storage — which the
    certifier advances after each group flush.  Only durable records may be
    pruned (a crash must never lose the tail we still might truncate to).
    """

    def __init__(self, *, base_version: int = 0) -> None:
        if base_version < 0:
            raise ConfigurationError("base_version must be non-negative")
        self._records: list[LogRecord] = []
        #: All commit versions <= _base_version have been garbage collected.
        self._base_version = base_version
        self._durable_version = base_version
        #: Mutable extension horizon per commit version, updated when the
        #: certifier performs additional intersection testing for a replica.
        self._certified_back_to: dict[int, int] = {}
        #: Inverted version index: item identity -> ascending commit versions
        #: that wrote it.
        self._item_versions: dict[tuple[str, object], list[int]] = {}
        self._pruned_records_total = 0

    # -- append / flush ----------------------------------------------------

    def append(self, record: LogRecord) -> None:
        """Append a record; its commit version must be the next in sequence."""
        expected = self._base_version + len(self._records) + 1
        if record.commit_version != expected:
            raise ConfigurationError(
                f"log append out of order: expected version {expected}, "
                f"got {record.commit_version}"
            )
        self._records.append(record)
        self._certified_back_to[record.commit_version] = record.certified_back_to
        version = record.commit_version
        index = self._item_versions
        for item_id in record.writeset.iter_item_ids():
            index.setdefault(item_id, []).append(version)

    def mark_durable(self, up_to_version: int) -> None:
        """Advance the durable horizon after a successful flush."""
        if up_to_version < self._durable_version:
            raise ConfigurationError("durable horizon cannot move backwards")
        if up_to_version > self.last_version:
            raise ConfigurationError("cannot mark unwritten records durable")
        self._durable_version = up_to_version

    # -- queries -----------------------------------------------------------

    @property
    def last_version(self) -> int:
        """Highest appended commit version (0 when the log is empty)."""
        return self._base_version + len(self._records)

    @property
    def durable_version(self) -> int:
        """Highest commit version known to be on stable storage."""
        return self._durable_version

    @property
    def pruned_version(self) -> int:
        """Highest commit version discarded by garbage collection."""
        return self._base_version

    @property
    def retained_count(self) -> int:
        """Number of records currently held in memory."""
        return len(self._records)

    @property
    def pruned_records_total(self) -> int:
        """Cumulative number of records discarded by :meth:`prune_to`."""
        return self._pruned_records_total

    @property
    def index_item_count(self) -> int:
        """Number of distinct item identities in the inverted index."""
        return len(self._item_versions)

    @property
    def pending_flush_count(self) -> int:
        """Number of appended records not yet durable."""
        return self.last_version - self._durable_version

    def record_at(self, commit_version: int) -> LogRecord:
        """Return the record that created ``commit_version``."""
        if not 1 <= commit_version <= self.last_version:
            raise KeyError(f"no log record for version {commit_version}")
        if commit_version <= self._base_version:
            raise LogPrunedError(commit_version - 1, self._base_version)
        return self._records[commit_version - self._base_version - 1]

    def records_between(self, after_version: int, up_to_version: int) -> list[LogRecord]:
        """Records with ``after_version < commit_version <= up_to_version``.

        This is exactly the set of "remote writesets the replica has not
        received yet" returned by the certifier to a replica whose
        ``replica_version`` is ``after_version``.  Raises
        :class:`LogPrunedError` when the window reaches below the GC horizon.
        """
        if up_to_version > self.last_version:
            up_to_version = self.last_version
        if after_version >= up_to_version:
            return []
        if after_version < self._base_version:
            raise LogPrunedError(after_version, self._base_version)
        base = self._base_version
        return self._records[after_version - base:up_to_version - base]

    def records_after(self, after_version: int) -> list[LogRecord]:
        """All records with commit version greater than ``after_version``."""
        return self.records_between(after_version, self.last_version)

    # -- conflict checks ---------------------------------------------------

    def conflicts(self, writeset: WriteSet, after_version: int,
                  up_to_version: int | None = None) -> bool:
        """Intersection test against the records in ``(after, up_to]``.

        Returns True when ``writeset`` overlaps any logged writeset committed
        after ``after_version``.  This is the paper's certification check.
        A window starting below the GC horizon conservatively reports a
        conflict ("snapshot too old") because the pruned records can no
        longer be inspected.
        """
        end = self.last_version if up_to_version is None else min(up_to_version, self.last_version)
        if after_version >= end:
            return False
        if after_version < self._base_version:
            return True
        return self._indexed_conflicts(writeset, after_version, end)

    def first_conflicting_version(self, writeset: WriteSet, after_version: int) -> int | None:
        """Commit version of the earliest conflicting record, or ``None``.

        When ``after_version`` lies below the GC horizon the pruned prefix
        cannot be checked; the horizon itself is returned as a conservative
        "may conflict with a pruned record" answer.
        """
        if after_version >= self.last_version:
            return None
        if after_version < self._base_version:
            return self._base_version
        return self._indexed_first_writer(writeset.iter_item_ids(), after_version)

    def first_writer_version(self, table: str, key: object,
                             after_version: int) -> int | None:
        """Commit version of the earliest record after ``after_version`` that
        wrote the row ``(table, key)``, or ``None``.

        The single-item form of :meth:`first_conflicting_version` — one dict
        probe plus one bisect — used by the replica proxy's eager
        pre-certification, which checks each write as it is issued, before
        there is a writeset.  Same conservative answer below the GC horizon.
        """
        if after_version >= self.last_version:
            return None
        if after_version < self._base_version:
            return self._base_version
        return self._indexed_first_writer(((table, key),), after_version)

    def _indexed_conflicts(self, writeset: WriteSet, after_version: int, end: int) -> bool:
        index = self._item_versions
        for item_id in writeset.iter_item_ids():
            versions = index.get(item_id)
            if not versions:
                continue
            position = bisect_right(versions, after_version)
            if position < len(versions) and versions[position] <= end:
                return True
        return False

    def _indexed_first_writer(self, item_ids: Iterable[tuple[str, object]],
                              after_version: int) -> int | None:
        """Earliest indexed writer of any of ``item_ids`` after ``after_version``."""
        index = self._item_versions
        earliest: int | None = None
        for item_id in item_ids:
            versions = index.get(item_id)
            if not versions:
                continue
            position = bisect_right(versions, after_version)
            if position < len(versions):
                version = versions[position]
                if earliest is None or version < earliest:
                    earliest = version
        return earliest

    # -- extended certification bookkeeping (Tashkent-API) ------------------

    def certified_back_to(self, commit_version: int) -> int:
        """How far back the writeset at ``commit_version`` has been tested."""
        return self._certified_back_to.get(commit_version, commit_version - 1)

    def extend_certification(self, commit_version: int, back_to_version: int) -> bool:
        """Extend the intersection test of an already-certified writeset.

        The certifier "records for each writeset the point to where it has
        been (further) certified and avoids repeated checks" (Section 5.2.1).
        Returns True when the writeset is conflict-free back to
        ``back_to_version``, False when a conflict with an earlier record was
        found (in which case the horizon is left unchanged).  A target below
        the GC horizon cannot be vouched for and returns False.
        """
        record = self.record_at(commit_version)
        current = self.certified_back_to(commit_version)
        if back_to_version >= current:
            return True  # Already tested at least that far back.
        if self.conflicts(record.writeset, back_to_version, current):
            return False
        self._certified_back_to[commit_version] = back_to_version
        return True

    # -- garbage collection -------------------------------------------------

    def prune_to(self, low_water_version: int) -> int:
        """Discard records at or below ``low_water_version`` (log GC).

        Only durable records may be pruned; the effective horizon is clamped
        to ``durable_version``.  Index entries and extension horizons for the
        pruned prefix are discarded with the records.  Returns the number of
        records pruned.
        """
        target = min(low_water_version, self._durable_version)
        if target <= self._base_version:
            return 0
        drop = target - self._base_version
        pruned = self._records[:drop]
        del self._records[:drop]
        self._base_version = target
        self._pruned_records_total += drop
        touched: set[tuple[str, object]] = set()
        for record in pruned:
            self._certified_back_to.pop(record.commit_version, None)
            touched.update(record.writeset.iter_item_ids())
        index = self._item_versions
        for item_id in touched:
            versions = index[item_id]
            keep_from = bisect_right(versions, target)
            if keep_from >= len(versions):
                del index[item_id]
            elif keep_from:
                del versions[:keep_from]
        return drop

    # -- persistence helpers -------------------------------------------------

    def total_size_bytes(self) -> int:
        """Approximate size of the retained log (used by the recovery model)."""
        return sum(record.size_bytes() for record in self._records)

    def iter_records(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def replay(self, apply: Callable[[LogRecord], None],
               after_version: int = 0) -> int:
        """Replay the durable suffix of the log through ``apply``.

        Used by certifier recovery and by Tashkent-MW replica recovery.
        Returns the number of records replayed.  Raises
        :class:`LogPrunedError` when ``after_version`` predates the GC
        horizon — the caller must recover from a newer dump or a full state
        transfer instead.
        """
        replayed = 0
        for record in self.records_between(after_version, self._durable_version):
            apply(record)
            replayed += 1
        return replayed

    def truncate_to_durable(self) -> int:
        """Drop records that never became durable (simulating a crash).

        Returns the number of records lost.  All auxiliary state — the
        inverted index and the extension horizons — is kept consistent with
        the surviving records.  Only used by crash-injection tests; during
        normal operation the certifier never truncates.
        """
        cut = self._durable_version - self._base_version
        lost_records = self._records[cut:]
        del self._records[cut:]
        touched: set[tuple[str, object]] = set()
        for record in lost_records:
            self._certified_back_to.pop(record.commit_version, None)
            touched.update(record.writeset.iter_item_ids())
        index = self._item_versions
        for item_id in touched:
            versions = index[item_id]
            keep_to = bisect_left(versions, self._durable_version + 1)
            if keep_to == 0:
                del index[item_id]
            else:
                del versions[keep_to:]
        return len(lost_records)

    @classmethod
    def from_records(cls, records: Iterable[LogRecord],
                     durable: bool = True) -> "CertifierLog":
        """Rebuild a log from records (certifier state-transfer recovery).

        The records may be the retained suffix of a pruned log: the base
        offset is inferred from the first record's commit version, so a
        recovering certifier can be seeded from a peer that has already
        garbage-collected its prefix.
        """
        iterator = iter(records)
        first = next(iterator, None)
        base = 0 if first is None else first.commit_version - 1
        log = cls(base_version=base)
        if first is not None:
            log.append(first)
            for record in iterator:
                log.append(record)
        if durable:
            log.mark_durable(log.last_version)
        return log

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"CertifierLog(last={self.last_version}, "
            f"durable={self._durable_version}, pruned={self._base_version})"
        )
