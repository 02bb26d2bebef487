"""Multi-version row storage.

Every row is a chain of :class:`RowVersion` objects.  A version is visible to
a transaction whose snapshot version is ``s`` when it was created at or
before ``s`` and either never deleted or deleted strictly after ``s``.  This
is the standard SI visibility rule and is what lets read-only transactions
run against an immutable snapshot while update transactions commit new
versions concurrently.

The chain is kept **newest-first as a singly linked list** (each version
holds an ``older`` pointer).  Installing a committed version is O(1): the
previous head is stamped with its ``deleted_version`` in place (the
xmax-equivalent) and the new version becomes the head — no list shifting, no
copying.  Snapshot lookups start at the head and terminate on the first
visible version, so reads at recent snapshots never pay for history length.
Vacuum cuts the chain below the newest version visible to the oldest
snapshot any reader (local or replicated) can still hold, and drops fully
dead chains outright so churned keys do not accumulate.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import StorageError


class RowVersion:
    """One committed version of a row.

    ``created_version`` is the database version whose commit created this
    row image (the xmin-equivalent); ``deleted_version`` is the version
    whose commit deleted or superseded it (the xmax-equivalent, ``None``
    while the version is live).  ``older`` links to the previous version of
    the same row, newest-first.

    ``values`` is stored by reference: committed writeset values are never
    mutated after install, so the hot apply path installs them without
    cloning.  Readers that hand values out (``Table.read``) copy on the way
    out instead.
    """

    __slots__ = ("created_version", "values", "deleted_version", "older")

    def __init__(self, created_version: int, values: Mapping[str, object],
                 deleted_version: int | None = None,
                 older: "RowVersion | None" = None) -> None:
        self.created_version = created_version
        self.values = values
        self.deleted_version = deleted_version
        self.older = older

    def visible_to(self, snapshot_version: int) -> bool:
        """SI visibility: created at/before the snapshot, not yet deleted then."""
        if self.created_version > snapshot_version:
            return False
        if self.deleted_version is None:
            return True
        return self.deleted_version > snapshot_version

    def with_deletion(self, deleted_version: int) -> "RowVersion":
        """Return a copy of this version marked as superseded."""
        if self.deleted_version is not None:
            raise StorageError("row version already superseded")
        return RowVersion(
            created_version=self.created_version,
            values=self.values,
            deleted_version=deleted_version,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowVersion):
            return NotImplemented
        return (self.created_version == other.created_version
                and self.deleted_version == other.deleted_version
                and dict(self.values) == dict(other.values))

    def __hash__(self) -> int:
        return hash((self.created_version, self.deleted_version))

    def __repr__(self) -> str:
        return (f"RowVersion(created_version={self.created_version!r}, "
                f"values={self.values!r}, "
                f"deleted_version={self.deleted_version!r})")


class VersionedRow:
    """The full version chain for one primary key.

    Versions are kept newest-first so snapshot lookups usually terminate on
    the first element.  The chain never loses history during normal
    operation; garbage collection of versions no snapshot can see is exposed
    separately (:meth:`vacuum`) because the replication middleware relies on
    old snapshots staying readable while remote writesets are applied.
    """

    __slots__ = ("key", "_head", "_length")

    def __init__(self, key: object) -> None:
        self.key = key
        self._head: RowVersion | None = None
        self._length = 0

    # -- mutation (called with the table's commit version) -------------------

    def install(self, version: RowVersion) -> None:
        """Install a new committed version, superseding the current head.

        O(1): the old head is stamped in place and linked below the new one.
        """
        head = self._head
        if head is not None and head.deleted_version is None:
            if version.created_version <= head.created_version:
                raise StorageError(
                    "new row version must be newer than the current head"
                )
            head.deleted_version = version.created_version
        version.older = head
        self._head = version
        self._length += 1

    def delete(self, deleted_version: int) -> None:
        """Mark the current head as deleted at ``deleted_version``."""
        head = self._head
        if head is None:
            raise StorageError(f"cannot delete non-existent row {self.key!r}")
        if head.deleted_version is not None:
            raise StorageError(f"row {self.key!r} already deleted")
        head.deleted_version = deleted_version

    # -- reads ---------------------------------------------------------------

    def version_for_snapshot(self, snapshot_version: int) -> RowVersion | None:
        """The version visible to ``snapshot_version``, or ``None``."""
        version = self._head
        while version is not None:
            if version.visible_to(snapshot_version):
                return version
            version = version.older
        return None

    def latest(self) -> RowVersion | None:
        """The newest committed version regardless of deletion."""
        return self._head

    def exists_at(self, snapshot_version: int) -> bool:
        return self.version_for_snapshot(snapshot_version) is not None

    @property
    def last_modified_version(self) -> int:
        """The commit version that last touched this row (0 if never)."""
        head = self._head
        if head is None:
            return 0
        if head.deleted_version is not None:
            return head.deleted_version
        return head.created_version

    def history(self) -> Iterator[RowVersion]:
        """Iterate versions newest-first (diagnostics and tests)."""
        version = self._head
        while version is not None:
            yield version
            version = version.older

    def version_count(self) -> int:
        return self._length

    @property
    def has_reclaimable_potential(self) -> bool:
        """Whether a future vacuum could reclaim anything from this chain.

        True when the chain holds more than one version (superseded history)
        or its head is a deletion stamp (the whole chain dies once the
        horizon passes it).  Tables use this to maintain the dead-version
        candidate index so vacuum never visits clean rows.
        """
        head = self._head
        return self._length > 1 or (head is not None
                                    and head.deleted_version is not None)

    # -- maintenance ---------------------------------------------------------

    def vacuum(self, oldest_active_snapshot: int) -> int:
        """Drop versions invisible to every snapshot >= ``oldest_active_snapshot``.

        Returns the number of versions removed.  The newest version visible
        to ``oldest_active_snapshot`` is always retained; everything below
        it is unreachable by any current or future snapshot and is cut off.
        A chain whose every version is already deleted at or below the
        horizon is dead in its entirety and is dropped whole (the table
        removes the emptied row from its key map).
        """
        version = self._head
        while version is not None:
            if version.visible_to(oldest_active_snapshot):
                removed = 0
                dead = version.older
                while dead is not None:
                    removed += 1
                    dead = dead.older
                version.older = None
                self._length -= removed
                return removed
            version = version.older
        # No version is visible at the horizon.  Versions created after the
        # horizon are visible to newer snapshots and must stay; only a chain
        # that is dead end to end (every version superseded/deleted at or
        # below the horizon) can be reclaimed.
        version = self._head
        while version is not None:
            if (version.deleted_version is None
                    or version.deleted_version > oldest_active_snapshot):
                return 0
            version = version.older
        removed = self._length
        self._head = None
        self._length = 0
        return removed

    def __repr__(self) -> str:
        return f"VersionedRow(key={self.key!r}, versions={self._length})"
