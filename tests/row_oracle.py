"""The seed's list-based version chain: the oracle the linked chain is checked against.

Before :class:`~repro.engine.rows.VersionedRow` became a singly linked list,
a row kept its versions in a Python list: installs did ``insert(0, ...)``
(an O(chain) memmove) and superseded the head by building a stamped copy.
That layout lives on here, verbatim, as the behavioural reference for reads
and vacuum in the property suite and as the baseline of the row-layout
micro-benchmark (``benchmarks/test_mvcc_vacuum.py``).
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.rows import RowVersion
from repro.errors import StorageError


class LegacyVersionedRow:
    """The seed's list-based version chain, kept as a reference layout.

    Installs do a ``list.insert(0, ...)`` (O(chain) memmove) and supersede
    the head by building a stamped copy — exactly the layout the linked
    chain of :mod:`repro.engine.rows` replaced.  The storage micro-benchmark measures both so the
    structural win is visible independently of the simulation, and the
    property suite uses it as the behavioural oracle for reads and vacuum.
    """

    __slots__ = ("key", "_versions")

    def __init__(self, key: object) -> None:
        self.key = key
        self._versions: list[RowVersion] = []

    def install(self, version: RowVersion) -> None:
        if self._versions:
            head = self._versions[0]
            if head.deleted_version is None:
                if version.created_version <= head.created_version:
                    raise StorageError(
                        "new row version must be newer than the current head"
                    )
                self._versions[0] = head.with_deletion(version.created_version)
        self._versions.insert(0, version)

    def delete(self, deleted_version: int) -> None:
        if not self._versions:
            raise StorageError(f"cannot delete non-existent row {self.key!r}")
        head = self._versions[0]
        if head.deleted_version is not None:
            raise StorageError(f"row {self.key!r} already deleted")
        self._versions[0] = head.with_deletion(deleted_version)

    def version_for_snapshot(self, snapshot_version: int) -> RowVersion | None:
        for version in self._versions:
            if version.visible_to(snapshot_version):
                return version
        return None

    def latest(self) -> RowVersion | None:
        return self._versions[0] if self._versions else None

    def history(self) -> Iterator[RowVersion]:
        return iter(self._versions)

    def version_count(self) -> int:
        return len(self._versions)

    def vacuum(self, oldest_active_snapshot: int) -> int:
        keep: list[RowVersion] = []
        removed = 0
        found_visible = False
        for version in self._versions:
            if not found_visible:
                keep.append(version)
                if version.visible_to(oldest_active_snapshot):
                    found_visible = True
            else:
                removed += 1
        if not found_visible and keep and all(
            v.deleted_version is not None
            and v.deleted_version <= oldest_active_snapshot
            for v in keep
        ):
            removed += len(keep)
            keep = []
        self._versions = keep
        return removed

    def __repr__(self) -> str:
        return f"LegacyVersionedRow(key={self.key!r}, versions={len(self._versions)})"
