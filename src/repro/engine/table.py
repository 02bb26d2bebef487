"""Tables: schema, primary keys and versioned rows.

A :class:`Table` owns the :class:`~repro.engine.rows.VersionedRow` chains for
its primary keys and validates column names on writes.  It exposes
snapshot-versioned reads and commit-versioned installs; transactional
buffering, locking and writeset extraction live above it in
:mod:`repro.engine.database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.stats import MvccStats
from repro.engine.rows import RowVersion, VersionedRow
from repro.errors import DuplicateKeyError, StorageError


@dataclass(frozen=True)
class TableSchema:
    """Schema of a replicated table."""

    name: str
    columns: tuple[str, ...]
    primary_key: str = "id"

    def __post_init__(self) -> None:
        if not self.name:
            raise StorageError("table name must not be empty")
        if not self.columns:
            raise StorageError("a table needs at least one column")
        if self.primary_key not in self.columns:
            raise StorageError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        if len(set(self.columns)) != len(self.columns):
            raise StorageError(f"duplicate column names in table {self.name!r}")

    def validate_values(self, values: Mapping[str, object], *, partial: bool) -> None:
        """Check that ``values`` only references known columns.

        ``partial=False`` additionally requires every column to be present
        (inserts); updates may touch any subset of non-key columns.
        """
        unknown = set(values) - set(self.columns)
        if unknown:
            raise StorageError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        if not partial:
            missing = set(self.columns) - set(values)
            if missing:
                raise StorageError(
                    f"missing column(s) {sorted(missing)} for table {self.name!r}"
                )


class Table:
    """A versioned table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[object, VersionedRow] = {}
        # Dead-version candidate index: the keys whose chains could yield
        # something to a future vacuum (superseded history or a deleted
        # head).  A dict doubles as an insertion-ordered set, keeping
        # incremental vacuum deterministic under a row-visit budget.
        self._dead_candidates: dict[object, None] = {}
        self.versions_installed = 0
        self.versions_reclaimed = 0
        self.rows_dropped = 0
        self.vacuum_runs = 0
        self.vacuum_rows_visited = 0

    @property
    def name(self) -> str:
        return self.schema.name

    # -- committed-state mutation (called by the database at commit) ---------

    def install_insert(self, key: object, values: Mapping[str, object],
                       commit_version: int) -> None:
        """Install a committed insert."""
        self.schema.validate_values(values, partial=False)
        row = self._rows.get(key)
        if row is not None and row.latest() is not None and row.latest().deleted_version is None:
            raise DuplicateKeyError(
                f"duplicate key {key!r} in table {self.name!r}"
            )
        if row is None:
            row = VersionedRow(key)
            self._rows[key] = row
        # Committed values are immutable from here on: install by reference
        # (no dict copy on the hot remote-apply path); reads copy on exit.
        row.install(RowVersion(created_version=commit_version, values=values))
        self._note_installed(key, row)

    def install_update(self, key: object, values: Mapping[str, object],
                       commit_version: int) -> None:
        """Install a committed update (merging with the previous version)."""
        self.schema.validate_values(values, partial=True)
        row = self._rows.get(key)
        latest = row.latest() if row is not None else None
        if row is None or latest is None or latest.deleted_version is not None:
            # Replicated writesets may update a row the replica has never
            # seen inserted (e.g. after recovery from an older dump): treat
            # the update as an upsert so replay is idempotent.
            base: dict[str, object] = {self.schema.primary_key: key}
            base.update(values)
            if row is None:
                row = VersionedRow(key)
                self._rows[key] = row
            row.install(RowVersion(created_version=commit_version, values=base))
            self._note_installed(key, row)
            return
        merged = dict(latest.values)
        merged.update(values)
        row.install(RowVersion(created_version=commit_version, values=merged))
        self._note_installed(key, row)

    def install_delete(self, key: object, commit_version: int) -> None:
        """Install a committed delete."""
        row = self._rows.get(key)
        if row is None or row.latest() is None:
            # Idempotent for writeset replay.
            return
        if row.latest().deleted_version is not None:
            return
        row.delete(commit_version)
        self._dead_candidates[key] = None

    def _note_installed(self, key: object, row: VersionedRow) -> None:
        self.versions_installed += 1
        if row.has_reclaimable_potential:
            self._dead_candidates[key] = None

    # -- snapshot reads -------------------------------------------------------

    def read(self, key: object, snapshot_version: int) -> Mapping[str, object] | None:
        """Read the row visible to ``snapshot_version`` (``None`` if absent)."""
        row = self._rows.get(key)
        if row is None:
            return None
        version = row.version_for_snapshot(snapshot_version)
        return None if version is None else dict(version.values)

    def exists(self, key: object, snapshot_version: int) -> bool:
        row = self._rows.get(key)
        return row is not None and row.exists_at(snapshot_version)

    def last_modified_version(self, key: object) -> int:
        """Commit version that last touched ``key`` (0 if never)."""
        row = self._rows.get(key)
        return 0 if row is None else row.last_modified_version

    def scan(self, snapshot_version: int) -> Iterator[tuple[object, Mapping[str, object]]]:
        """Iterate all rows visible to ``snapshot_version`` (key order)."""
        for key in sorted(self._rows, key=repr):
            values = self.read(key, snapshot_version)
            if values is not None:
                yield key, values

    def count(self, snapshot_version: int) -> int:
        return sum(1 for _ in self.scan(snapshot_version))

    def keys(self) -> Iterable[object]:
        """All keys ever seen (including deleted ones)."""
        return self._rows.keys()

    # -- maintenance ----------------------------------------------------------

    def vacuum(self, oldest_active_snapshot: int, *,
               max_rows: int | None = None) -> int:
        """Garbage-collect row versions no active snapshot can see.

        Incremental: only rows in the dead-version candidate index are
        visited (never the whole table), and at most ``max_rows`` of them
        per call.  Rows still holding reclaimable history above the horizon
        stay in the index for the next pass; rows whose entire chain died
        are dropped from the key map so churned keys do not accumulate.
        Returns the number of versions reclaimed.
        """
        removed = 0
        visited = 0
        retained: list[object] = []
        candidates = self._dead_candidates
        while candidates and (max_rows is None or visited < max_rows):
            key, _ = candidates.popitem()
            row = self._rows.get(key)
            if row is None:
                continue
            visited += 1
            removed += row.vacuum(oldest_active_snapshot)
            if row.version_count() == 0:
                del self._rows[key]
                self.rows_dropped += 1
            elif row.has_reclaimable_potential:
                retained.append(key)
        for key in retained:
            candidates[key] = None
        self.vacuum_runs += 1
        self.vacuum_rows_visited += visited
        self.versions_reclaimed += removed
        return removed

    def dead_candidate_count(self) -> int:
        """Rows the next vacuum pass would consider (candidate-index size)."""
        return len(self._dead_candidates)

    def mvcc_stats(self, *, include_chains: bool = True) -> MvccStats:
        """Typed MVCC snapshot for this table.

        ``include_chains=False`` skips the O(rows) chain-length histogram
        and reports counters and gauges only.
        """
        stats = MvccStats(
            versions_installed=self.versions_installed,
            versions_reclaimed=self.versions_reclaimed,
            rows_dropped=self.rows_dropped,
            vacuum_runs=self.vacuum_runs,
            vacuum_rows_visited=self.vacuum_rows_visited,
            live_rows=len(self._rows),
            dead_candidates=len(self._dead_candidates),
        )
        if include_chains:
            for row in self._rows.values():
                length = row.version_count()
                stats.max_chain_length = max(stats.max_chain_length, length)
                stats.chain_histogram[length] = (
                    stats.chain_histogram.get(length, 0) + 1)
        return stats

    def snapshot_state(self, snapshot_version: int) -> dict[object, dict[str, object]]:
        """Materialise the table contents at ``snapshot_version`` (for dumps)."""
        return {key: dict(values) for key, values in self.scan(snapshot_version)}

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Table(name={self.name!r}, rows={len(self._rows)})"
