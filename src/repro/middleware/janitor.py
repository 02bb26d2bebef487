"""The background maintenance janitor: scheduled vacuum + certifier GC.

The functional stack has no background threads — maintenance, like the
bounded-staleness refresh, is driven explicitly by the caller (tests, the
examples' main loops) or by a simulation process in the cluster model.  The
:class:`MaintenanceJanitor` packages *what* a maintenance tick does and
*when* it is due, so both stacks share one policy object:

* **vacuum** every replica database incrementally (``vacuum_batch_rows``
  candidate rows per pass) down to ``min(local oldest snapshot, certifier
  replication horizon)`` — the certifier's replica low-water mark minus its
  GC headroom, the same boundary its own log GC prunes to;
* **certifier maintenance**: drive log GC (and with it the PR 6 compaction
  machinery behind ``collect_garbage``) on the janitor's cadence instead of
  only piggybacking on request counts.

The cadence (``vacuum_interval_ms``) and batch size are the sweepable knobs
of :class:`~repro.core.config.ReplicationConfig`; the janitor is off by
default (``vacuum_interval_ms=None``).  A replica behind a proxy does not
depend on it: ``TransparentProxy.maintain`` runs the same budgeted
``Database.vacuum`` pass from the commit path, so the janitor's part there is
the wall-clock cadence (a replica that applies nothing) and certifier GC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.stats import JanitorStats
from repro.engine.database import Database
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class JanitorPolicy:
    """When the janitor runs and how much one run may do."""

    #: Milliseconds between maintenance runs.
    vacuum_interval_ms: float = 250.0
    #: Candidate rows one vacuum pass may visit per database (``None`` =
    #: drain the whole dead-version candidate index every run).
    vacuum_batch_rows: int | None = 4096
    #: Whether a run also drives certifier GC/compaction.
    run_certifier_gc: bool = True

    def __post_init__(self) -> None:
        if self.vacuum_interval_ms <= 0:
            raise ConfigurationError("vacuum_interval_ms must be positive")
        if self.vacuum_batch_rows is not None and self.vacuum_batch_rows < 1:
            raise ConfigurationError("vacuum_batch_rows must be >= 1 or None")


class MaintenanceJanitor:
    """Runs scheduled storage maintenance over a set of replica databases.

    ``replication_horizon`` supplies the certifier's safe-to-reclaim
    boundary (see ``CertifierService.replication_horizon``); it may return
    ``None`` for a standalone database, in which case vacuum is clamped by
    local snapshots only.  ``certifier_gc`` is the certifier's
    ``collect_garbage`` (or any zero-argument callable returning records
    pruned); pass ``None`` when there is no certifier to maintain.
    """

    def __init__(
        self,
        databases: Sequence[Database],
        *,
        replication_horizon: Callable[[], int | None] | None = None,
        certifier_gc: Callable[[], int] | None = None,
        policy: JanitorPolicy | None = None,
    ) -> None:
        self.databases = list(databases)
        self._replication_horizon = replication_horizon
        self._certifier_gc = certifier_gc
        self.policy = policy or JanitorPolicy()
        self.stats = JanitorStats()
        self._last_run_ms: float | None = None

    # -- scheduling ----------------------------------------------------------

    def due(self, now_ms: float) -> bool:
        """Whether a maintenance run is due at ``now_ms``."""
        if self._last_run_ms is None:
            return True
        return now_ms - self._last_run_ms >= self.policy.vacuum_interval_ms

    def maybe_run(self, now_ms: float) -> bool:
        """Run maintenance if the cadence says it is due; returns whether it ran."""
        if not self.due(now_ms):
            return False
        self.run_once()
        self._last_run_ms = now_ms
        return True

    # -- one maintenance tick ------------------------------------------------

    def run_once(self) -> dict[str, int]:
        """One maintenance tick: incremental vacuum + certifier GC.

        Returns a summary dict (versions reclaimed, rows visited, certifier
        records pruned); cumulative totals live in :attr:`stats`.
        """
        horizon = (self._replication_horizon()
                   if self._replication_horizon is not None else None)
        reclaimed = 0
        visited = 0
        for database in self.databases:
            visited_before = sum(
                t.vacuum_rows_visited for t in database.tables.values())
            reclaimed += database.vacuum(
                replication_horizon=horizon,
                max_rows=self.policy.vacuum_batch_rows,
            )
            visited += sum(
                t.vacuum_rows_visited for t in database.tables.values()
            ) - visited_before
            self.stats.vacuum_passes += 1
            self.stats.last_horizon = max(self.stats.last_horizon,
                                          database.last_vacuum_horizon)
        pruned = 0
        if self.policy.run_certifier_gc and self._certifier_gc is not None:
            pruned = self._certifier_gc()
            self.stats.certifier_gc_runs += 1
        self.stats.runs += 1
        self.stats.versions_reclaimed += reclaimed
        self.stats.rows_visited += visited
        self.stats.certifier_records_pruned += pruned
        return {
            "versions_reclaimed": reclaimed,
            "rows_visited": visited,
            "certifier_records_pruned": pruned,
        }

    def __repr__(self) -> str:
        return (f"MaintenanceJanitor(databases={len(self.databases)}, "
                f"interval_ms={self.policy.vacuum_interval_ms}, "
                f"runs={self.stats.runs})")
