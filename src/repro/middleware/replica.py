"""A replica: one database instance plus its transparent proxy.

The replica also owns the Tashkent-MW checkpointing duty ("the middleware
periodically asks the database to make a copy") and the bounded-staleness
refresh timer, both of which are driven explicitly by the caller in the
functional path (there is no background thread) and by processes in the
simulated path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.config import SystemKind
from repro.engine.checkpoint import Checkpoint, CheckpointStore
from repro.engine.database import Database
from repro.engine.table import TableSchema
from repro.middleware.proxy import CertifierFrontEnd, TransparentProxy


@dataclass
class ReplicaStats:
    """Per-replica counters exposed to the evaluation harness."""

    checkpoints_taken: int = 0
    #: Refreshes that actually applied at least one missed writeset.
    refreshes: int = 0
    #: Refreshes that found the replica already up to date.  Counted apart
    #: from :attr:`refreshes` so staleness metrics reflect genuine catch-up
    #: work rather than timer firings.
    noop_refreshes: int = 0
    #: Horizon-clamped vacuum passes run through :meth:`Replica.vacuum`.
    vacuum_passes: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class Replica:
    """One database replica and its proxy."""

    def __init__(
        self,
        name: str,
        database: Database,
        certifier: CertifierFrontEnd,
        *,
        system: SystemKind,
        local_certification: bool = True,
        eager_pre_certification: bool = True,
    ) -> None:
        self.name = name
        self.database = database
        self.system = system
        self.proxy = TransparentProxy(
            database,
            certifier,
            system=system,
            replica_name=name,
            local_certification=local_certification,
            eager_pre_certification=eager_pre_certification,
        )
        self.checkpoints = CheckpointStore()
        self.stats = ReplicaStats()

    # -- convenience pass-throughs ------------------------------------------------

    @property
    def replica_version(self) -> int:
        return self.proxy.replica_version.version

    @property
    def fsync_count(self) -> int:
        return self.database.fsync_count

    # -- Tashkent-MW checkpointing --------------------------------------------------

    def take_checkpoint(self) -> Checkpoint:
        """Ask the database for a complete copy (the paper's DUMP DATA)."""
        checkpoint = self.database.dump()
        self.checkpoints.add(checkpoint)
        self.stats.checkpoints_taken += 1
        return checkpoint

    # -- bounded staleness ------------------------------------------------------------

    def refresh(self) -> int:
        """Drain and apply any remote writesets the replica has missed."""
        return self.count_refresh(self.proxy.refresh())

    def count_refresh(self, applied: int) -> int:
        """Count one refresh that applied ``applied`` writesets (the live
        replica drives its proxy's refresh steps itself) and return it."""
        if applied:
            self.stats.refreshes += 1
        else:
            self.stats.noop_refreshes += 1
        return applied

    # -- storage maintenance -----------------------------------------------------------

    def vacuum(self, *, max_rows: int | None = None) -> int:
        """An explicit horizon-clamped vacuum pass (:meth:`TransparentProxy.vacuum`,
        the one the proxy's own maintenance step runs with a row budget)."""
        self.stats.vacuum_passes += 1
        return self.proxy.vacuum(max_rows=max_rows)

    # -- schema management ---------------------------------------------------------------

    def create_table(self, name: str, columns: Iterable[str], primary_key: str = "id") -> None:
        self.database.create_table(name, columns, primary_key)

    def create_table_from_schema(self, schema: TableSchema) -> None:
        self.database.create_table_from_schema(schema)

    def stats_snapshot(self) -> dict[str, object]:
        return {
            "name": self.name,
            "replica_version": self.replica_version,
            "fsyncs": self.fsync_count,
            "database": self.database.stats(),
            "proxy": self.proxy.stats_snapshot(),
            "replica": self.stats.as_dict(),
        }

    def __repr__(self) -> str:
        return f"Replica(name={self.name!r}, system={self.system.value}, version={self.replica_version})"
