"""Factories assembling whole replicated systems.

A :class:`ReplicatedSystem` is a set of replicas (database + proxy), one
certifier service (optionally backed by a Paxos-replicated certifier group)
and helpers to create client sessions, load schemas and data on every
replica, and collect statistics.  The three paper variants are produced by
:func:`build_base_system`, :func:`build_tashkent_mw_system` and
:func:`build_tashkent_api_system`; :func:`build_replicated_system` is the
generic entry point used by the examples and tests.  Clients are pinned, as
in the paper: :meth:`ReplicatedSystem.session` binds one replica for life.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.config import ReplicationConfig, SystemKind
from repro.engine.database import Database
from repro.engine.table import TableSchema
from repro.errors import ConfigurationError
from repro.middleware.certifier import CertifierService
from repro.middleware.client_api import ClientSession
from repro.middleware.replica import Replica
from repro.middleware.sharded_certifier import (
    ShardedCertifierService,
    make_certifier_service,
)


@dataclass
class ReplicatedSystem:
    """A fully assembled replicated database system.

    ``certifier`` is the single :class:`CertifierService` when
    ``config.certifier_shards == 1`` (the paper's design, byte for byte) and
    a :class:`ShardedCertifierService` otherwise; both expose the same
    surface, so everything below is oblivious to the sharding.
    """

    config: ReplicationConfig
    certifier: CertifierService | ShardedCertifierService
    replicas: list[Replica] = field(default_factory=list)

    # -- schema / data management ------------------------------------------------

    def create_table(self, name: str, columns: Iterable[str], primary_key: str = "id") -> None:
        """Create a table on every replica."""
        columns = tuple(columns)
        for replica in self.replicas:
            replica.create_table(name, columns, primary_key)

    def create_tables_from_schemas(self, schemas: Sequence[TableSchema]) -> None:
        for schema in schemas:
            for replica in self.replicas:
                replica.create_table_from_schema(schema)

    def load_initial_data(self, loader: Callable[[ClientSession], None],
                          *, via_replica: int = 0) -> None:
        """Load initial data through one replica; replication propagates it.

        The loader receives a client session on ``via_replica`` and should
        run normal transactions; afterwards every other replica is refreshed
        so all replicas start from the same state.
        """
        session = self.session(via_replica, client_name="loader")
        loader(session)
        self.refresh_all()

    # -- clients ----------------------------------------------------------------------

    def session(self, replica_index: int = 0, *, client_name: str = "client") -> ClientSession:
        """Open a client session against the proxy of ``replica_index``."""
        try:
            replica = self.replicas[replica_index]
        except IndexError:
            raise ConfigurationError(
                f"replica index {replica_index} out of range (have {len(self.replicas)})"
            ) from None
        return ClientSession(replica.proxy, client_name=client_name)

    def sessions_round_robin(self, count: int) -> list[ClientSession]:
        """Open ``count`` sessions spread across replicas round-robin."""
        return [
            self.session(i % len(self.replicas), client_name=f"client-{i}")
            for i in range(count)
        ]

    # -- maintenance ---------------------------------------------------------------------

    def refresh_all(self) -> int:
        """Run the bounded-staleness refresh on every replica."""
        return sum(replica.refresh() for replica in self.replicas)

    def vacuum_all(self, *, max_rows: int | None = None) -> int:
        """One horizon-clamped vacuum pass on every replica (no certifier GC)."""
        return sum(replica.vacuum(max_rows=max_rows) for replica in self.replicas)

    def checkpoint_all(self) -> None:
        """Take a Tashkent-MW recovery checkpoint on every replica."""
        for replica in self.replicas:
            replica.take_checkpoint()

    def replica(self, index: int) -> Replica:
        return self.replicas[index]

    # -- verification / statistics ------------------------------------------------------------

    def replicas_consistent(self) -> bool:
        """True when every up-to-date replica holds identical table contents.

        Replicas are refreshed first so staleness does not count as
        divergence; this is the invariant property tests assert after every
        workload.
        """
        self.refresh_all()
        if len(self.replicas) < 2:
            return True
        reference = self.replicas[0]
        ref_state = {
            name: reference.database.table(name).snapshot_state(reference.database.current_version)
            for name in reference.database.tables
        }
        for replica in self.replicas[1:]:
            for name, expected in ref_state.items():
                actual = replica.database.table(name).snapshot_state(
                    replica.database.current_version
                )
                if actual != expected:
                    return False
        return True

    def total_fsyncs(self) -> dict[str, int]:
        """Synchronous writes per component (the paper's central accounting)."""
        return {
            "certifier": self.certifier.fsync_count,
            "replicas": sum(replica.fsync_count for replica in self.replicas),
        }

    def stats(self) -> dict[str, object]:
        return {
            "system": self.config.system.value,
            "num_replicas": len(self.replicas),
            "certifier": self.certifier.stats(),
            "replicas": [replica.stats_snapshot() for replica in self.replicas],
            "fsyncs": self.total_fsyncs(),
        }

    def __repr__(self) -> str:
        return (
            f"ReplicatedSystem(system={self.config.system.value}, "
            f"replicas={len(self.replicas)}, version={self.certifier.system_version})"
        )


# ---------------------------------------------------------------------------- factories


def build_replicated_system(config: ReplicationConfig) -> ReplicatedSystem:
    """Assemble a replicated system according to ``config``."""
    if config.system is SystemKind.STANDALONE:
        raise ConfigurationError(
            "use repro.engine.Database directly for a standalone database"
        )
    certifier = make_certifier_service(config)
    system = ReplicatedSystem(config=config, certifier=certifier)
    for index in range(config.num_replicas):
        name = f"replica-{index}"
        database = Database(name=name, synchronous_commit=True)
        replica = Replica(
            name,
            database,
            certifier,
            system=config.system,
            local_certification=config.local_certification,
            eager_pre_certification=config.eager_pre_certification,
        )
        system.replicas.append(replica)
    return system


def build_base_system(num_replicas: int = 2, **overrides: object) -> ReplicatedSystem:
    """Base: ordering in the middleware, durability in the database, serial commits."""
    config = ReplicationConfig(system=SystemKind.BASE, num_replicas=num_replicas, **overrides)
    return build_replicated_system(config)


def build_tashkent_mw_system(num_replicas: int = 2, **overrides: object) -> ReplicatedSystem:
    """Tashkent-MW: durability united with ordering in the middleware."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=num_replicas, **overrides)
    return build_replicated_system(config)


def build_tashkent_api_system(num_replicas: int = 2, **overrides: object) -> ReplicatedSystem:
    """Tashkent-API: durability united with ordering in the database (COMMIT <n>)."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_API, num_replicas=num_replicas, **overrides)
    return build_replicated_system(config)
