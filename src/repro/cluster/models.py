"""Common scaffolding for the simulated system models.

A :class:`SystemModel` builds the nodes and client processes for one
configuration and implements the system-specific commit path
(:meth:`commit_update`) that the client process calls for every update
transaction.  Subclasses implement exactly the difference the paper
describes between Base, Tashkent-MW and Tashkent-API: what happens between
receiving the certifier's answer and acknowledging the commit to the client.
"""

from __future__ import annotations

import abc
from typing import Generator

from repro.core.certification import CertificationRequest
from repro.core.config import ReplicationConfig, SystemKind
from repro.sim.kernel import Environment
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import RandomStreams
from repro.workloads.spec import TransactionProfile, WorkloadSpec
from repro.cluster.client import client_process
from repro.cluster.nodes import SimCertifierNode, SimReplicaNode


class SystemModel(abc.ABC):
    """Base class for the four simulated systems."""

    #: Set by subclasses: whether replicas use the ordered-commit log writer.
    uses_ordered_commits = False
    #: Flush-time multiplier applied to replicas (see SimReplicaNode).
    ordered_flush_overhead_factor = 1.0

    def __init__(
        self,
        env: Environment,
        config: ReplicationConfig,
        workload: WorkloadSpec,
        rng: RandomStreams,
        metrics: MetricsCollector,
    ) -> None:
        self.env = env
        self.config = config
        self.workload = workload
        self.rng = rng
        self.metrics = metrics
        self.certifier_node = self._build_certifier()
        self.replicas = [
            SimReplicaNode(
                env,
                index,
                config,
                workload,
                rng,
                ordered_flush_overhead_factor=self.ordered_flush_overhead_factor,
            )
            for index in range(config.num_replicas)
        ]
        if self.certifier_node is not None:
            # Every replica joins the log-GC low-water-mark protocol (and the
            # writeset stream) up front so the certifier never prunes records
            # an idle replica still needs (see repro.core.certification), and
            # runs a bounded-staleness process that drains its subscription
            # over the transport — which doubles as the watermark heartbeat,
            # so a read-heavy replica that rarely certifies cannot pin the
            # low-water mark at 0 forever.
            for replica in self.replicas:
                self.certifier_node.register_replica(replica.name)
                env.process(self._staleness_refresh(replica),
                            name=f"{replica.name}-staleness-refresh")

    # -- construction ------------------------------------------------------------

    def _build_certifier(self) -> SimCertifierNode | None:
        if self.config.system is SystemKind.STANDALONE:
            return None
        return SimCertifierNode(
            self.env,
            self.config,
            self.rng,
            durability_enabled=self.config.system.durability_in_certifier,
        )

    def start_clients(self, stop_ms: float) -> None:
        """Spawn ``clients_per_replica`` closed-loop clients pinned to each replica."""
        for replica_index, replica in enumerate(self.replicas):
            for client_index in range(self.config.clients_per_replica):
                self.env.process(
                    client_process(
                        self.env,
                        self,
                        replica,
                        replica_index=replica_index,
                        client_index=client_index,
                        workload=self.workload,
                        rng=self.rng,
                        metrics=self.metrics,
                        stop_ms=stop_ms,
                        think_time_ms=self.workload.think_time_ms,
                    ),
                    name=f"client-{replica_index}-{client_index}",
                )

    # -- the system-specific commit path ----------------------------------------------

    @abc.abstractmethod
    def commit_update(self, replica: SimReplicaNode, profile: TransactionProfile,
                      tx_start_version: int) -> Generator:
        """Process fragment handling the commit of one update transaction.

        Returns ``(committed, abort_reason)``.
        """

    # -- shared protocol fragments ---------------------------------------------------------

    def _certify(self, replica: SimReplicaNode, profile: TransactionProfile,
                 tx_start_version: int, *, check_remote_back_to: int | None = None) -> Generator:
        """Send the writeset to the certifier and wait for its decision."""
        assert self.certifier_node is not None
        request = CertificationRequest(
            tx_start_version=tx_start_version,
            writeset=profile.writeset,
            replica_version=replica.replica_version,
            origin_replica=replica.name,
            check_remote_back_to=check_remote_back_to,
        )
        result = yield from self.certifier_node.certify(request)
        return result

    def _staleness_refresh(self, replica: SimReplicaNode) -> Generator:
        """Bounded staleness over the transport (Section 6.2).

        Every ``staleness_bound_ms`` the replica drains its writeset
        subscription: pending batches are delivered with network-modeled
        delay, anything not already applied in-band with a certification
        response is applied (CPU cost plus the system-specific commit, see
        :meth:`_commit_refreshed`), and the replica's applied version is
        reported to the certifier's log-GC low-water-mark protocol.
        """
        assert self.certifier_node is not None
        period = self.config.staleness_bound_ms
        while True:
            yield self.env.timeout(period)
            base_version = replica.replica_version
            remote = yield from self.certifier_node.propagate(
                replica.name, applied_version=base_version,
                extend_horizons=self.config.system.supports_ordered_commit,
                watermark=lambda: replica.replica_version,
            )
            pending = replica.claim_remote(remote)
            if pending:
                yield from self._apply_remote_cpu(replica, len(pending))
                yield from self._commit_refreshed(replica, pending, base_version)
            self.certifier_node.core.note_replica_version(
                replica.name, replica.replica_version
            )

    def _commit_refreshed(self, replica: SimReplicaNode, pending: list,
                          base_version: int) -> Generator:
        """Commit a batch of refreshed remote writesets at the replica.

        ``base_version`` is the replica's watermark before the batch was
        claimed (what the proxy would plan submission against).  Default
        (durability in the database, serial commits — Base): the grouped
        remote transaction costs one synchronous write under the commit
        lock.  Subclasses override to match their commit machinery.
        """
        yield replica.commit_lock.request()
        try:
            yield from replica.disk.fsync()
        finally:
            replica.commit_lock.release()

    def _apply_remote_cpu(self, replica: SimReplicaNode, count: int) -> Generator:
        """Charge the CPU cost of applying ``count`` remote writesets."""
        if count <= 0:
            return 0.0
        cost = self.workload.writeset_apply_cpu_ms * count
        yield from replica.cpu.execute(cost)
        return cost

    # -- reporting --------------------------------------------------------------------------

    def collect_utilization(self) -> dict[str, float]:
        stats: dict[str, float] = {}
        if self.certifier_node is not None:
            stats.update(self.certifier_node.stats())
        cpu_utils = [replica.cpu.utilization() for replica in self.replicas]
        disk_utils = [replica.disk.utilization() for replica in self.replicas]
        stats["replica_mean_cpu_utilization"] = (
            sum(cpu_utils) / len(cpu_utils) if cpu_utils else 0.0
        )
        stats["replica_mean_disk_utilization"] = (
            sum(disk_utils) / len(disk_utils) if disk_utils else 0.0
        )
        stats["replica_total_fsyncs"] = float(
            sum(replica.fsync_count for replica in self.replicas)
        )
        records = [r.records_per_fsync for r in self.replicas if r.fsync_count]
        stats["replica_records_per_fsync"] = (
            sum(records) / len(records) if records else 0.0
        )
        return stats
