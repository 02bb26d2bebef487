"""The sharded certifier service (functional stack).

Wraps the pure :class:`~repro.core.sharding.ShardedCertifier` with the IO
duties of a certifier deployment, one pipeline *per shard*:

* each shard owns its own log device, its own queue of unshipped records
  and its own :class:`~repro.transport.WritesetStream` — a single-shard transaction
  certifies, flushes and propagates entirely within one shard, with no
  cross-shard coordination;
* durability is a *stream with a frontier*: admitting a round
  (:meth:`ShardedCertifierService.admit_batch`) ships each touched shard's
  records to its device and never waits; a decision is released once the
  global durable frontier covers its commit version — its fragments durable
  on **every** touched shard, and so is everything ordered before it (the
  all-shards-commit half of the merge; the any-shard-aborts half never
  reaches IO — see :meth:`ShardedCertifier.certify_batch
  <repro.core.sharding.ShardedCertifier.certify_batch>`);
* propagation is driven by the global durability frontier: full writesets
  are offered to their *home shard*'s stream in strict global version
  order, and every replica consumes the per-shard streams through one
  :class:`~repro.transport.MergedSubscription`, so the proxy refresh path
  and :meth:`Database.apply_writeset_batch` work unchanged.

The service mirrors the :class:`~repro.middleware.certifier.CertifierService`
surface (``certify`` / ``subscribe_replica`` / ``flush`` / ``stats`` / ...)
— the transparent proxy and the system factories treat the two
interchangeably.  :func:`make_certifier_service`
picks the implementation from ``ReplicationConfig.certifier_shards``; with
one shard the seed service is used, byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Callable, Iterable, Iterator

from repro.core.certification import (
    CertificationRequest,
    CertificationResult,
    RemoteWriteSetInfo,
)
from repro.core.config import ReplicationConfig
from repro.core.group_commit import GroupCommitStats
from repro.core.sharding import ShardedCertifier
from repro.core.stats import (
    CertifierServiceStats,
    merged_group_commit_stats,
)
from repro.engine.log_device import CountingLogDevice, LogDevice, ship
from repro.errors import ConfigurationError, ReproError
from repro.middleware.certifier import (
    GC_INTERVAL_REQUESTS,
    CertifierService,
    gc_headroom,
)
from repro.transport import (
    MergedSubscription,
    WritesetStream,
    publish_frontier,
    subscribe_merged,
)


class ShardedCertifierService:
    """N certification shards behind one certifier-service interface."""

    def __init__(
        self,
        config: ReplicationConfig | None = None,
        *,
        log_devices: list[LogDevice] | None = None,
    ) -> None:
        self.config = config if config is not None else ReplicationConfig()
        shards = self.config.certifier_shards
        if log_devices is not None and len(log_devices) != shards:
            raise ConfigurationError(
                f"need one log device per shard ({shards}), got {len(log_devices)}"
            )
        #: Whether decisions wait for the log write (off only in the
        #: tashAPInoCERT ablation).
        self._durable = self.config.system.durability_in_certifier
        self.gc_headroom_versions = gc_headroom(self.config)
        self._rng = random.Random(self.config.rng_seed)
        self.core = ShardedCertifier(
            shards, forced_abort_rate=self.config.forced_abort_rate,
            abort_chooser=self._rng.random)
        self.devices: list[LogDevice] = (
            list(log_devices) if log_devices is not None
            else [CountingLogDevice() for _ in range(shards)]
        )
        #: Per shard, the admitted records not yet shipped to its device, as
        #: (global, shard-local) versions — and the sizes of its durable batches.
        self._unshipped: list[list[tuple[int, int]]] = [[] for _ in range(shards)]
        self._flush_stats = [GroupCommitStats() for _ in range(shards)]
        #: Told the release cursor (``core.propagated_version``) whenever a
        #: shard's write lands; the live scheduler releases its held
        #: decisions from here.
        self.on_frontier: Callable[[int], None] | None = None
        #: Per-shard outbound propagation channels (home-shard publication).
        self.streams = [WritesetStream() for _ in range(shards)]

    # -- main request path ------------------------------------------------------

    def certify(self, request: CertificationRequest) -> CertificationResult:
        """Certify a transaction — a round of one (see :meth:`certify_batch`);
        the decision is released once it is durable on every shard it touched."""
        outcome = self.certify_batch([request])[0]
        if isinstance(outcome, ReproError):
            raise outcome
        return outcome

    def certify_batch(
        self, requests: list[CertificationRequest],
    ) -> list[CertificationResult | ReproError]:
        """:meth:`admit_batch`, then wait until the round is durable — the
        synchronous contract: a returned commit is on every shard it touched."""
        outcomes = self.admit_batch(requests)
        if self._durable:
            self.flush()
        return outcomes

    def admit_batch(
        self, requests: list[CertificationRequest], *,
        on_admit: Callable[[int, int], None] | None = None,
    ) -> list[CertificationResult | ReproError]:
        """Certify a group of requests as one round and ship its log writes.

        Decisions/versions/remote windows come from
        :meth:`ShardedCertifier.certify_batch <repro.core.sharding.
        ShardedCertifier.certify_batch>` (sequentially equivalent by
        construction); *every* admitted fragment of the round is then staged
        and each touched shard's records go to its device as **one** batch
        (:func:`~repro.engine.log_device.ship`) — the paper's group-commit
        economics, applied to the certifier's own log.  Nothing here waits
        for a streaming device: a commit in the returned outcomes may be
        released only once :attr:`ShardedCertifier.propagated_version` — the
        durable frontier — covers it (``on_frontier`` reports that).
        Per-request failures are returned in place.  ``on_admit(index,
        commit_version)`` is told of each admitted request before its
        records are shipped.
        """
        before = self.core.certification_requests
        outcomes = self.core.certify_batch(requests)
        touched: set[int] = set()
        for index, outcome in enumerate(outcomes):
            if (isinstance(outcome, CertificationResult) and outcome.committed
                    and outcome.tx_commit_version is not None):
                if on_admit is not None:
                    on_admit(index, outcome.tx_commit_version)
                record = self.core.record_at(outcome.tx_commit_version)
                for shard_id, local in record.shard_locals:
                    self._unshipped[shard_id].append(
                        (outcome.tx_commit_version, local))
                    touched.add(shard_id)
        if touched:
            if self._durable:
                self._ship(touched)
            else:
                self._propagate_up_to(self.core.last_version)
        if (before // GC_INTERVAL_REQUESTS
                != self.core.certification_requests // GC_INTERVAL_REQUESTS):
            if not self._durable:
                self.flush()
            self.collect_garbage()
        return outcomes

    def fetch_remote_writesets(self, replica_version: int,
                               check_back_to: int | None = None,
                               *, replica: str | None = None,
                               up_to: int | None = None,
                               exclude_version: int | None = None) -> list[RemoteWriteSetInfo]:
        """Serve a bounded-staleness refresh request (merged version order)."""
        return self.core.fetch_remote_writesets(replica_version, check_back_to,
                                                replica=replica, up_to=up_to,
                                                exclude_version=exclude_version)

    def extend_remote_horizons(self, infos: list[RemoteWriteSetInfo],
                               back_to: int) -> list[RemoteWriteSetInfo]:
        """Extend pushed writesets' conflict-free horizons (Section 5.2.1)."""
        return self.core.extend_remote_horizons(infos, back_to)

    # -- log garbage collection -----------------------------------------------

    def register_replica(self, replica: str, version: int = 0) -> None:
        """Introduce a replica to the low-water-mark protocol."""
        self.core.note_replica_version(replica, version)

    def disconnect_replica(self, replica: str) -> None:
        """Drop a replica from GC and close its shard-stream subscriptions."""
        self.core.forget_replica(replica)
        for stream in self.streams:
            stream.detach_replica(replica)

    def collect_garbage(self) -> int:
        """Prune the directory and every shard log below the low-water mark."""
        return self.core.collect_garbage(headroom=self.gc_headroom_versions)

    def replication_horizon(self) -> int:
        """Highest version every subscribed replica has applied, minus the GC
        headroom — the vacuum horizon replicas may safely reclaim below (see
        :meth:`CertifierService.replication_horizon`)."""
        low_water = self.core.low_water_mark()
        if low_water is None:
            return 0
        return max(0, low_water - self.gc_headroom_versions)

    # -- durability ---------------------------------------------------------------

    def flush(self) -> int:
        """Ship every unshipped record and wait until everything shipped so
        far is durable.  Returns the number of log records that became
        durable meanwhile."""
        before = sum(stats.records_flushed for stats in self._flush_stats)
        self._ship(range(self.config.certifier_shards))
        for device in self.devices:
            if hasattr(device, "ship"):
                device.sync()
        return sum(stats.records_flushed for stats in self._flush_stats) - before

    def _ship(self, shard_ids: Iterable[int]) -> None:
        """One batch per shard with unshipped records, in ascending shard
        order, each on its way before any is waited for: a cross-shard round
        costs the slowest shard's write, not the sum.  A shard that is down
        stalls only the frontier; a device that raises leaves its batch
        taken and forever undurable."""
        for shard_id in sorted(shard_ids):
            batch = self._unshipped[shard_id]
            if not batch:
                continue
            self._unshipped[shard_id] = []
            for payload in self._batch_payloads(shard_id, batch):
                self.devices[shard_id].append(payload)
            ship(self.devices[shard_id],
                 functools.partial(self._on_durable, shard_id, batch))

    def _on_durable(self, shard_id: int, batch: list[tuple[int, int]]) -> None:
        """One shard's batch is on disk: advance that shard's durable horizon,
        then the global frontier, and propagate what the frontier now covers."""
        self._flush_stats[shard_id].record_flush(len(batch))
        self.core.shards[shard_id].log.mark_durable(max(local for _, local in batch))
        self._propagate_up_to()
        if self.on_frontier is not None:
            self.on_frontier(self.core.propagated_version)

    def _batch_payloads(self, shard_id: int, batch: list[tuple[int, int]]) -> Iterator[bytes]:
        """The device payloads of one shard's staged batch: here one size
        marker per fragment (enough to gate the decision on a real write)."""
        log = self.core.shards[shard_id].log
        for _global_version, local_version in batch:
            yield log.record_at(local_version).writeset.size_bytes().to_bytes(4, "big")

    # -- propagation (the transport layer) -------------------------------------

    def _propagate_up_to(self, version: int | None = None) -> None:
        """Offer committed records up to ``version`` to their home streams
        (:func:`repro.transport.publish_frontier`, shared with the sim node)."""
        publish_frontier(self.core, self.streams, up_to=version)

    def subscribe_replica(self, replica: str, from_version: int = 0) -> MergedSubscription:
        """Attach a replica to every shard stream behind one merged view
        (:func:`repro.transport.subscribe_merged`): backfilled with what has
        been released, enrolled in the log-GC low-water-mark protocol."""
        return subscribe_merged(self.core, self.streams, replica, from_version)

    # -- failover hooks ----------------------------------------------------------

    def export_rounds(self) -> list[tuple[int, object, str, int]]:
        """The retained commit rounds, oldest first, for a warm standby.

        Each element is ``(commit_version, writeset, origin_replica,
        global_conflict_horizon)`` — exactly the shape
        :meth:`ShardedCertifier.rebuild <repro.core.sharding.ShardedCertifier.
        rebuild>` replays, so a standby service can be rebuilt from a live
        service's directory (or, in the consensus-backed deployment, from the
        shard groups via :mod:`repro.recovery.sharded_recovery`).
        """
        return [
            (record.commit_version, record.writeset, record.origin_replica,
             self.core.certified_back_to(record.commit_version))
            for record in self.core.records_after(self.core.pruned_version)
        ]

    def export_state_transfer(self) -> "StateTransferPackage":
        """Package the retained state as one checksummed transfer unit.

        The anti-entropy analogue of :meth:`export_rounds`: a standby
        validates the package before installing it (a partial or corrupted
        download is detected and re-fetched instead of seeding a silently
        divergent certifier), and it carries the replica watermarks so the
        standby can keep garbage-collecting without waiting for every
        replica to check back in.
        """
        from repro.recovery.snapshots import StateTransferPackage

        return StateTransferPackage.capture(self.core)

    @classmethod
    def from_state_transfer(
        cls,
        package: "StateTransferPackage",
        *,
        config: ReplicationConfig | None = None,
        log_devices: list[LogDevice] | None = None,
    ) -> "ShardedCertifierService":
        """Bootstrap a standby service from a validated transfer package."""
        package.validate()
        core = ShardedCertifier.rebuild(
            package.num_shards,
            list(package.rounds),
            pruned_to=package.horizon,
            base_version=package.horizon,
        )
        for replica, version in package.replica_versions:
            core.note_replica_version(replica, version)
        return cls.from_recovered_core(core, config=config,
                                       log_devices=log_devices)

    @classmethod
    def from_recovered_core(
        cls,
        core: ShardedCertifier,
        *,
        config: ReplicationConfig | None = None,
        log_devices: list[LogDevice] | None = None,
    ) -> "ShardedCertifierService":
        """Build a service around a recovered coordinator (failover).

        The per-shard IO pipelines — log devices, unshipped-record queues,
        propagation streams — start empty: a recovered coordinator's records
        are already durable (that is what made them recoverable), and a
        re-subscribing replica is backfilled from the directory by
        :meth:`subscribe_replica`, so the fresh streams only ever carry
        post-failover commits.
        """
        base = config if config is not None else ReplicationConfig()
        service = cls(dataclasses.replace(base, certifier_shards=core.num_shards),
                      log_devices=log_devices)
        service.core = core
        return service

    # -- statistics ------------------------------------------------------------------

    @property
    def fsync_count(self) -> int:
        return sum(device.sync_count for device in self.devices)

    @property
    def writesets_per_fsync(self) -> float:
        """Average log records per synchronous write, across all shards."""
        merged = merged_group_commit_stats(self._flush_stats)
        return merged.average_batch_size

    @property
    def system_version(self) -> int:
        return self.core.system_version.version

    def stats_snapshot(self) -> CertifierServiceStats:
        """Typed snapshot with per-shard pipelines merged (fresh aggregates,
        never the live per-shard objects)."""
        return CertifierServiceStats(
            core=self.core.stats_snapshot(),
            flush=merged_group_commit_stats(self._flush_stats),
            propagation=merged_group_commit_stats([s.stats for s in self.streams]),
            fsyncs=self.fsync_count,
            durable_version=self.core.durable_version,
            shards=self.config.certifier_shards,
        )

    def stats(self) -> dict[str, float]:
        return self.stats_snapshot().as_dict()

    def per_shard_stats(self) -> list[dict[str, float]]:
        return self.core.per_shard_stats()

    def __repr__(self) -> str:
        return (
            f"ShardedCertifierService(shards={self.config.certifier_shards}, "
            f"version={self.system_version}, durable={self.core.durable_version}, "
            f"fsyncs={self.fsync_count})"
        )


def make_certifier_service(
    config: ReplicationConfig | None = None,
    **kwargs: object,
) -> "CertifierService | ShardedCertifierService":
    """Build the certifier front-end matching ``config.certifier_shards``.

    One shard (the default) returns the seed :class:`CertifierService` —
    the sharded machinery is not even constructed, so the single-shard
    deployment is byte-for-byte the paper's certifier.
    """
    config = config if config is not None else ReplicationConfig()
    if config.certifier_shards == 1:
        return CertifierService(config, **kwargs)  # type: ignore[arg-type]
    return ShardedCertifierService(config, **kwargs)  # type: ignore[arg-type]
