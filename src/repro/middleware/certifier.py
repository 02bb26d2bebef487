"""The certifier service.

Wraps the pure certification logic of :class:`repro.core.certification.Certifier`
with the two responsibilities the paper gives the certifier process:

* a **persistent log** — every certified writeset is written to a log device
  and (when durability is enabled) made durable before the commit decision is
  released to the replica.  The single log-writer design means all writesets
  pending at flush time share one synchronous write; the resulting
  writesets-per-fsync statistic is the paper's key explanation of
  Tashkent-MW's scalability.
* **forced aborts** — the abort-injection knob used by the Section 9.5
  experiment, driven by a deterministic RNG.

The functional path in this module is synchronous (a certification request
returns only once the decision is durable).  The simulated certifier node,
:class:`repro.cluster.SimCertifierNode`, drives the pure
:class:`~repro.core.sharding.ShardedCertifier` directly and overlaps many
requests against one flush, which is where batching pays off.

Every flush propagates its fsync group as one batch on :attr:`stream`.
"""

from __future__ import annotations

import random

from repro.core.certification import (
    CertificationRequest,
    CertificationResult,
    Certifier,
    RemoteWriteSetInfo,
)
from repro.core.certifier_log import CertifierLog
from repro.core.config import ReplicationConfig
from repro.core.group_commit import GroupCommitBatcher
from repro.core.stats import CertifierServiceStats
from repro.engine.log_device import CountingLogDevice, LogDevice
from repro.errors import ConfigurationError, ReproError
from repro.transport import WritesetStream, WritesetSubscription


#: Certification requests between two automatic log garbage collections.
GC_INTERVAL_REQUESTS = 256
#: Records kept below the replicas' low-water mark when
#: ``ReplicationConfig.certifier_gc_headroom`` is ``None``, so in-flight
#: transactions whose start version slightly trails their replica's reported
#: version are never conservatively aborted ("snapshot too old").
DEFAULT_GC_HEADROOM = 256


def gc_headroom(config: ReplicationConfig) -> int:
    """The GC headroom a certifier service built from ``config`` keeps."""
    if config.certifier_gc_headroom is None:
        return DEFAULT_GC_HEADROOM
    return config.certifier_gc_headroom


class CertifierService:
    """A single certifier node (the leader of the certifier group)."""

    def __init__(
        self,
        config: ReplicationConfig | None = None,
        *,
        log_device: LogDevice | None = None,
        log: CertifierLog | None = None,
    ) -> None:
        self.config = config if config is not None else ReplicationConfig()
        if self.config.certifier_shards > 1:
            raise ConfigurationError(
                "CertifierService serves exactly one shard; build a "
                "ShardedCertifierService (or use make_certifier_service) "
                f"for certifier_shards={self.config.certifier_shards}"
            )
        #: Whether the log write is on the commit critical path (off only
        #: in the tashAPInoCERT ablation).
        self._durable = self.config.system.durability_in_certifier
        self.gc_headroom_versions = gc_headroom(self.config)
        self.device: LogDevice = log_device if log_device is not None else CountingLogDevice()
        self._rng = random.Random(self.config.rng_seed)
        self.core = Certifier(
            log,
            forced_abort_rate=self.config.forced_abort_rate,
            abort_chooser=self._rng.random,
        )
        self._batcher: GroupCommitBatcher[int] = GroupCommitBatcher()
        #: The outbound propagation channel shared by every replica proxy.
        self.stream = WritesetStream()

    # -- main request path ------------------------------------------------------

    def certify(self, request: CertificationRequest) -> CertificationResult:
        """Certify a transaction and (if enabled) make the decision durable."""
        result = self.core.certify(request)
        if result.committed and result.tx_commit_version is not None:
            self._batcher.enqueue(result.tx_commit_version)
            if self._durable:
                self.flush()
            else:
                # The decision is released before the log write, so the
                # writeset propagates immediately rather than at flush time.
                self.stream.propagate_from_log(self.core.log,
                                               (result.tx_commit_version,))
        if self.core.certification_requests % GC_INTERVAL_REQUESTS == 0:
            if not self._durable:
                # tashAPInoCERT keeps the log write off the critical path but
                # still writes it eventually (the sim's lazy log-writer loop);
                # flush here so the durable horizon — and with it GC — keeps
                # advancing instead of pinning prune_to at version 0.
                self.flush()
            self.collect_garbage()
        return result

    def certify_batch(
        self, requests: list[CertificationRequest],
    ) -> list[CertificationResult | ReproError]:
        """Certify a group of requests sharing one durability flush.

        Decisions, versions and remote windows are exactly what a sequential
        ``certify`` loop would produce (the requests run through the core one
        by one, in order); the batch only coalesces the *IO*: every commit in
        the round shares a single log flush — one fsync covering the whole
        group — instead of one per transaction.  Per-request failures are
        returned in place as the exception instance.
        """
        before = self.core.certification_requests
        outcomes: list[CertificationResult | ReproError] = []
        for request in requests:
            try:
                result = self.core.certify(request)
            except ReproError as exc:
                outcomes.append(exc)
                continue
            outcomes.append(result)
            if result.committed and result.tx_commit_version is not None:
                self._batcher.enqueue(result.tx_commit_version)
                if not self._durable:
                    self.stream.propagate_from_log(self.core.log,
                                                   (result.tx_commit_version,))
        if self._durable:
            self.flush()
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
        """Serve a bounded-staleness refresh request (no certification)."""
        return self.core.fetch_remote_writesets(replica_version, check_back_to,
                                                replica=replica, up_to=up_to,
                                                exclude_version=exclude_version)

    def extend_remote_horizons(self, infos: list[RemoteWriteSetInfo],
                               back_to: int) -> list[RemoteWriteSetInfo]:
        """Extend pushed writesets' conflict-free horizons (Section 5.2.1)."""
        return self.core.extend_remote_horizons(infos, back_to)

    # -- log garbage collection -----------------------------------------------

    def register_replica(self, replica: str, version: int = 0) -> None:
        """Introduce a replica to the low-water-mark protocol.

        Until a replica is known (registered or seen on a certification
        request) it does not constrain GC, so connected-but-idle replicas
        must be registered to keep their log suffix alive.
        """
        self.core.note_replica_version(replica, version)

    def disconnect_replica(self, replica: str) -> None:
        """Remove a replica from the low-water-mark protocol and the stream.

        Closing the stream subscription matters as much as forgetting the
        watermark: a dead subscription would otherwise accumulate every
        future batch unread, unbounded by log GC.
        """
        self.core.forget_replica(replica)
        self.stream.detach_replica(replica)

    def collect_garbage(self) -> int:
        """Prune the durable log prefix below the replicas' low-water mark."""
        return self.core.collect_garbage(headroom=self.gc_headroom_versions)

    def replication_horizon(self) -> int:
        """Highest version every subscribed replica has already applied.

        This is the replica low-water mark minus the GC headroom — the same
        retention boundary log GC prunes to — and is what replicas feed into
        ``Database.vacuum(replication_horizon=...)``: versions at or below
        it can never again be requested by a lagging or resubscribing
        replica.  Conservatively 0 while no replica has reported (an unknown
        fleet pins the horizon, exactly like it pins log GC).
        """
        low_water = self.core.low_water_mark()
        if low_water is None:
            return 0
        return max(0, low_water - self.gc_headroom_versions)

    # -- durability ---------------------------------------------------------------

    def flush(self) -> int:
        """Flush all pending log records with one synchronous write.

        Returns the number of records made durable.  Called automatically on
        the certification path when durability is enabled; the simulated
        certifier calls it from its log-writer loop instead.
        """
        if not self._batcher.has_pending:
            return 0
        batch = self._batcher.take_batch()
        for commit_version in batch:
            record = self.core.log.record_at(commit_version)
            self.device.append(record.writeset.size_bytes().to_bytes(4, "big"))
        self.device.sync()
        self._batcher.complete_batch()
        self.core.log.mark_durable(max(batch))
        # Propagate the freshly durable writesets: the delivered batch is
        # exactly this fsync group.
        self.stream.propagate_from_log(self.core.log, batch)
        return len(batch)

    # -- propagation (the transport layer) -------------------------------------

    def subscribe_replica(self, replica: str, from_version: int = 0) -> WritesetSubscription:
        """Attach a replica to the writeset stream (and the GC protocol).

        The subscription is backfilled with every log record after
        ``from_version`` so a late joiner starts complete; afterwards the
        replica receives writesets purely as pushed batches.
        """
        return self.stream.attach_replica(self.core, replica, from_version)

    # -- statistics ------------------------------------------------------------------

    @property
    def fsync_count(self) -> int:
        return self.device.sync_count

    @property
    def writesets_per_fsync(self) -> float:
        """Average number of certified writesets per synchronous log write."""
        return self._batcher.stats.average_batch_size

    @property
    def system_version(self) -> int:
        return self.core.system_version.version

    @property
    def log(self) -> CertifierLog:
        return self.core.log

    def stats_snapshot(self) -> CertifierServiceStats:
        """Typed service snapshot (core + durability + propagation batching)."""
        return CertifierServiceStats(
            core=self.core.stats_snapshot(),
            flush=self._batcher.stats,
            propagation=self.stream.stats,
            fsyncs=self.fsync_count,
            durable_version=self.core.log.durable_version,
            shards=1,
        )

    def stats(self) -> dict[str, float]:
        return self.stats_snapshot().as_dict()

    def __repr__(self) -> str:
        return (
            f"CertifierService(version={self.system_version}, "
            f"durable={self.core.log.durable_version}, fsyncs={self.fsync_count})"
        )
