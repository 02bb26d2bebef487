"""Simulated certifier and replica nodes.

A node bundles the devices of one machine in the paper's cluster (one CPU,
one disk, a NIC) with the protocol state that lives on that machine.  The
*control flow* of the protocol is expressed by the system models in the
sibling modules; nodes only provide reusable process fragments such as
"certify this request" or "flush these commit records with group commit".
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.core.certification import CertificationRequest, RemoteWriteSetInfo
from repro.core.config import ReplicationConfig
from repro.core.group_commit import GroupCommitStats
from repro.core.sharding import ShardedCertifier
from repro.errors import ReproError
from repro.sim.devices import CpuServer, DiskChannel, NetworkLink
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams
from repro.transport import (
    MergedSubscription,
    WritesetStream,
    publish_frontier,
    subscribe_merged,
)
from repro.workloads.spec import WorkloadSpec


class SimCertifierNode:
    """The certifier deployment: one certify/flush pipeline per shard.

    With ``certifier_shards=1`` (the default) this is the paper's certifier:
    certification CPU, one log disk, and the single log-writer thread that
    takes *everything* pending, performs one fsync, and only then releases
    the commit decisions of that batch.  Under load the batch grows and the
    writesets-per-fsync ratio rises — the mechanism behind Tashkent-MW's
    scalability.

    Each further shard is modeled as its own process with its own CPU lane
    and its own log disk (a sharded certifier in production is N processes,
    possibly N machines), so fsync parallelism is genuinely modeled: shard
    A's group flush proceeds while shard B's disk is busy.  A small
    coordinator CPU serves request admission, read-only requests and
    subscription drains.

    The system models drive the node through ``certify`` / ``propagate``
    fragments, ``register_replica``, ``subscription`` and ``stats``.  The
    pure decision logic is :class:`~repro.core.sharding.ShardedCertifier`; a
    committed cross-shard transaction's decision is released only once its
    fragment is durable on every touched shard, and full writesets are
    offered to their home shard's stream in global-frontier order, merged at
    each replica by a :class:`~repro.transport.MergedSubscription`.
    """

    #: CPU cost of one certification check (writeset intersection is "a fast
    #: main memory operation", an order of magnitude below execution cost).
    certify_cpu_ms = 0.05
    #: Run log garbage collection every this many group flushes (0 disables).
    gc_interval_flushes = 64
    #: Records kept below the replicas' low-water mark (see
    #: :mod:`repro.core.certification` on the GC protocol).
    gc_headroom_versions = 512

    def __init__(
        self,
        env: Environment,
        config: ReplicationConfig,
        rng: RandomStreams,
        *,
        name: str = "certifier",
    ) -> None:
        self.env = env
        self.config = config
        self.name = name
        #: Whether a decision waits for its log write (the paper's systems
        #: differ in this one switch).
        self.durability_enabled = config.system.durability_in_certifier
        #: Bound on records per fsync (None = everything pending, the seed
        #: behaviour).  A bounded log buffer caps a single log device at
        #: ``bound / fsync_time`` certifications per second — the saturation
        #: regime sharding splits across per-shard disks.
        self.max_flush_batch = config.certifier_max_flush_batch
        if config.certifier_gc_headroom is not None:
            self.gc_headroom_versions = config.certifier_gc_headroom
        shards = config.certifier_shards
        self.core = ShardedCertifier(
            shards,
            forced_abort_rate=config.forced_abort_rate,
            abort_chooser=rng.stream("forced-abort").random,
        )
        #: Coordinator CPU: admission, read-only requests, drain serving.
        self.cpu = CpuServer(env, name=f"{name}-cpu")
        self.network = NetworkLink(env, config.network, rng, name=f"{name}-lan")
        self.shard_cpus = [
            CpuServer(env, name=f"{name}-shard{i}-cpu") for i in range(shards)
        ]
        # A shard's log disk is its own device; it never competes with
        # database page IO, so no interference term.  Device names seed the
        # RNG streams: the paper's one-disk certifier keeps its name so its
        # fsync service times — and every tracked figure — reproduce.
        disk_names = ([f"{name}-disk"] if shards == 1
                      else [f"{name}-shard{i}-disk" for i in range(shards)])
        self.shard_disks = [
            DiskChannel(env, config.disk, rng, name=disk_name)
            for disk_name in disk_names
        ]
        self._flush_queues = [
            Store(env, name=f"{name}-shard{i}-flush-queue") for i in range(shards)
        ]
        self.batch_stats = GroupCommitStats()
        self._flushes_since_gc = 0
        #: Per-shard propagation streams: a log writer delivers each fsync
        #: group as one batch; replica subscriptions are drained by the
        #: bounded-staleness processes with network-modeled delivery.
        self.streams = [WritesetStream() for _ in range(shards)]
        self._subscriptions: dict[str, MergedSubscription] = {}
        #: Global version -> [event, remaining-shard-count]: a committed
        #: transaction's decision is released once every touched shard has
        #: flushed its fragment.
        self._durability_waiters: dict[int, list] = {}
        # Deterministic shard-leader outages (certifier_crash_schedule): a
        # down shard accepts no certifications and flushes nothing; fragments
        # touching it park on the shard's recovery event.  The down state is
        # a counter so touching windows (crash == previous recover) behave as
        # one longer outage regardless of same-timestamp event order;
        # strictly overlapping windows are rejected by config validation.
        self._shard_down: list[int] = [0] * shards
        self._shard_up_events: list[Event | None] = [None] * shards
        self.crash_events = 0
        self.downtime_ms = 0.0
        self.stalled_requests = 0
        for event_index, (shard_id, crash_at_ms, recover_at_ms) in enumerate(
                config.certifier_crash_schedule):
            env.process(
                self._crash_driver(shard_id, crash_at_ms, recover_at_ms),
                name=f"{name}-shard{shard_id}-crash-{event_index}",
            )
        for shard_id in range(shards):
            env.process(self._shard_log_writer(shard_id),
                        name=f"{name}-shard{shard_id}-log-writer")

    def register_replica(self, replica_name: str, version: int = 0) -> None:
        """Enrol a replica: GC protocol plus one subscription per shard,
        merged behind a single version-ordered view."""
        if replica_name in self._subscriptions:
            self.core.note_replica_version(replica_name, version)
            return
        self._subscriptions[replica_name] = subscribe_merged(
            self.core, self.streams, replica_name, version)

    def subscription(self, replica_name: str) -> MergedSubscription:
        return self._subscriptions[replica_name]

    # -- protocol fragments ------------------------------------------------------

    def certify(self, request: CertificationRequest) -> Generator:
        """Process fragment: full certification round trip, sharded.

        Single-shard requests pay one shard's CPU and (when durability is
        on) one shard's flush — the seed pipeline, just placed on that
        shard's devices.  Cross-shard requests pay certification CPU on
        every touched shard and wait for the slowest touched shard's flush:
        the merge cost the benchmark quantifies.
        """
        yield self.network.transfer(request.request_size_bytes())
        touched = sorted(self.core.partitioner.split(request.writeset))
        if not touched:
            yield from self.cpu.execute(self.certify_cpu_ms)
        else:
            # A crashed shard leader processes nothing until its group has
            # failed over (the paper's availability window): every fragment
            # aimed at a down shard parks on that shard's recovery event.
            # One count per request, however many down shards it touches.
            if any(self._shard_down[shard_id] for shard_id in touched):
                self.stalled_requests += 1
            for shard_id in touched:
                while self._shard_down[shard_id]:
                    yield self._shard_up_events[shard_id]
            for shard_id in touched:
                yield from self.shard_cpus[shard_id].execute(self.certify_cpu_ms)
        result = self.core.certify_batch([request])[0]
        if isinstance(result, ReproError):
            raise result
        if result.committed and result.tx_commit_version is not None:
            version = result.tx_commit_version
            record = self.core.record_at(version)
            for shard_id, local in record.shard_locals:
                self._flush_queues[shard_id].put((version, local))
            if self.durability_enabled:
                durable: Event = self.env.event()
                self._durability_waiters[version] = [durable, len(record.shard_locals)]
                yield durable
            else:
                # tashAPInoCERT: decision released without waiting for the
                # (lazily flushed) log writes, so propagate immediately.
                publish_frontier(self.core, self.streams,
                                 up_to=self.core.last_version)
        yield self.network.transfer(result.response_size_bytes())
        return result

    def propagate(self, replica_name: str, *,
                  applied_version: int | None = None,
                  extend_horizons: bool = False,
                  watermark: Callable[[], int] | None = None) -> Generator:
        """Process fragment: deliver the merged pending batches to a replica.

        The replica's subscription is drained and whatever the shard streams
        had pending — merged into one run, interleaved by global version —
        crosses the LAN as one message: the answer to the replica's poll.
        Returns the delivered writesets in version order.

        ``applied_version`` is the replica's current watermark: writesets it
        already received in-band with certification responses are skipped
        *before* the transfer, so they never cross the modeled LAN twice.
        ``extend_horizons`` additionally extends the delivered writesets'
        conflict-free horizons back to that watermark — only ordered-commit
        (Tashkent-API) replicas plan against horizons, so only they should
        pay for (and be counted for) the extra intersection tests.
        ``watermark`` re-reads the replica's *live* version right before the
        drain: commits that completed in-band while this fragment was waiting
        on the network/CPU would otherwise be delivered again.
        """
        subscription = self._subscriptions[replica_name]
        if applied_version is not None:
            subscription.advance_to(applied_version)
        # The poll request itself (a tiny heartbeat-sized message), plus the
        # certifier CPU to serve it — the same cost the pull protocol paid.
        yield self.network.transfer(16)
        yield from self.cpu.execute(self.certify_cpu_ms)
        if watermark is not None:
            subscription.advance_to(watermark())
        batches = subscription.poll()
        remote: list[RemoteWriteSetInfo] = []
        for batch in batches:
            size = 32 + sum(info.size_bytes() for info in batch)
            yield self.network.transfer(size)
            remote.extend(batch)
        if not batches:
            # Empty answer: the replica learns it is up to date.
            yield self.network.transfer(16)
        elif extend_horizons and applied_version is not None:
            # As with the pull protocol's check_back_to: extend the
            # intersection tests to the caller's version so an ordered
            # (Tashkent-API) replica can submit the batch concurrently.
            remote = self.core.extend_remote_horizons(remote, applied_version)
        return remote

    # -- per-shard log writers -----------------------------------------------------

    def _shard_log_writer(self, shard_id: int) -> Generator:
        shard = self.core.shards[shard_id]
        queue = self._flush_queues[shard_id]
        disk = self.shard_disks[shard_id]
        while True:
            first = yield queue.get()
            pending = [first] + queue.get_all()
            while pending:
                while self._shard_down[shard_id]:
                    yield self._shard_up_events[shard_id]
                if self.max_flush_batch is None:
                    batch, pending = pending, []
                else:
                    batch = pending[:self.max_flush_batch]
                    pending = pending[self.max_flush_batch:]
                yield from disk.fsync()
                self.batch_stats.record_flush(len(batch))
                top_local = max(local for _, local in batch)
                if top_local > shard.log.durable_version:
                    shard.log.mark_durable(top_local)
                for version, _local in batch:
                    waiter = self._durability_waiters.get(version)
                    if waiter is not None:
                        waiter[1] -= 1
                        if waiter[1] == 0:
                            del self._durability_waiters[version]
                            waiter[0].succeed(version)
                # Whatever is now durable on every shard it touches goes to
                # its home stream, in strict global order.
                publish_frontier(self.core, self.streams)
                self._flushes_since_gc += 1
                if (self.gc_interval_flushes
                        and self._flushes_since_gc >= self.gc_interval_flushes):
                    self._flushes_since_gc = 0
                    self.core.collect_garbage(headroom=self.gc_headroom_versions)

    # -- fault injection (certifier_crash_schedule) ---------------------------------

    def _crash_driver(self, shard_id: int, crash_at_ms: float,
                      recover_at_ms: float) -> Generator:
        """One scheduled shard-leader outage: down at ``crash_at_ms``, back
        (new leader elected, state transferred) at ``recover_at_ms``."""
        yield self.env.timeout(crash_at_ms - self.env.now)
        self._shard_down[shard_id] += 1
        if self._shard_up_events[shard_id] is None:
            self._shard_up_events[shard_id] = self.env.event()
        self.crash_events += 1
        yield self.env.timeout(recover_at_ms - crash_at_ms)
        self._shard_down[shard_id] -= 1
        self.downtime_ms += recover_at_ms - crash_at_ms
        if self._shard_down[shard_id] == 0:
            up_event = self._shard_up_events[shard_id]
            self._shard_up_events[shard_id] = None
            if up_event is not None:
                up_event.succeed(shard_id)

    def calibrated_failover_window_ms(self, shard_id: int,
                                      model: "RecoveryTimingModel | None" = None,
                                      ) -> float:
        """Modeled failover window for one shard, from its live state.

        A crash-schedule window chosen below this value under-models the
        outage: a replacement leader must state-transfer the shard's
        retained log suffix (snapshot + suffix, Section 9.6 — "essentially a
        file transfer") before it can serve.  The suffix length is read off
        the live shard log, so tighter GC headroom directly shortens the
        calibrated window — the trade the ``certifier_gc_headroom`` knob
        sweeps.
        """
        from repro.recovery.timings import RecoveryTimingModel

        model = model if model is not None else RecoveryTimingModel()
        suffix_entries = self.core.shards[shard_id].log.retained_count
        return model.certifier_bootstrap_seconds(0, suffix_entries) * 1000.0

    # -- statistics -----------------------------------------------------------------------

    @property
    def fsync_count(self) -> int:
        return sum(disk.fsync_count for disk in self.shard_disks)

    def stats(self) -> dict[str, float]:
        stats = {f"certifier_{k}": v for k, v in self.core.stats().items()}
        disk_utils = [disk.utilization() for disk in self.shard_disks]
        cpu_utils = [cpu.utilization() for cpu in self.shard_cpus]
        propagation = GroupCommitStats()
        for stream in self.streams:
            propagation.merge(stream.stats)
        stats.update(
            {
                "certifier_fsyncs": float(self.fsync_count),
                "certifier_writesets_per_fsync": self.batch_stats.average_batch_size,
                "certifier_disk_utilization": max(disk_utils, default=0.0),
                "certifier_cpu_utilization": max(cpu_utils + [self.cpu.utilization()]),
                "certifier_mean_shard_disk_utilization": (
                    sum(disk_utils) / len(disk_utils) if disk_utils else 0.0
                ),
                "certifier_propagation_batches": float(propagation.flushes),
                "certifier_writesets_per_propagation_batch":
                    propagation.average_batch_size,
                "certifier_shards": float(self.config.certifier_shards),
                "certifier_crash_events": float(self.crash_events),
                "certifier_downtime_ms": self.downtime_ms,
                "certifier_stalled_requests": float(self.stalled_requests),
            }
        )
        return stats


class SimReplicaNode:
    """One replica machine: CPU, disk, the proxy's version watermark, and a
    database log-writer used by the group-commit (ordered) configurations."""

    def __init__(
        self,
        env: Environment,
        index: int,
        config: ReplicationConfig,
        workload: WorkloadSpec,
        rng: RandomStreams,
        *,
        ordered_flush_overhead_factor: float = 1.0,
    ) -> None:
        self.env = env
        self.index = index
        self.name = f"replica-{index}"
        self.config = config
        self.workload = workload
        self.cpu = CpuServer(env, name=f"{self.name}-cpu")
        self.disk = DiskChannel(
            env,
            config.disk,
            rng,
            name=f"{self.name}-disk",
            page_io_interference_ms=workload.page_io_interference_ms,
        )
        #: Serialises the proxy's [C4]/[C5] steps (Base and Tashkent-MW).
        self.commit_lock = Resource(env, capacity=1, name=f"{self.name}-commit-lock")
        #: The replica's GSI version watermark (the proxy's replica_version).
        self.replica_version = 0
        #: Multiplier on the WAL flush time of ordered (grouped) commits.
        #: Models the larger WAL volume PostgreSQL writes per flush when
        #: every remote writeset commits as its own transaction with
        #: before/after page images — the effect the paper cites to explain
        #: the residual Tashkent-MW vs Tashkent-API gap (Section 9.2).
        self.ordered_flush_overhead_factor = ordered_flush_overhead_factor
        self._commit_queue: Store = Store(env, name=f"{self.name}-commit-queue")
        self.group_commit_stats = GroupCommitStats()
        # Ordered-commit announcement state (Tashkent-API): commit records may
        # be flushed in any order, but effects become visible strictly in
        # global version order (the paper's semaphore, Section 8.3).
        self.announced_version = 0
        self._durable_versions: set[int] = set()
        self._announce_waiters: list[tuple[int, Event]] = []
        env.process(self._db_log_writer(), name=f"{self.name}-log-writer")

    # -- version bookkeeping -------------------------------------------------------

    def claim_remote(self, remote_infos) -> list:
        """Filter remote writesets to those not yet applied and claim them.

        Claiming advances the watermark immediately so that concurrent local
        commits at the same replica do not double-apply (and double-charge
        the CPU for) the same remote writesets.
        """
        pending = [
            info for info in remote_infos if info.commit_version > self.replica_version
        ]
        if pending:
            self.replica_version = max(info.commit_version for info in pending)
        return pending

    def observe_commit(self, commit_version: int) -> None:
        if commit_version > self.replica_version:
            self.replica_version = commit_version

    # -- ordered announcement (COMMIT <version> semantics) -------------------------

    def mark_durable_versions(self, versions) -> None:
        """Record that the commit records for ``versions`` are on disk here.

        Announcements then advance through every contiguous durable version,
        waking any commit waiting for its turn.
        """
        for version in versions:
            if version > self.announced_version:
                self._durable_versions.add(version)
        advanced = False
        while (self.announced_version + 1) in self._durable_versions:
            self._durable_versions.discard(self.announced_version + 1)
            self.announced_version += 1
            advanced = True
        if advanced and self._announce_waiters:
            still_waiting: list[tuple[int, Event]] = []
            for version, event in self._announce_waiters:
                if version <= self.announced_version:
                    event.succeed(version)
                else:
                    still_waiting.append((version, event))
            self._announce_waiters = still_waiting

    def wait_for_announcement(self, version: int) -> Event:
        """Event that triggers once ``version`` has been announced here."""
        event = self.env.event()
        if version <= self.announced_version:
            event.succeed(version)
        else:
            self._announce_waiters.append((version, event))
        return event

    # -- group commit (standalone + Tashkent-API databases) ------------------------------

    def submit_commit_records(self, record_count: int) -> Event:
        """Queue ``record_count`` commit records for the next WAL flush.

        Returns the event that triggers once those records are durable (the
        flush completed).  Many concurrent submissions share one flush.
        """
        done = self.env.event()
        self._commit_queue.put((record_count, done))
        return done

    def _db_log_writer(self) -> Generator:
        while True:
            first = yield self._commit_queue.get()
            batch = [first] + self._commit_queue.get_all()
            records = sum(count for count, _ in batch)
            service = yield from self.disk.fsync()
            if self.ordered_flush_overhead_factor > 1.0:
                yield self.env.timeout(service * (self.ordered_flush_overhead_factor - 1.0))
            self.group_commit_stats.record_flush(records)
            for _count, done in batch:
                done.succeed()

    # -- statistics ------------------------------------------------------------------------

    @property
    def fsync_count(self) -> int:
        return self.disk.fsync_count

    @property
    def records_per_fsync(self) -> float:
        return self.group_commit_stats.average_batch_size

    def stats(self) -> dict[str, float]:
        return {
            "cpu_utilization": self.cpu.utilization(),
            "disk_utilization": self.disk.utilization(),
            "fsyncs": float(self.fsync_count),
            "records_per_fsync": self.records_per_fsync,
            "replica_version": float(self.replica_version),
        }
