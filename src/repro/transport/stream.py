"""Batched writeset propagation from the certifier to the replicas.

The :class:`WritesetStream` is the one propagation path in the system: the
certifier *offers* every certified (and, when durability is on, durable)
writeset to the stream, and :meth:`WritesetStream.flush` cuts everything
pending into one **batch** and appends that batch to every replica's
:class:`WritesetSubscription`.  The certifier flushes once per
fsync group, so a propagation batch is exactly the group of writesets that
shared one synchronous log write (the paper's writesets-per-fsync).
Replicas then apply whole batches — one version bump and one WAL append per
batch on the group-apply path of
:meth:`repro.engine.database.Database.apply_writeset_batch`.

The pending queue is a :class:`~repro.core.group_commit.GroupCommitBatcher`,
the same batching engine that backs the engine WAL's group commit and the
certifier's log flush, so the propagation batch-size statistics reported by
the benchmarks come from the single shared implementation.

Both stacks use this class unchanged: the **functional** middleware drains
subscriptions inline during ``refresh()``; the **simulated** cluster offers
writesets from the certifier's log-writer process and wraps each
subscription drain in a network-transfer delay, so batch boundaries
translate into messages on the modeled LAN.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.certification import RemoteWriteSetInfo
from repro.core.group_commit import GroupCommitBatcher, GroupCommitStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.certification import Certifier
    from repro.core.certifier_log import CertifierLog


class WritesetSubscription:
    """One replica's view of the writeset stream.

    Tracks a version cursor so a batch that partially overlaps what the
    replica already received (e.g. writesets applied in-band with a
    certification response) is filtered down to the genuinely new suffix.
    Polling is idempotent with respect to redelivery: a writeset is handed
    out at most once per subscription.
    """

    def __init__(self, stream: "WritesetStream", name: str, from_version: int) -> None:
        self.stream = stream
        self.name = name
        #: Highest commit version handed out by :meth:`poll` so far.
        self.version = from_version
        #: Delivered batches not yet polled, oldest first.
        self._queue: deque[list[RemoteWriteSetInfo]] = deque()
        self.batches_received = 0
        self.writesets_received = 0

    # -- consumption ---------------------------------------------------------

    def poll(self) -> list[list[RemoteWriteSetInfo]]:
        """Drain pending batches, filtered to versions past the cursor.

        Returns a list of non-empty batches in delivery order; the cursor
        advances to the highest version returned.  Batch boundaries are
        preserved so callers can pipeline: apply batch *k* while batch *k+1*
        is still in flight.
        """
        batches: list[list[RemoteWriteSetInfo]] = []
        while self._queue:
            batch = [
                info
                for info in self._queue.popleft()
                if info.commit_version > self.version
            ]
            if not batch:
                continue
            self.version = max(info.commit_version for info in batch)
            self.batches_received += 1
            self.writesets_received += len(batch)
            batches.append(batch)
        return batches

    def poll_flat(self) -> list[RemoteWriteSetInfo]:
        """Drain pending batches coalesced into one flat list."""
        return [info for batch in self.poll() for info in batch]

    def advance_to(self, version: int) -> None:
        """Move the cursor forward (versions received out-of-band).

        Queued batches that fall entirely below the cursor are discarded on
        the spot: a replica that consumes writesets in-band with every
        certification response may rarely poll, and without this trim its
        queue would grow with every batch published cluster-wide.
        """
        if version > self.version:
            self.version = version
        queue = self._queue
        while queue and all(info.commit_version <= self.version
                            for info in queue[0]):
            queue.popleft()

    @property
    def pending_batches(self) -> int:
        return len(self._queue)

    @property
    def pending_writesets(self) -> int:
        return sum(len(batch) for batch in self._queue)

    def close(self) -> None:
        """Stop receiving batches; queued ones are dropped."""
        self._queue.clear()
        self.stream._drop_subscription(self)

    def __repr__(self) -> str:
        return (
            f"WritesetSubscription(name={self.name!r}, version={self.version}, "
            f"pending_batches={self.pending_batches})"
        )


class WritesetStream:
    """The certifier-to-replicas propagation channel."""

    def __init__(self) -> None:
        self._batcher: GroupCommitBatcher[RemoteWriteSetInfo] = GroupCommitBatcher()
        self._subscriptions: list[WritesetSubscription] = []
        #: Highest commit version ever offered (used to seed late subscribers).
        self.offered_version = 0

    # -- producer side (the certifier) ---------------------------------------

    def offer(self, info: RemoteWriteSetInfo) -> None:
        """Enqueue one certified writeset for the next :meth:`flush`."""
        self._batcher.enqueue(info)
        if info.commit_version > self.offered_version:
            self.offered_version = info.commit_version

    def offer_log_record(self, log: "CertifierLog", commit_version: int) -> bool:
        """Offer the certifier log record at ``commit_version`` exactly once.

        The stream's ``offered_version`` high-water mark is the idempotence
        guard, shared by both certifier front-ends (the functional service
        and the simulated node), so re-walking a flush batch never
        double-propagates.  Returns False when the version was already
        offered.
        """
        if commit_version <= self.offered_version:
            return False
        record = log.record_at(commit_version)
        self.offer(
            RemoteWriteSetInfo(
                commit_version=commit_version,
                writeset=record.writeset,
                origin_replica=record.origin_replica,
                conflict_free_back_to=log.certified_back_to(commit_version),
            ),
        )
        return True

    def flush(self) -> None:
        """Cut every pending writeset into one batch and deliver it.

        The batch is appended to every open subscription (one delivery, one
        simulated network transfer); nothing pending means no batch.
        """
        if not self._batcher.has_pending:
            return
        batch = self._batcher.take_batch()
        self._batcher.complete_batch()
        for subscription in self._subscriptions:
            subscription._queue.append(batch)

    def propagate_from_log(self, log: "CertifierLog", versions: Iterable[int]) -> int:
        """Offer a group of certifier log records and deliver them as one batch.

        The one sequence both certifier front-ends use after releasing
        commit decisions: a durability fsync group propagates as exactly one
        delivery.  Returns the number of records newly offered.
        """
        offered = 0
        for version in sorted(versions):
            if self.offer_log_record(log, version):
                offered += 1
        self.flush()
        return offered

    # -- consumer side (replicas) --------------------------------------------

    def subscribe(self, name: str, *, from_version: int = 0,
                  backfill: Iterable[RemoteWriteSetInfo] = ()) -> WritesetSubscription:
        """Open a replica subscription.

        ``from_version`` positions the cursor; ``backfill`` (typically the
        certifier log's records after that version) is delivered immediately
        as one initial batch so a late joiner starts complete without a
        separate pull protocol.
        """
        subscription = WritesetSubscription(self, name, from_version)
        self._subscriptions.append(subscription)
        backfill_batch = [
            info for info in backfill if info.commit_version > from_version
        ]
        if backfill_batch:
            # Only this subscriber missed these writesets.
            subscription._queue.append(backfill_batch)
        return subscription

    def attach_replica(self, certifier: "Certifier", replica: str,
                       from_version: int = 0) -> WritesetSubscription:
        """Subscribe a replica, backfilled from ``certifier``'s log.

        Also enrols the replica in the certifier's log-GC low-water-mark
        protocol, so an idle subscriber never has its log suffix pruned.
        One recipe shared by the functional service and the simulated node.
        """
        certifier.note_replica_version(replica, from_version)
        backfill = certifier.fetch_remote_writesets(from_version, replica=replica)
        return self.subscribe(replica, from_version=from_version, backfill=backfill)

    def detach_replica(self, name: str) -> int:
        """Close every subscription held under ``name``.

        The inverse of :meth:`attach_replica`: a disconnected replica must
        stop accumulating batches it will never poll.  Returns the number of
        subscriptions closed.
        """
        matching = [s for s in self._subscriptions if s.name == name]
        for subscription in matching:
            subscription.close()
        return len(matching)

    def _drop_subscription(self, subscription: WritesetSubscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def subscriptions(self) -> Iterator[WritesetSubscription]:
        return iter(self._subscriptions)

    # -- statistics ----------------------------------------------------------

    @property
    def stats(self) -> GroupCommitStats:
        """Batch-size statistics from the shared group-commit engine."""
        return self._batcher.stats

    def __repr__(self) -> str:
        return (
            f"WritesetStream(subscribers={len(self._subscriptions)}, "
            f"batches={self.stats.flushes})"
        )
