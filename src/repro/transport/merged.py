"""Version-ordered merge of per-shard writeset subscriptions.

A sharded certifier propagates each committed writeset on exactly one
stream — its *home shard*'s — so the per-shard streams carry disjoint,
ascending slices of the global commit order.  A replica must nevertheless
apply writesets in strict global version order (the proxy's watermark filter
drops anything at or below ``replica_version``, so an out-of-order delivery
would be lost forever).

:class:`MergedSubscription` is the replica-side merge.  It exploits the one
structural guarantee the sharded certifier provides: **global commit
versions are dense over commits** (the sequencer allocates a version only
when a transaction commits).  Every global version therefore exists on
exactly one home stream, and the merge needs no inter-shard frontier
protocol: drain all parts, hold what arrived early, and release the
contiguous run starting right above the cursor.  A version held back is
simply one whose home shard has not flushed yet; it is released the moment
that batch lands — deterministically, with no timeouts or reordering
windows.

The class mirrors the :class:`~repro.transport.stream.WritesetSubscription`
consumer surface (``poll`` / ``poll_flat`` / ``advance_to`` / ``close`` /
``pending_*``), so the proxy refresh path, the scheduler's lag signal and
``Database.apply_writeset_batch`` work unchanged against either shape.

The producer half lives here too, once for both stacks:
:func:`publish_frontier` places what the durable frontier newly covers on
the home-shard streams, and :func:`subscribe_merged` attaches a replica to
all of them behind one merged, backfilled view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.certification import RemoteWriteSetInfo
from repro.transport.stream import WritesetStream, WritesetSubscription

if TYPE_CHECKING:
    from repro.core.sharding import ShardedCertifier


class MergedSubscription:
    """One replica's version-ordered view over N per-shard subscriptions."""

    def __init__(
        self,
        parts: Iterable[WritesetSubscription],
        *,
        from_version: int = 0,
        name: str = "",
        backfill: Iterable[RemoteWriteSetInfo] = (),
    ) -> None:
        self.parts = list(parts)
        self.name = name
        #: Highest global version released (or skipped via :meth:`advance_to`).
        self.version = from_version
        #: Writesets that arrived ahead of a gap, keyed by global version.
        self._held: dict[int, RemoteWriteSetInfo] = {}
        self.batches_received = 0
        self.writesets_received = 0
        for info in backfill:
            if info.commit_version > from_version:
                self._held[info.commit_version] = info

    # -- consumption ---------------------------------------------------------

    def poll(self) -> list[list[RemoteWriteSetInfo]]:
        """Drain the parts and release the contiguous version-ordered prefix.

        Returns at most one merged batch (interleaved across shards by
        global version); writesets whose predecessors have not been
        delivered yet stay held until a later poll.
        """
        for part in self.parts:
            for batch in part.poll():
                for info in batch:
                    if info.commit_version > self.version:
                        self._held[info.commit_version] = info
        batch: list[RemoteWriteSetInfo] = []
        while (self.version + 1) in self._held:
            self.version += 1
            batch.append(self._held.pop(self.version))
        if not batch:
            return []
        self.batches_received += 1
        self.writesets_received += len(batch)
        return [batch]

    def poll_flat(self) -> list[RemoteWriteSetInfo]:
        """Drain pending batches coalesced into one flat, version-ordered list."""
        return [info for batch in self.poll() for info in batch]

    def advance_to(self, version: int) -> None:
        """Move the cursor forward (versions received out-of-band).

        Held writesets at or below the cursor are dropped on the spot, and
        the advance is forwarded to every part so their queues trim in-band
        exactly as with a single subscription.
        """
        if version > self.version:
            self.version = version
            for held_version in [v for v in self._held if v <= version]:
                del self._held[held_version]
        for part in self.parts:
            part.advance_to(version)

    # -- interrogation -------------------------------------------------------

    @property
    def held_count(self) -> int:
        """Writesets waiting for an earlier version to arrive."""
        return len(self._held)

    @property
    def pending_batches(self) -> int:
        return sum(part.pending_batches for part in self.parts) + (
            1 if self._held else 0
        )

    @property
    def pending_writesets(self) -> int:
        """Writesets queued anywhere on the path to this replica (the
        scheduler's transport-lag signal)."""
        return sum(part.pending_writesets for part in self.parts) + len(self._held)

    def close(self) -> None:
        for part in self.parts:
            part.close()

    def __repr__(self) -> str:
        return (
            f"MergedSubscription(name={self.name!r}, parts={len(self.parts)}, "
            f"version={self.version}, held={self.held_count})"
        )


def publish_frontier(core: "ShardedCertifier", streams: Sequence[WritesetStream],
                     *, up_to: int | None = None) -> None:
    """Deliver the records up to ``up_to`` on their home-shard streams.

    One call per frontier advance.  The frontier-ordered walk itself is
    :meth:`ShardedCertifier.take_propagatable
    <repro.core.sharding.ShardedCertifier.take_propagatable>` (``None``
    means "whatever is fully durable", so a flush that completes the last
    outstanding fragment propagates its own records); this function only
    places each record on its home stream and flushes every stream it
    touched, so each call is one batch per home shard.  Strict global order
    means each shard stream carries an ascending (sparse) slice of the
    commit order, so the replica-side :class:`MergedSubscription` can
    release contiguous runs.
    """
    touched: set[int] = set()
    for record in core.take_propagatable(up_to):
        streams[record.home_shard].offer(
            RemoteWriteSetInfo(
                commit_version=record.commit_version,
                writeset=record.writeset,
                origin_replica=record.origin_replica,
                conflict_free_back_to=core.certified_back_to(record.commit_version),
            ),
        )
        touched.add(record.home_shard)
    for shard_id in touched:
        streams[shard_id].flush()


def subscribe_merged(core: "ShardedCertifier", streams: Sequence[WritesetStream],
                     replica: str, from_version: int = 0) -> MergedSubscription:
    """Attach ``replica`` to every shard stream behind one merged view.

    Enrols the replica in the log-GC low-water-mark protocol and backfills
    from the global directory so a late joiner starts complete — but only
    with what has been released: a commit still waiting for its log write
    reaches the subscription through its stream, once durable.
    """
    core.note_replica_version(replica, from_version)
    backfill = core.fetch_remote_writesets(
        from_version, replica=replica, up_to=core.propagated_version)
    parts = [stream.subscribe(replica, from_version=from_version)
             for stream in streams]
    return MergedSubscription(parts, from_version=from_version, name=replica,
                              backfill=backfill)
