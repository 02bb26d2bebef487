"""Group-commit batching policy.

The heart of the paper's argument is arithmetic about how many commit
records share one synchronous disk write:

* a standalone database groups every commit that is pending when the log
  writer wakes up into a single fsync;
* Base cannot group at all — the middleware must submit commits serially to
  preserve the global order, so every local commit *and* every batch of
  remote writesets costs one fsync (2 fsyncs per local update transaction
  once remote writesets start flowing, Section 9.2);
* Tashkent-MW groups at the certifier: every writeset that arrives while the
  previous flush is in progress joins the next flush (the paper reports an
  average of 29 writesets per fsync at 15 replicas);
* Tashkent-API groups inside the database, limited by artificial conflicts
  among remote writesets which force serialisation points.

:class:`GroupCommitBatcher` models the queue of pending commit requests in
front of a single log-writer thread.  It is used by the engine's WAL, by the
functional certifier service and by the simulated certifier/database nodes,
so the batching statistics reported by the benchmarks come from one shared
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, TypeVar

T = TypeVar("T")


@dataclass
class GroupCommitStats:
    """Aggregate statistics about flush batching.

    Per-flush state is O(1): instead of remembering every batch size forever
    (the seed kept an ever-growing ``batch_sizes`` list — one entry per flush
    for the lifetime of the process), sizes are folded into a running
    histogram over power-of-two buckets.  ``largest_batch`` and the mean
    (``records_flushed / flushes``) are exact; the distribution is available
    at bucket granularity via :attr:`batch_size_histogram`.
    """

    flushes: int = 0
    records_flushed: int = 0
    largest_batch: int = 0
    #: Flush count per power-of-two batch-size bucket: key ``b`` counts
    #: batches of size in ``(b/2, b]`` (so 1, 2, 4, 8, ... records).  At most
    #: ~60 keys ever exist, regardless of how long the process runs.
    batch_size_histogram: dict[int, int] = field(default_factory=dict)

    @staticmethod
    def _bucket(batch_size: int) -> int:
        return 1 << (batch_size - 1).bit_length()

    def record_flush(self, batch_size: int) -> None:
        if batch_size <= 0:
            return
        self.flushes += 1
        self.records_flushed += batch_size
        self.largest_batch = max(self.largest_batch, batch_size)
        bucket = self._bucket(batch_size)
        self.batch_size_histogram[bucket] = self.batch_size_histogram.get(bucket, 0) + 1

    @property
    def average_batch_size(self) -> float:
        """Mean number of commit records per fsync."""
        return self.records_flushed / self.flushes if self.flushes else 0.0

    def merge(self, other: "GroupCommitStats") -> None:
        self.flushes += other.flushes
        self.records_flushed += other.records_flushed
        self.largest_batch = max(self.largest_batch, other.largest_batch)
        for bucket, count in other.batch_size_histogram.items():
            self.batch_size_histogram[bucket] = (
                self.batch_size_histogram.get(bucket, 0) + count
            )


class GroupCommitBatcher(Generic[T]):
    """Queue of pending commit records waiting for the next flush.

    The protocol is: producers :meth:`enqueue` records; when the log writer
    is free it calls :meth:`take_batch`, performs the (real or simulated)
    fsync, then calls :meth:`complete_batch`.  Anything enqueued while the
    flush is in flight waits for the next one — exactly the behaviour of a
    single log-writer thread with an fsync in progress.
    """

    def __init__(self, max_batch_size: int | None = None) -> None:
        self._pending: list[T] = []
        self._in_flight: list[T] = []
        self._max_batch_size = max_batch_size
        self.stats = GroupCommitStats()

    # -- producer side -------------------------------------------------------

    def enqueue(self, record: T) -> None:
        """Add a commit record to the queue for the next flush."""
        self._pending.append(record)

    def enqueue_many(self, records: Iterable[T]) -> None:
        for record in records:
            self.enqueue(record)

    def drop_pending(self, unwanted: Callable[[T], bool]) -> int:
        """Remove queued records nobody will flush; returns how many went."""
        kept = [record for record in self._pending if not unwanted(record)]
        dropped = len(self._pending) - len(kept)
        self._pending = kept
        return dropped

    # -- log-writer side -----------------------------------------------------

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def take_batch(self) -> list[T]:
        """Claim the records for the next flush.

        Raises ``RuntimeError`` if a flush is already in progress — the log
        writer is single-threaded by construction.
        """
        if self._in_flight:
            raise RuntimeError("a flush is already in progress")
        if self._max_batch_size is None:
            batch = self._pending
            self._pending = []
        else:
            batch = self._pending[: self._max_batch_size]
            self._pending = self._pending[self._max_batch_size:]
        self._in_flight = list(batch)
        return batch

    def complete_batch(self) -> list[T]:
        """Mark the in-flight batch durable and return it."""
        batch = self._in_flight
        self._in_flight = []
        self.stats.record_flush(len(batch))
        return batch

    def abandon_batch(self) -> list[T]:
        """Return the in-flight batch to the head of the queue (crash path)."""
        batch = self._in_flight
        self._in_flight = []
        self._pending = batch + self._pending
        return batch
