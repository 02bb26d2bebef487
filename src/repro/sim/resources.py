"""Shared resources for the simulation kernel.

:class:`Resource` is a FIFO server with fixed capacity (a CPU, a disk
channel, a commit lock); :class:`Store` is an unbounded FIFO queue of items
(a request queue in front of a server process).
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event


class Resource:
    """A FIFO resource with ``capacity`` concurrent users."""

    def __init__(self, env: Environment, capacity: int = 1, *, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users = 0
        self._waiters: deque[Event] = deque()
        # Utilization accounting (single-capacity resources only give a
        # meaningful busy fraction, but the bookkeeping is harmless otherwise).
        self._busy_since: float | None = None
        self._busy_time = 0.0

    # -- acquire / release -----------------------------------------------------

    def request(self) -> Event:
        """Return an event that triggers when the resource is granted."""
        event = self.env.event()
        if self._users < self.capacity:
            self._grant(event)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one unit of the resource (FIFO hand-off to waiters)."""
        if self._users <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._users -= 1
        if self._users == 0 and self._busy_since is not None:
            self._busy_time += self.env.now - self._busy_since
            self._busy_since = None
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, event: Event) -> None:
        self._users += 1
        if self._busy_since is None:
            self._busy_since = self.env.now
        event.succeed(self)

    # -- convenience process fragments ---------------------------------------------

    def hold(self, duration: float) -> Generator:
        """Process fragment: acquire, hold for ``duration``, release.

        Usage inside a process: ``yield from resource.hold(2.5)``.
        """
        yield self.request()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()

    # -- interrogation ------------------------------------------------------------------

    def busy_time(self) -> float:
        """Total time the resource has had at least one user."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.env.now - self._busy_since
        return total

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of time busy over ``elapsed`` (defaults to env.now)."""
        window = self.env.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time() / window)

    def __repr__(self) -> str:
        return (
            f"Resource(name={self.name!r}, users={self._users}/{self.capacity}, "
            f"queue={len(self._waiters)})"
        )


class Store:
    """An unbounded FIFO queue of items with blocking gets."""

    def __init__(self, env: Environment, *, name: str = "store") -> None:
        self.env = env
        self.name = name
        self._items: deque[object] = deque()
        self._getters: deque[Event] = deque()
        self.total_put = 0

    def put(self, item: object) -> None:
        """Add ``item``; wakes the oldest waiting getter if any."""
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event delivering the next item (immediately if available)."""
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_all(self) -> list[object]:
        """Drain every queued item without blocking (group-commit batching)."""
        items = list(self._items)
        self._items.clear()
        return items

    @property
    def pending(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Store(name={self.name!r}, items={len(self._items)}, getters={len(self._getters)})"
