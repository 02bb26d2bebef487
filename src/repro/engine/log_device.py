"""Log devices: where the write-ahead log puts its bytes.

The engine's WAL and the certifier's persistent log both write through a
:class:`LogDevice`.  Two implementations are provided:

* :class:`CountingLogDevice` — an in-memory device that retains the records
  and counts fsyncs.  It is the default for the functional path and for
  tests; the fsync count is exactly the statistic the paper's analysis is
  about (commits per synchronous write).
* :class:`FileLogDevice` — an append-only file on the real filesystem with a
  real ``os.fsync``.  It exists so the durability path can be exercised end
  to end (and so the library could be pointed at a real disk), but the
  evaluation harness never relies on wall-clock fsync latency.
"""

from __future__ import annotations

import os
from typing import Callable, Protocol


class LogDevice(Protocol):
    """Minimal interface the WAL and certifier log writer need."""

    def append(self, payload: bytes) -> None:
        """Buffer ``payload`` for the next sync (no durability yet)."""

    def sync(self) -> None:
        """Make everything appended so far durable (one synchronous write)."""

    @property
    def sync_count(self) -> int:
        """Number of synchronous writes performed so far."""

    @property
    def bytes_written(self) -> int:
        """Total bytes appended so far."""


def ship(device: LogDevice, on_durable: Callable[[], None]) -> None:
    """Send everything appended to ``device`` on its way to disk.

    ``on_durable()`` runs once that write is durable.  A *streaming* device
    (one with its own ``ship(on_durable)`` — the write is a round trip to
    somebody else's disk) returns at once, keeps any number of shipped
    batches in flight and calls back, in shipping order, from whichever
    thread learns of the acknowledgement; its ``sync()`` is ship + wait for
    everything shipped.  Any other device syncs right here, so the callback
    has run by the time this returns.
    """
    if hasattr(device, "ship"):
        device.ship(on_durable)
    else:
        device.sync()
        on_durable()


class CountingLogDevice:
    """In-memory log device that records appended payloads and counts syncs."""

    def __init__(self) -> None:
        self._durable: list[bytes] = []
        self._pending: list[bytes] = []
        self._sync_count = 0
        self._bytes_written = 0

    def append(self, payload: bytes) -> None:
        self._pending.append(payload)
        self._bytes_written += len(payload)

    def sync(self) -> None:
        self._durable.extend(self._pending)
        self._pending.clear()
        self._sync_count += 1

    @property
    def sync_count(self) -> int:
        return self._sync_count

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    # -- extras used by recovery tests ---------------------------------------

    @property
    def durable_payloads(self) -> list[bytes]:
        """Payloads that survived the last sync (what a crash preserves)."""
        return list(self._durable)

    @property
    def pending_payloads(self) -> list[bytes]:
        """Payloads appended but not yet synced (lost on crash)."""
        return list(self._pending)

    def simulate_crash(self) -> int:
        """Drop non-durable payloads; returns how many were lost."""
        lost = len(self._pending)
        self._pending.clear()
        return lost


class FileLogDevice:
    """Append-only file-backed log device using a real fsync."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._file = open(path, "ab")
        self._sync_count = 0
        self._bytes_written = 0

    def append(self, payload: bytes) -> None:
        self._file.write(payload)
        self._file.write(b"\n")
        self._bytes_written += len(payload) + 1

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._sync_count += 1

    @property
    def sync_count(self) -> int:
        return self._sync_count

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def close(self) -> None:
        self._file.close()

    def read_lines(self) -> list[bytes]:
        """Read back all appended payloads (recovery)."""
        self._file.flush()
        with open(self.path, "rb") as handle:
            return [line.rstrip(b"\n") for line in handle if line.strip()]

    def __enter__(self) -> "FileLogDevice":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
