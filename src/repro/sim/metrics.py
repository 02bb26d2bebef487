"""Measurement collection for simulated experiments.

The collector mirrors what the paper reports: throughput in requests per
second (committed and total), "goodput" (Section 9.5's committed-only
throughput under forced aborts), and mean / percentile response times, split
by transaction class (read-only vs update) for the TPC-W figures.
Measurements only count transactions that *complete* inside the measurement
window, excluding warm-up.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TransactionRecord:
    """One completed transaction as seen by a client."""

    start_ms: float
    end_ms: float
    committed: bool
    readonly: bool
    replica: str
    aborted_reason: str | None = None

    @property
    def response_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class UtilizationTracker:
    """Named utilization samples gathered at the end of a run."""

    samples: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        self.samples[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        return self.samples.get(name, default)


class MetricsCollector:
    """Collects completed transactions over a measurement window."""

    def __init__(self, warmup_ms: float, measure_ms: float) -> None:
        self.warmup_ms = warmup_ms
        self.measure_ms = measure_ms
        self.records: list[TransactionRecord] = []
        self.ignored_warmup = 0
        self.utilization = UtilizationTracker()

    # -- recording ----------------------------------------------------------------

    @property
    def window_end_ms(self) -> float:
        return self.warmup_ms + self.measure_ms

    def record(self, record: TransactionRecord) -> None:
        """Record a completed transaction if it falls inside the window."""
        if record.end_ms < self.warmup_ms or record.end_ms > self.window_end_ms:
            self.ignored_warmup += 1
            return
        self.records.append(record)

    # -- throughput -----------------------------------------------------------------

    def _seconds(self) -> float:
        return self.measure_ms / 1000.0

    def throughput_tps(self, *, committed_only: bool = True) -> float:
        """Requests per second completed in the measurement window."""
        count = sum(1 for r in self.records if r.committed or not committed_only)
        return count / self._seconds() if self._seconds() > 0 else 0.0

    def goodput_tps(self) -> float:
        """Committed-transactions-per-second (the paper's goodput)."""
        return self.throughput_tps(committed_only=True)

    def offered_tps(self) -> float:
        """All completed requests per second, aborted ones included."""
        return self.throughput_tps(committed_only=False)

    def abort_rate(self) -> float:
        total = len(self.records)
        if total == 0:
            return 0.0
        return sum(1 for r in self.records if not r.committed) / total

    # -- response time -----------------------------------------------------------------

    def _response_times(self, *, readonly: bool | None = None,
                        committed_only: bool = True) -> list[float]:
        times = []
        for r in self.records:
            if committed_only and not r.committed:
                continue
            if readonly is not None and r.readonly != readonly:
                continue
            times.append(r.response_ms)
        return times

    def mean_response_ms(self, *, readonly: bool | None = None) -> float:
        times = self._response_times(readonly=readonly)
        return statistics.fmean(times) if times else 0.0

    def percentile_response_ms(self, percentile: float, *, readonly: bool | None = None) -> float:
        times = sorted(self._response_times(readonly=readonly))
        if not times:
            return 0.0
        index = min(len(times) - 1, int(round((percentile / 100.0) * (len(times) - 1))))
        return times[index]

    # -- breakdowns ------------------------------------------------------------------------

    def count(self, *, committed: bool | None = None, readonly: bool | None = None) -> int:
        total = 0
        for r in self.records:
            if committed is not None and r.committed != committed:
                continue
            if readonly is not None and r.readonly != readonly:
                continue
            total += 1
        return total

    def summary(self) -> dict[str, float]:
        return {
            "throughput_tps": self.goodput_tps(),
            "offered_tps": self.offered_tps(),
            "abort_rate": self.abort_rate(),
            "mean_response_ms": self.mean_response_ms(),
            "p95_response_ms": self.percentile_response_ms(95.0),
            "readonly_mean_response_ms": self.mean_response_ms(readonly=True),
            "update_mean_response_ms": self.mean_response_ms(readonly=False),
            "completed": float(len(self.records)),
        }
