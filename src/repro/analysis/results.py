"""Turning sweep results into the tables the paper reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.config import SystemKind
from repro.cluster.sweeps import ReplicaSweep


@dataclass
class ResultTable:
    """A simple column-oriented table of result rows."""

    columns: Sequence[str]
    rows: list[dict[str, object]] = field(default_factory=list)

    def add_row(self, row: Mapping[str, object]) -> None:
        self.rows.append({column: row.get(column) for column in self.columns})

    def column(self, name: str) -> list[object]:
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: object) -> "ResultTable":
        matching = [
            row for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        table = ResultTable(self.columns)
        table.rows = matching
        return table

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class SpeedupSummary:
    """The headline comparison the paper states in its abstract:
    Tashkent-MW / Tashkent-API versus Base at the largest replica count."""

    num_replicas: int
    base_tps: float
    tashkent_mw_tps: float
    tashkent_api_tps: float
    mw_speedup: float
    api_speedup: float

    def as_dict(self) -> dict[str, float]:
        return {
            "num_replicas": float(self.num_replicas),
            "base_tps": self.base_tps,
            "tashkent_mw_tps": self.tashkent_mw_tps,
            "tashkent_api_tps": self.tashkent_api_tps,
            "mw_speedup": self.mw_speedup,
            "api_speedup": self.api_speedup,
        }


def summarize_sweep(sweep: ReplicaSweep, *, num_replicas: int | None = None) -> SpeedupSummary:
    """Compute the MW/API-over-Base speedups from a sweep."""
    base_curve = sweep.curve(SystemKind.BASE)
    if not base_curve:
        raise ValueError("the sweep contains no Base measurements")
    target = num_replicas if num_replicas is not None else base_curve[-1].num_replicas

    def throughput(kind: SystemKind) -> float:
        for point in sweep.curve(kind):
            if point.num_replicas == target:
                return point.throughput_tps
        return 0.0

    base_tps = throughput(SystemKind.BASE)
    mw_tps = throughput(SystemKind.TASHKENT_MW)
    api_tps = throughput(SystemKind.TASHKENT_API)
    return SpeedupSummary(
        num_replicas=target,
        base_tps=base_tps,
        tashkent_mw_tps=mw_tps,
        tashkent_api_tps=api_tps,
        mw_speedup=mw_tps / base_tps if base_tps else 0.0,
        api_speedup=api_tps / base_tps if base_tps else 0.0,
    )


def sweep_to_table(sweep: ReplicaSweep) -> ResultTable:
    """Flatten a sweep into a :class:`ResultTable` (one row per point)."""
    columns = (
        "system", "workload", "replicas", "dedicated_io", "throughput_tps",
        "mean_response_ms", "p95_response_ms", "abort_rate",
        "writesets_per_fsync", "replica_fsyncs", "certifier_fsyncs",
    )
    table = ResultTable(columns)
    for row in sweep.rows():
        table.add_row(row)
    return table


def crossover_replicas(sweep: ReplicaSweep, winner: SystemKind, loser: SystemKind) -> int | None:
    """Smallest replica count at which ``winner`` beats ``loser``.

    The paper's headline claim is that the Tashkent systems pull away from
    Base as soon as remote writesets start flowing (two replicas onwards);
    this helper lets tests assert where the crossover lands.
    """
    loser_by_n = {p.num_replicas: p.throughput_tps for p in sweep.curve(loser)}
    for point in sweep.curve(winner):
        other = loser_by_n.get(point.num_replicas)
        if other is not None and point.throughput_tps > other:
            return point.num_replicas
    return None
