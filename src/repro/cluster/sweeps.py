"""Replica-count sweeps: the series plotted in the paper's figures.

Every throughput/response-time figure in the paper is a sweep over the
number of replicas (x axis) for a set of systems (one curve each).
:func:`run_replica_sweep` produces exactly that: a list of
:class:`SweepPoint` per system, which the benchmark harness renders as the
same rows the paper plots and which EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.core.config import SystemKind, WorkloadName
from repro.cluster.experiment import ExperimentConfig, ExperimentResult, run_experiment

#: Replica counts used by default: a compressed version of the paper's 1-15
#: x axis that still shows the linear growth of Base and the shape of the
#: Tashkent curves without simulating every intermediate point.
DEFAULT_REPLICA_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 12, 15)

#: The four curves of Figures 4-11.
DEFAULT_SYSTEMS: tuple[SystemKind, ...] = (
    SystemKind.BASE,
    SystemKind.TASHKENT_MW,
    SystemKind.TASHKENT_API,
    SystemKind.TASHKENT_API_NO_CERT,
)


@dataclass(frozen=True)
class SweepPoint:
    """One (system, replica count) measurement."""

    system: SystemKind
    num_replicas: int
    result: ExperimentResult

    @property
    def throughput_tps(self) -> float:
        return self.result.throughput_tps

    @property
    def mean_response_ms(self) -> float:
        return self.result.mean_response_ms


@dataclass
class ReplicaSweep:
    """The full set of curves for one workload / IO configuration."""

    workload: WorkloadName
    dedicated_io: bool
    points: list[SweepPoint] = field(default_factory=list)

    def curve(self, system: SystemKind) -> list[SweepPoint]:
        """The points of one system, ordered by replica count."""
        return sorted(
            (p for p in self.points if p.system is system),
            key=lambda p: p.num_replicas,
        )

    def throughput_series(self, system: SystemKind) -> list[tuple[int, float]]:
        return [(p.num_replicas, p.throughput_tps) for p in self.curve(system)]

    def response_series(self, system: SystemKind) -> list[tuple[int, float]]:
        return [(p.num_replicas, p.mean_response_ms) for p in self.curve(system)]

    def max_throughput(self, system: SystemKind) -> float:
        curve = self.curve(system)
        return max((p.throughput_tps for p in curve), default=0.0)

    def speedup_over(self, system: SystemKind, baseline: SystemKind,
                     num_replicas: int | None = None) -> float:
        """Throughput ratio system/baseline at ``num_replicas`` (default: max)."""
        def at(kind: SystemKind) -> float:
            curve = self.curve(kind)
            if not curve:
                return 0.0
            if num_replicas is None:
                return curve[-1].throughput_tps
            for point in curve:
                if point.num_replicas == num_replicas:
                    return point.throughput_tps
            return 0.0

        denominator = at(baseline)
        return at(system) / denominator if denominator else 0.0

    def rows(self) -> list[dict[str, object]]:
        return [point.result.as_row() for point in sorted(
            self.points, key=lambda p: (p.system.value, p.num_replicas)
        )]


def run_replica_sweep(
    template: ExperimentConfig,
    *,
    systems: Sequence[SystemKind] = DEFAULT_SYSTEMS,
    replica_counts: Iterable[int] = DEFAULT_REPLICA_COUNTS,
) -> ReplicaSweep:
    """Run ``template`` at every replica count, once per system.

    Every point is ``template`` with its ``system`` and ``num_replicas``
    replaced, so each other axis — IO configuration, forced aborts,
    certifier shards, crash schedule, GC headroom, windows, seed — is set
    once on the template and holds across the whole sweep.
    """
    sweep = ReplicaSweep(workload=template.workload, dedicated_io=template.dedicated_io)
    for system in systems:
        for num_replicas in replica_counts:
            config = replace(template, system=system, num_replicas=num_replicas)
            sweep.points.append(
                SweepPoint(system=system, num_replicas=num_replicas,
                           result=run_experiment(config))
            )
    return sweep
