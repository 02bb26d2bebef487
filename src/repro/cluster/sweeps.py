"""Replica-count sweeps: the series plotted in the paper's figures.

Every throughput/response-time figure in the paper is a sweep over the
number of replicas (x axis) for a set of systems (one curve each).
:func:`run_replica_sweep` produces exactly that: a list of
:class:`SweepPoint` per system, which the benchmark harness renders as the
same rows the paper plots and which EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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
    workload: WorkloadName,
    *,
    systems: Sequence[SystemKind] = DEFAULT_SYSTEMS,
    replica_counts: Iterable[int] = DEFAULT_REPLICA_COUNTS,
    dedicated_io: bool = False,
    forced_abort_rate: float = 0.0,
    clients_per_replica: int | None = None,
    routing: str | None = None,
    certifier_shards: int = 1,
    certifier_max_flush_batch: int | None = None,
    certifier_crash_schedule: tuple[tuple[int, float, float], ...] = (),
    certifier_gc_headroom: int | None = None,
    workload_options: Mapping[str, object] | None = None,
    warmup_ms: float = 1_000.0,
    measure_ms: float = 4_000.0,
    seed: int = 20060418,
) -> ReplicaSweep:
    """Run the replica-count sweep for ``workload`` across ``systems``.

    ``routing`` selects a cluster-scheduler policy (``None`` = the paper's
    pinned clients), so a figure sweep can be re-run in routed mode and
    compared point-for-point against the pinned curves.  ``certifier_shards``
    re-runs the same sweep against a sharded certifier (with
    ``certifier_max_flush_batch`` bounding each shard's fsync group), so the
    figures can be regenerated with the certifier scaled out.
    ``certifier_crash_schedule`` injects deterministic shard-leader outages
    into every point of the sweep — the availability axis: each curve shows
    what the paper's workloads look like while a certifier shard crashes and
    fails over mid-measurement.  ``certifier_gc_headroom`` sweeps the GC
    headroom (snapshot cadence vs. retained-suffix length).
    """
    sweep = ReplicaSweep(workload=workload, dedicated_io=dedicated_io)
    for system in systems:
        for num_replicas in replica_counts:
            config = ExperimentConfig(
                system=system,
                workload=workload,
                num_replicas=num_replicas,
                clients_per_replica=clients_per_replica,
                dedicated_io=dedicated_io,
                forced_abort_rate=forced_abort_rate,
                routing=routing,
                certifier_shards=certifier_shards,
                certifier_max_flush_batch=certifier_max_flush_batch,
                certifier_crash_schedule=certifier_crash_schedule,
                certifier_gc_headroom=certifier_gc_headroom,
                workload_options=workload_options,
                warmup_ms=warmup_ms,
                measure_ms=measure_ms,
                seed=seed,
            )
            sweep.points.append(
                SweepPoint(system=system, num_replicas=num_replicas,
                           result=run_experiment(config))
            )
    return sweep
