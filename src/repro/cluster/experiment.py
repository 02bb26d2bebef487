"""Experiment configuration, execution and results.

:func:`run_experiment` is the single entry point the benchmark harness uses:
it builds the simulated cluster for one ``(system, workload, replica count,
IO configuration)`` point, runs it for a warm-up plus measurement window, and
returns an :class:`ExperimentResult` with the same quantities the paper
plots — throughput (goodput), response times (split read-only / update),
abort rates, fsync accounting and device utilizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.config import (
    DiskConfig,
    ReplicationConfig,
    SystemKind,
    WorkloadName,
    validate_certifier_crash_schedule,
)
from repro.errors import ConfigurationError
from repro.sim.kernel import Environment
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import RandomStreams
from repro.workloads.spec import WorkloadSpec, workload_by_name
from repro.cluster.base_system import BaseModel
from repro.cluster.models import SystemModel
from repro.cluster.standalone import StandaloneModel
from repro.cluster.tashkent_api import TashkentAPIModel
from repro.cluster.tashkent_mw import TashkentMWModel


@dataclass(frozen=True)
class ExperimentConfig:
    """One point of the evaluation."""

    system: SystemKind = SystemKind.TASHKENT_MW
    workload: WorkloadName = WorkloadName.ALL_UPDATES
    num_replicas: int = 1
    #: ``None`` uses the workload's default (the paper's 85%-of-peak sizing).
    clients_per_replica: int | None = None
    #: Dedicated logging channel (the paper's ramdisk configuration).
    dedicated_io: bool = False
    #: Forced system-wide abort rate at the certifier (Section 9.5).
    forced_abort_rate: float = 0.0
    #: Number of certification shards at the certifier (1 = the paper's
    #: single certifier; see ``docs/certifier.md``).
    certifier_shards: int = 1
    #: Bound on log records per certifier fsync (``None`` = unbounded, the
    #: seed behaviour; see :class:`~repro.core.config.ReplicationConfig`).
    certifier_max_flush_batch: int | None = None
    #: Deterministic shard-leader outages, ``(shard_id, crash_at_ms,
    #: recover_at_ms)`` each (see :class:`~repro.core.config.
    #: ReplicationConfig.certifier_crash_schedule`).  Times are absolute
    #: simulation time, so a window placed inside the measurement window
    #: shows up as the availability dip the recovery benchmark quantifies.
    certifier_crash_schedule: tuple[tuple[int, float, float], ...] = ()
    #: GC headroom the simulated certifier keeps below the replica low-water
    #: mark (``None`` = the sim node's default; see
    #: :class:`~repro.core.config.ReplicationConfig.certifier_gc_headroom`).
    certifier_gc_headroom: int | None = None
    warmup_ms: float = 1_000.0
    measure_ms: float = 4_000.0
    seed: int = 20060418

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ConfigurationError("num_replicas must be >= 1")
        if self.system is SystemKind.STANDALONE and self.num_replicas != 1:
            raise ConfigurationError("a standalone system has exactly one database")
        if self.measure_ms <= 0 or self.warmup_ms < 0:
            raise ConfigurationError("measurement window must be positive")
        validate_certifier_crash_schedule(self.certifier_crash_schedule,
                                          self.certifier_shards)

    def replication_config(self, workload: WorkloadSpec) -> ReplicationConfig:
        clients = self.clients_per_replica or workload.default_clients_per_replica
        disk = DiskConfig(dedicated_log_channel=self.dedicated_io)
        return ReplicationConfig(
            system=self.system,
            num_replicas=self.num_replicas,
            clients_per_replica=clients,
            disk=disk,
            forced_abort_rate=self.forced_abort_rate,
            certifier_shards=self.certifier_shards,
            certifier_max_flush_batch=self.certifier_max_flush_batch,
            certifier_crash_schedule=self.certifier_crash_schedule,
            certifier_gc_headroom=self.certifier_gc_headroom,
            rng_seed=self.seed,
        )

    def with_overrides(self, **overrides: object) -> "ExperimentConfig":
        return replace(self, **overrides)


@dataclass
class ExperimentResult:
    """Measured outputs of one experiment point."""

    config: ExperimentConfig
    throughput_tps: float
    offered_tps: float
    abort_rate: float
    mean_response_ms: float
    p95_response_ms: float
    readonly_response_ms: float
    update_response_ms: float
    completed_transactions: int
    per_replica_tps: Mapping[str, float] = field(default_factory=dict)
    utilization: Mapping[str, float] = field(default_factory=dict)

    @property
    def goodput_tps(self) -> float:
        """Alias matching the paper's terminology in Section 9.5."""
        return self.throughput_tps

    @property
    def writesets_per_fsync(self) -> float:
        return float(self.utilization.get("certifier_writesets_per_fsync", 0.0))

    @property
    def certifier_fsyncs(self) -> int:
        return int(self.utilization.get("certifier_fsyncs", 0))

    @property
    def replica_fsyncs(self) -> int:
        return int(self.utilization.get("replica_total_fsyncs", 0))

    @property
    def artificial_conflict_rate(self) -> float:
        return float(self.utilization.get("artificial_conflict_rate", 0.0))

    def as_row(self) -> dict[str, object]:
        """Flat representation used by the reporting helpers and benches."""
        return {
            "system": self.config.system.value,
            "workload": self.config.workload.value,
            "replicas": self.config.num_replicas,
            "dedicated_io": self.config.dedicated_io,
            "certifier_shards": self.config.certifier_shards,
            "throughput_tps": round(self.throughput_tps, 1),
            "mean_response_ms": round(self.mean_response_ms, 1),
            "p95_response_ms": round(self.p95_response_ms, 1),
            "abort_rate": round(self.abort_rate, 4),
            "writesets_per_fsync": round(self.writesets_per_fsync, 1),
            "replica_fsyncs": self.replica_fsyncs,
            "certifier_fsyncs": self.certifier_fsyncs,
        }


_MODEL_CLASSES: dict[SystemKind, type[SystemModel]] = {
    SystemKind.STANDALONE: StandaloneModel,
    SystemKind.BASE: BaseModel,
    SystemKind.TASHKENT_MW: TashkentMWModel,
    SystemKind.TASHKENT_API: TashkentAPIModel,
    SystemKind.TASHKENT_API_NO_CERT: TashkentAPIModel,
}


def build_model(config: ExperimentConfig) -> tuple[SystemModel, MetricsCollector, Environment]:
    """Construct the simulation for ``config`` without running it."""
    workload = workload_by_name(config.workload, num_replicas=config.num_replicas)
    replication = config.replication_config(workload)
    env = Environment()
    rng = RandomStreams(config.seed)
    metrics = MetricsCollector(warmup_ms=config.warmup_ms, measure_ms=config.measure_ms)
    model_cls = _MODEL_CLASSES[config.system]
    model = model_cls(env, replication, workload, rng, metrics)
    return model, metrics, env


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment point and return its measurements."""
    model, metrics, env = build_model(config)
    stop_ms = metrics.window_end_ms
    model.start_clients(stop_ms)
    env.run_until(stop_ms)
    if env.failed_processes:
        failed = env.failed_processes[0]
        raise RuntimeError(
            f"simulation process {failed.name!r} crashed: {failed.value!r}"
        ) from (failed.value if isinstance(failed.value, BaseException) else None)
    utilization = model.collect_utilization()
    return ExperimentResult(
        config=config,
        throughput_tps=metrics.goodput_tps(),
        offered_tps=metrics.offered_tps(),
        abort_rate=metrics.abort_rate(),
        mean_response_ms=metrics.mean_response_ms(),
        p95_response_ms=metrics.percentile_response_ms(95.0),
        readonly_response_ms=metrics.mean_response_ms(readonly=True),
        update_response_ms=metrics.mean_response_ms(readonly=False),
        completed_transactions=len(metrics.records),
        per_replica_tps=metrics.per_replica_throughput(),
        utilization=utilization,
    )
