"""Configuration objects shared across the library.

The defaults encode the calibration constants reported in the paper's
evaluation section (Section 9): an ~8 ms fsync (uniform between 6 and 12 ms),
a switched 1 Gbps LAN, 10 closed-loop clients per replica for AllUpdates, the
average writeset sizes per benchmark, and so on.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class SystemKind(str, enum.Enum):
    """The four system variants evaluated in the paper.

    ``STANDALONE`` is the single non-replicated SI database used as the
    reference point; ``BASE`` separates ordering (middleware) from durability
    (database) and therefore commits serially; ``TASHKENT_MW`` moves
    durability into the certifier; ``TASHKENT_API`` passes the global commit
    order to the database; ``TASHKENT_API_NO_CERT`` is the paper's
    ``tashAPInoCERT`` ablation where the certifier skips its own disk write.
    """

    STANDALONE = "standalone"
    BASE = "base"
    TASHKENT_MW = "tashkent-mw"
    TASHKENT_API = "tashkent-api"
    TASHKENT_API_NO_CERT = "tashkent-api-nocert"

    @property
    def durability_in_database(self) -> bool:
        """Whether the database replica performs synchronous commit writes."""
        return self in (
            SystemKind.STANDALONE,
            SystemKind.BASE,
            SystemKind.TASHKENT_API,
            SystemKind.TASHKENT_API_NO_CERT,
        )

    @property
    def durability_in_certifier(self) -> bool:
        """Whether the certifier log write is on the commit critical path."""
        return self in (
            SystemKind.BASE,
            SystemKind.TASHKENT_MW,
            SystemKind.TASHKENT_API,
        )

    @property
    def supports_ordered_commit(self) -> bool:
        """Whether the database accepts ``COMMIT <version>`` from the proxy."""
        return self in (SystemKind.TASHKENT_API, SystemKind.TASHKENT_API_NO_CERT)


class WorkloadName(str, enum.Enum):
    """The three benchmarks used in the paper's evaluation."""

    ALL_UPDATES = "allupdates"
    TPC_B = "tpcb"
    TPC_W = "tpcw"


#: Average writeset sizes in bytes reported by the paper (Section 9.1).
WRITESET_SIZE_BYTES = {
    WorkloadName.ALL_UPDATES: 54,
    WorkloadName.TPC_B: 158,
    WorkloadName.TPC_W: 275,
}


@dataclass(frozen=True)
class DiskConfig:
    """Timing model of the durability IO channel.

    ``fsync_mean_ms`` and the min/max bounds follow the paper: "On our system
    fsync takes about 8ms, but the actual time varies depending on where the
    data resides on disk (6ms-12ms)".  ``dedicated_log_channel`` corresponds
    to the paper's ramdisk configuration in which the logging channel does
    not compete with database page reads and write-back.
    """

    fsync_mean_ms: float = 8.0
    fsync_min_ms: float = 6.0
    fsync_max_ms: float = 12.0
    dedicated_log_channel: bool = False

    def __post_init__(self) -> None:
        if self.fsync_min_ms <= 0 or self.fsync_max_ms < self.fsync_min_ms:
            raise ConfigurationError("fsync bounds must satisfy 0 < min <= max")
        if not (self.fsync_min_ms <= self.fsync_mean_ms <= self.fsync_max_ms):
            raise ConfigurationError("fsync mean must lie within [min, max]")


@dataclass(frozen=True)
class NetworkConfig:
    """Timing model of the switched LAN connecting replicas and certifier."""

    one_way_latency_ms: float = 0.1
    per_kb_ms: float = 0.008
    jitter_ms: float = 0.02

    def __post_init__(self) -> None:
        if self.one_way_latency_ms < 0 or self.per_kb_ms < 0 or self.jitter_ms < 0:
            raise ConfigurationError("network latencies must be non-negative")

    def message_delay_ms(self, size_bytes: int) -> float:
        """Deterministic part of the delay for a message of ``size_bytes``."""
        return self.one_way_latency_ms + (size_bytes / 1024.0) * self.per_kb_ms


def validate_certifier_crash_schedule(
    schedule: tuple[tuple[int, float, float], ...], num_shards: int
) -> None:
    """Validate a ``certifier_crash_schedule`` against ``num_shards``.

    Shared by :class:`ReplicationConfig` and the cluster's
    ``ExperimentConfig`` so the two front doors cannot drift.  Windows on
    the same shard must not overlap (a strict overlap would double-count an
    outage and re-arm the shard's recovery event while transactions are
    parked on the old one); touching windows (``crash == recover``) are
    allowed and behave as one longer outage.
    """
    by_shard: dict[int, list[tuple[float, float]]] = {}
    for shard_id, crash_at_ms, recover_at_ms in schedule:
        if not 0 <= shard_id < num_shards:
            raise ConfigurationError(
                f"crash schedule names shard {shard_id}, but only "
                f"{num_shards} certifier shard(s) exist"
            )
        if not 0 <= crash_at_ms < recover_at_ms:
            raise ConfigurationError(
                "crash schedule windows need 0 <= crash_at_ms < recover_at_ms"
            )
        by_shard.setdefault(shard_id, []).append((crash_at_ms, recover_at_ms))
    for shard_id, windows in by_shard.items():
        windows.sort()
        for (_, first_recover), (second_crash, _) in zip(windows, windows[1:]):
            if second_crash < first_recover:
                raise ConfigurationError(
                    f"crash schedule windows for shard {shard_id} overlap; "
                    f"merge them into one window"
                )


@dataclass(frozen=True)
class ReplicationConfig:
    """Top-level configuration of a replicated system."""

    system: SystemKind = SystemKind.TASHKENT_MW
    num_replicas: int = 1
    clients_per_replica: int = 10
    disk: DiskConfig = field(default_factory=DiskConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    #: Period after which an idle replica proactively pulls remote writesets
    #: from the certifier ("Bounding staleness", Section 6.2).
    staleness_bound_ms: float = 2000.0
    #: Forced system-wide abort rate applied by the certifier after the full
    #: certification check (Section 9.5).  0.0 disables forced aborts.
    forced_abort_rate: float = 0.0
    #: Enables local certification at the proxy (Section 6.2).
    local_certification: bool = True
    #: Enables eager pre-certification / deadlock avoidance (Section 8.2).
    eager_pre_certification: bool = True
    #: Number of certification shards the item keyspace is partitioned
    #: across.  1 is the paper's single certifier; higher values give each
    #: shard its own log, fsync pipeline and propagation stream, with a
    #: deterministic cross-shard merge for multi-shard writesets (see
    #: ``docs/certifier.md``).
    certifier_shards: int = 1
    #: Bound on the log records one certifier fsync may cover (``None`` =
    #: unbounded, the seed behaviour).  Models the bounded log buffer of a
    #: real deployment: with a cap, a single log device saturates at
    #: ``cap / fsync_time`` certifications per second — the regime in which
    #: sharding's per-shard disks pay off.
    certifier_max_flush_batch: int | None = None
    #: Deterministic shard-leader outages injected into the simulated
    #: certifier: each entry is ``(shard_id, crash_at_ms, recover_at_ms)``.
    #: During the window that shard accepts no certifications and flushes no
    #: log records (its group is electing and state-transferring a new
    #: leader); transactions touching it stall and drain on recovery.  An
    #: empty tuple (the default) disables fault injection.  Any non-empty
    #: schedule is served by the sharded certifier node even at
    #: ``certifier_shards=1``.
    certifier_crash_schedule: tuple[tuple[int, float, float], ...] = ()
    #: Versions of headroom the certifier keeps below the replicas'
    #: low-water mark when garbage collecting (``None`` = each stack's own
    #: default: 256 in the certifier services, 512 in the sim node).
    #: Smaller headroom means tighter logs and snapshots closer to the
    #: frontier — at the cost of more frequent backfills for laggards; the
    #: knob makes snapshot cadence vs. retained-suffix length sweepable.
    certifier_gc_headroom: int | None = None
    #: One-valued: live nodes always run pipelined.  Kept only because the
    #: frozen ``bench/live.py`` passes the keyword (ROADMAP item 1(c)).
    live_pipeline: bool = True
    #: How long the live scheduler's certify batcher waits for more
    #: concurrent requests before cutting a round (milliseconds).  0 (the
    #: default) is *natural* group commit: a round is cut from whatever is
    #: pending the moment the service thread frees up, so requests
    #: accumulate exactly while the previous round's WAL append + fsync is
    #: in flight — batching without added latency.
    live_certify_batch_window_ms: float = 0.0
    #: Upper bound on one live certification round (and thus on the records
    #: sharing one WAL fsync).
    live_certify_batch_max: int = 64
    #: Wall-clock floor (milliseconds) on one live WAL shard batch fsync.
    #: Container filesystems acknowledge ``os.fsync`` in ~0.1 ms, which makes
    #: durability free and hides the group-commit effect the paper measures
    #: on real disks ("fsync takes about 8ms ... 6ms-12ms").  A non-zero
    #: floor holds the shard's append for at least this long, putting the
    #: live backend in the same fsync-bound regime as the simulated stack's
    #: :class:`DiskConfig`.  0 (default) = raw fsync.
    live_wal_fsync_floor_ms: float = 0.0
    #: Replicated live scheduler: boot a standby scheduler process next to
    #: the primary and write full certification-round entries (not opaque
    #: size markers) to the shard WALs, so a ``kill -9`` of the primary is
    #: survivable — the standby seeds from the primary's state-transfer
    #: package, completes in-flight rounds from the surviving shard WALs on
    #: promotion, and clients re-dial it.  ``False`` (default) keeps the
    #: single-scheduler deployment shape and the compact WAL payload.
    live_scheduler_standby: bool = False
    rng_seed: int = 20060418  # EuroSys 2006 conference date.

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ConfigurationError("num_replicas must be >= 1")
        if self.clients_per_replica < 1:
            raise ConfigurationError("clients_per_replica must be >= 1")
        if not 0.0 <= self.forced_abort_rate < 1.0:
            raise ConfigurationError("forced_abort_rate must be in [0, 1)")
        if self.staleness_bound_ms <= 0:
            raise ConfigurationError("staleness_bound_ms must be positive")
        if self.certifier_shards < 1:
            raise ConfigurationError("certifier_shards must be >= 1")
        if self.certifier_max_flush_batch is not None and self.certifier_max_flush_batch < 1:
            raise ConfigurationError("certifier_max_flush_batch must be >= 1 or None")
        if self.certifier_gc_headroom is not None and self.certifier_gc_headroom < 0:
            raise ConfigurationError("certifier_gc_headroom must be >= 0 or None")
        if not self.live_pipeline:
            raise ConfigurationError(
                "live_pipeline=False: the serialized live mode was removed; "
                "live nodes always run pipelined")
        if self.live_certify_batch_window_ms < 0:
            raise ConfigurationError("live_certify_batch_window_ms must be >= 0")
        if self.live_certify_batch_max < 1:
            raise ConfigurationError("live_certify_batch_max must be >= 1")
        if self.live_wal_fsync_floor_ms < 0:
            raise ConfigurationError("live_wal_fsync_floor_ms must be >= 0")
        validate_certifier_crash_schedule(self.certifier_crash_schedule,
                                          self.certifier_shards)

    def with_system(self, system: SystemKind) -> "ReplicationConfig":
        """Return a copy of this configuration targeting ``system``."""
        return dataclasses.replace(self, system=system)

    def with_replicas(self, num_replicas: int) -> "ReplicationConfig":
        """Return a copy of this configuration with ``num_replicas`` replicas."""
        return dataclasses.replace(self, num_replicas=num_replicas)


def config_to_json(config: ReplicationConfig) -> dict:
    """Every field of ``config`` under its own name, as plain JSON values.

    The live cluster writes this into its spec file and every node reads it
    back with :func:`config_from_json`, so a node runs with exactly the
    configuration the cluster was given — no setting is renamed or
    re-defaulted on the way.
    """
    data = dataclasses.asdict(config)
    data["system"] = config.system.value
    return data


def config_from_json(data: dict) -> ReplicationConfig:
    """The :class:`ReplicationConfig` :func:`config_to_json` wrote."""
    return ReplicationConfig(**{
        **data,
        "system": SystemKind(data["system"]),
        "disk": DiskConfig(**data["disk"]),
        "network": NetworkConfig(**data["network"]),
        "certifier_crash_schedule": tuple(
            tuple(w) for w in data["certifier_crash_schedule"]),
    })
