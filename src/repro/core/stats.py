"""Typed statistics snapshots for the certification pipeline.

Before this module the repository carried three near-duplicate dict shapes:
``Certifier.stats()`` (a hand-rolled dict of counters), the superset dict of
``CertifierService.stats()``, and the :class:`~repro.core.group_commit.
GroupCommitStats` batching aggregate.  Each grew keys independently, which
is exactly the kind of drift that turns "sum the per-shard stats" into a
``KeyError`` — or worse, a silently wrong report.

The snapshots here are the single source of truth for those shapes:

* :class:`CertifierStats` — the pure-logic certification counters.  Both the
  single :class:`~repro.core.certification.Certifier` and the sharded
  :class:`~repro.core.sharding.ShardedCertifier` produce one, so per-shard
  snapshots can be combined with :meth:`CertifierStats.merge` without any
  key bookkeeping.
* :class:`CertifierServiceStats` — what a certifier *service* (the IO-owning
  front-end in either stack) reports: the core snapshot plus durability and
  propagation batching, both expressed as the shared
  :class:`GroupCommitStats` aggregate.

``as_dict()`` reproduces the exact key set the seed dicts exposed, so every
existing consumer (reports, benchmarks, tests) keeps working while new code
can stay on the typed objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.group_commit import GroupCommitStats


@dataclass
class CertifierStats:
    """Snapshot of the certification counters (one certifier or one shard).

    Counter fields are additive under :meth:`merge`; the version/horizon
    fields take the maximum (they describe the global version space, which
    every shard observes a slice of) while the retained/pruned record counts
    add up (each shard retains its own records).
    """

    requests: int = 0
    commits: int = 0
    aborts: int = 0
    forced_aborts: int = 0
    readonly_requests: int = 0
    intersection_tests: int = 0
    snapshot_too_old_aborts: int = 0
    gc_runs: int = 0
    system_version: int = 0
    log_length: int = 0
    log_retained_records: int = 0
    log_pruned_version: int = 0
    log_pruned_records_total: int = 0

    @property
    def abort_rate(self) -> float:
        """Observed abort rate over update-transaction requests."""
        updates = self.commits + self.aborts
        return self.aborts / updates if updates else 0.0

    def merge(self, other: "CertifierStats") -> "CertifierStats":
        """Fold another snapshot into this one (in place); returns self."""
        self.requests += other.requests
        self.commits += other.commits
        self.aborts += other.aborts
        self.forced_aborts += other.forced_aborts
        self.readonly_requests += other.readonly_requests
        self.intersection_tests += other.intersection_tests
        self.snapshot_too_old_aborts += other.snapshot_too_old_aborts
        self.gc_runs += other.gc_runs
        self.system_version = max(self.system_version, other.system_version)
        self.log_length = max(self.log_length, other.log_length)
        self.log_retained_records += other.log_retained_records
        self.log_pruned_version = max(self.log_pruned_version, other.log_pruned_version)
        self.log_pruned_records_total += other.log_pruned_records_total
        return self

    def as_dict(self) -> dict[str, float]:
        """The seed ``Certifier.stats()`` dict, key for key."""
        return {
            "requests": self.requests,
            "commits": self.commits,
            "aborts": self.aborts,
            "forced_aborts": self.forced_aborts,
            "readonly_requests": self.readonly_requests,
            "intersection_tests": self.intersection_tests,
            "abort_rate": self.abort_rate,
            "system_version": self.system_version,
            "log_length": self.log_length,
            "log_retained_records": self.log_retained_records,
            "log_pruned_version": self.log_pruned_version,
            "log_pruned_records_total": self.log_pruned_records_total,
            "snapshot_too_old_aborts": self.snapshot_too_old_aborts,
            "gc_runs": self.gc_runs,
        }


@dataclass
class CertifierServiceStats:
    """Snapshot of a certifier front-end: core logic + durability + transport.

    ``flush`` aggregates the log-device fsync batching (writesets per
    synchronous write — the paper's central statistic) and ``propagation``
    the writeset-stream batching; both reuse :class:`GroupCommitStats` so a
    sharded service merges its per-shard pipelines with the same helper the
    engine WAL uses.
    """

    core: CertifierStats = field(default_factory=CertifierStats)
    flush: GroupCommitStats = field(default_factory=GroupCommitStats)
    propagation: GroupCommitStats = field(default_factory=GroupCommitStats)
    fsyncs: int = 0
    durable_version: int = 0
    shards: int = 1

    def merge(self, other: "CertifierServiceStats") -> "CertifierServiceStats":
        """Fold another service snapshot into this one (in place)."""
        self.core.merge(other.core)
        self.flush.merge(other.flush)
        self.propagation.merge(other.propagation)
        self.fsyncs += other.fsyncs
        self.durable_version = max(self.durable_version, other.durable_version)
        self.shards += other.shards
        return self

    def as_dict(self) -> dict[str, float]:
        """The seed ``CertifierService.stats()`` dict plus the shard count."""
        stats = self.core.as_dict()
        stats.update(
            {
                "fsyncs": float(self.fsyncs),
                "writesets_per_fsync": self.flush.average_batch_size,
                "durable_version": float(self.durable_version),
                "propagation_batches": float(self.propagation.flushes),
                "writesets_per_propagation_batch": self.propagation.average_batch_size,
                "shards": float(self.shards),
            }
        )
        return stats


@dataclass
class MvccStats:
    """Snapshot of the MVCC storage counters (one table or a whole database).

    Counter fields are additive under :meth:`merge`; the gauges describing
    current state (live rows, dead-version candidates, histogram buckets)
    also add — each table owns disjoint rows — while ``max_chain_length``
    takes the maximum.  ``chain_histogram`` maps chain length to the number
    of rows currently holding that many versions, the bounded-chains
    evidence the vacuum benchmark records.
    """

    versions_installed: int = 0
    versions_reclaimed: int = 0
    rows_dropped: int = 0
    vacuum_runs: int = 0
    vacuum_rows_visited: int = 0
    live_rows: int = 0
    dead_candidates: int = 0
    max_chain_length: int = 0
    chain_histogram: dict[int, int] = field(default_factory=dict)

    def merge(self, other: "MvccStats") -> "MvccStats":
        """Fold another snapshot into this one (in place); returns self."""
        self.versions_installed += other.versions_installed
        self.versions_reclaimed += other.versions_reclaimed
        self.rows_dropped += other.rows_dropped
        self.vacuum_runs += other.vacuum_runs
        self.vacuum_rows_visited += other.vacuum_rows_visited
        self.live_rows += other.live_rows
        self.dead_candidates += other.dead_candidates
        self.max_chain_length = max(self.max_chain_length, other.max_chain_length)
        for length, rows in other.chain_histogram.items():
            self.chain_histogram[length] = self.chain_histogram.get(length, 0) + rows
        return self

    def as_dict(self) -> dict[str, object]:
        return {
            "versions_installed": self.versions_installed,
            "versions_reclaimed": self.versions_reclaimed,
            "rows_dropped": self.rows_dropped,
            "vacuum_runs": self.vacuum_runs,
            "vacuum_rows_visited": self.vacuum_rows_visited,
            "live_rows": self.live_rows,
            "dead_candidates": self.dead_candidates,
            "max_chain_length": self.max_chain_length,
            "chain_histogram": dict(sorted(self.chain_histogram.items())),
        }


def merged_group_commit_stats(parts: "list[GroupCommitStats]") -> GroupCommitStats:
    """Combine several batching aggregates into a fresh one (never in place)."""
    merged = GroupCommitStats()
    for part in parts:
        merged.merge(part)
    return merged
