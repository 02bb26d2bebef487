"""Pure protocol logic for GSI replication.

This package contains no timing, no IO and no engine dependencies.  It is the
shared vocabulary between the functional replicated system
(:mod:`repro.middleware`) and the simulated clusters used by the evaluation
(:mod:`repro.cluster`): writesets and their intersection test, GSI version
bookkeeping, the certifier with its indexed log and GC protocol, the
sharded certifier with its stable partitioner and deterministic cross-shard
merge (``docs/certifier.md``), the group-commit batching engine, typed
statistics snapshots, commit ordering and artificial-conflict planning.
See ``docs/architecture.md`` for where it sits in the layer map.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.artificial_conflicts": ["ArtificialConflictDetector"],
    "repro.core.certification": ["CertificationDecision", "CertificationResult", "Certifier"],
    "repro.core.certifier_log": ["CertifierLog", "LogRecord"],
    "repro.core.config": ["DiskConfig", "NetworkConfig", "ReplicationConfig",
                          "SystemKind", "WorkloadName"],
    "repro.core.group_commit": ["GroupCommitBatcher", "GroupCommitStats"],
    "repro.core.ordering": ["CommitSequencer"],
    "repro.core.sharding": ["HashPartitioner", "ShardedCertifier"],
    "repro.core.stats": ["CertifierServiceStats", "CertifierStats"],
    "repro.core.versions": ["Snapshot", "VersionClock"],
    "repro.core.writeset": ["WriteItem", "WriteOp", "WriteSet"],
})
