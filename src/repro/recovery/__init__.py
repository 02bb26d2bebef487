"""Recovery procedures and the Section 9.6 recovery-time model.

* :mod:`repro.recovery.replica_recovery` — the three replica recovery paths:
  Tashkent-MW (restore the latest valid dump, then replay remote writesets
  from the certifier log), Base / Tashkent-API (the database's own WAL
  recovery, then writeset replay for anything the database lost), and the
  shared writeset-replay step.
* :mod:`repro.recovery.sharded_recovery` — sharded-certifier coordinator
  recovery: per-shard leader election, completion of rounds interrupted
  mid-flush, directory/sequencer reconstruction from the shard groups'
  chosen prefixes, and the recovery report (``docs/recovery.md``).
* :mod:`repro.recovery.snapshots` — replicated shard snapshots at the GC
  horizon, log compaction of the per-shard Paxos groups, and certifier
  *node* recovery: the anti-entropy bootstrap path (plan / download+verify /
  install) by which a crashed, brand-new or long-dead group node rejoins
  from snapshot + retained suffix.
* :mod:`repro.recovery.timings` — the analytic recovery-time model that
  reproduces the numbers reported in Section 9.6 (dump 230 s, restore 140 s,
  2-4 s WAL recovery, 900 writesets/s replay, ~1 s log transfer per hour of
  downtime), extended with the snapshot + log-suffix state-transfer terms.

``benchmarks/test_recovery_times.py`` and
``benchmarks/test_replica_bootstrap.py`` drive the model (see
``docs/benchmarks.md``); the layer map is in ``docs/architecture.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.recovery.replica_recovery": ["RecoveryReport", "recover_base_replica",
                                        "recover_tashkent_mw_replica",
                                        "replay_writesets_from_certifier"],
    "repro.recovery.sharded_recovery": ["ShardedCertifierRecoveryReport",
                                        "recover_sharded_certifier"],
    "repro.recovery.snapshots": ["BootstrapPlan", "BootstrapReport", "CompactionReport",
                                 "ShardSnapshot", "StateTransferPackage",
                                 "bootstrap_group_node", "capture_shard_snapshot",
                                 "compact_certifier", "plan_node_bootstrap"],
    "repro.recovery.timings": ["RecoveryTimingModel", "RecoveryTimings"],
})
