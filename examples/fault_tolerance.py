#!/usr/bin/env python3
"""Fault tolerance walkthrough: crash and recover replicas and certifiers.

Demonstrates the recovery procedures of Section 7 of the paper on real
components:

1. a Tashkent-MW replica crashes after its synchronous writes were disabled —
   it restarts from its latest valid dump and replays remote writesets from
   the certifier's log, losing nothing;
2. a Base replica crashes — its own WAL recovers the durable prefix and the
   certifier log replay brings it up to date;
3. a certifier node crashes and recovers via state transfer through the
   Paxos-replicated certifier group, which keeps making progress as long as
   a majority is up.

Run with:  python examples/fault_tolerance.py
"""

from repro.consensus.sharded import ReplicatedShardedCertifier
from repro.core.certification import CertificationRequest
from repro.core.writeset import make_writeset
from repro.engine.checkpoint import CheckpointStore
from repro.engine.database import Database
from repro.engine.recovery import verify_same_state
from repro.middleware.certifier import CertifierService
from repro.recovery.replica_recovery import (
    recover_base_replica,
    recover_tashkent_mw_replica,
    replay_writesets_from_certifier,
)
from repro.recovery.snapshots import bootstrap_group_node
from repro.recovery.timings import RecoveryTimingModel


def certified_bank(updates: int = 30) -> CertifierService:
    """A certifier whose log records a stream of account updates."""
    certifier = CertifierService()
    for i in range(updates):
        certifier.certify(CertificationRequest(
            tx_start_version=i,
            writeset=make_writeset([("accounts", i % 10)]),
            replica_version=i,
        ))
    return certifier


def demo_tashkent_mw_recovery() -> None:
    print("1) Tashkent-MW replica crash and recovery (dump + writeset replay)")
    certifier = certified_bank(30)
    replica = Database("replica-0", synchronous_commit=False)
    replica.create_table("accounts", ["id"])
    replay_writesets_from_certifier(replica, certifier.log)

    store = CheckpointStore()
    store.add(replica.dump())
    print(f"   dump taken at version {replica.current_version}")

    # More global commits happen, then the replica crashes before another dump.
    for i in range(30, 40):
        certifier.certify(CertificationRequest(
            tx_start_version=i, writeset=make_writeset([("accounts", i % 10)]),
            replica_version=i))
    lost = replica.simulate_crash()
    print(f"   crash: {lost} unflushed WAL records discarded (durability was off)")

    report = recover_tashkent_mw_replica(store, certifier.log)
    healthy = Database("healthy", synchronous_commit=False)
    healthy.create_table("accounts", ["id"])
    replay_writesets_from_certifier(healthy, certifier.log)
    print(f"   recovered from dump at version {report.used_checkpoint_version}, "
          f"replayed {report.writesets_replayed} writesets, "
          f"final version {report.final_version}")
    print(f"   state matches a healthy replica: {verify_same_state(report.database, healthy)}\n")


def demo_base_recovery() -> None:
    print("2) Base / Tashkent-API replica crash and recovery (WAL redo + replay)")
    certifier = certified_bank(20)
    replica = Database("replica-1", synchronous_commit=True)
    replica.create_table("accounts", ["id"])
    for record in certifier.log.records_between(0, 12):
        replica.apply_writeset(record.writeset, version=record.commit_version)
    schemas = [t.schema for t in replica.tables.values()]
    replica.simulate_crash()
    report = recover_base_replica(replica.wal, schemas, certifier.log,
                                  database_name="replica-1")
    print(f"   WAL redo reached version {report.recovered_to_version}; "
          f"{report.writesets_replayed} writesets replayed from the certifier log; "
          f"final version {report.final_version}\n")


def demo_certifier_recovery() -> None:
    print("3) Certifier node crash, leader election and state transfer")
    certifier = ReplicatedShardedCertifier(1, nodes_per_shard=3)
    groups = certifier.groups
    for i in range(10):
        certifier.certify(CertificationRequest(
            tx_start_version=i, writeset=make_writeset([("accounts", i)]),
            replica_version=i))
    leader = groups.crash_leader(0)
    print(f"   leader {leader} crashed; new leader is {groups.ensure_leader(0)}; "
          f"quorum: {groups.has_quorum(0)}")
    for i in range(10, 15):
        certifier.certify(CertificationRequest(
            tx_start_version=i, writeset=make_writeset([("accounts", i)]),
            replica_version=i))
    report = bootstrap_group_node(groups, 0, leader)
    print(f"   node {leader} recovered with {report.entries_transferred} log entries "
          f"transferred; caught up with its peers: {report.verified}\n")


def main() -> None:
    demo_tashkent_mw_recovery()
    demo_base_recovery()
    demo_certifier_recovery()
    timings = RecoveryTimingModel().timings(downtime_hours=1.0)
    print("Section 9.6 recovery-time model (TPC-W sizes, 1 hour of downtime):")
    print(f"   Tashkent-MW: restore {timings.restore_seconds:.0f} s + replay "
          f"{timings.writeset_replay_seconds:.0f} s")
    print(f"   Base / Tashkent-API: WAL recovery {timings.wal_recovery_seconds:.0f} s + "
          f"replay {timings.writeset_replay_seconds:.0f} s")
    print(f"   certifier log transfer: {timings.certifier_transfer_seconds:.1f} s")


if __name__ == "__main__":
    main()
