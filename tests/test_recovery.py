"""Tests for replica/certifier recovery procedures and the timing model."""

import pytest

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
from repro.recovery.snapshots import bootstrap_group_node, compact_certifier
from repro.recovery.timings import RecoveryTimingModel


def build_certified_history(n=6):
    """A certifier whose log contains ``n`` account updates."""
    certifier = CertifierService()
    for i in range(n):
        certifier.certify(
            CertificationRequest(
                tx_start_version=i,
                writeset=make_writeset([("accounts", i % 3)]),
                replica_version=i,
            )
        )
    return certifier


def fresh_db(sync=True):
    db = Database("replica", synchronous_commit=sync)
    db.create_table("accounts", ["id"])
    return db


def test_replay_writesets_brings_database_to_certifier_version():
    certifier = build_certified_history()
    db = fresh_db()
    replayed = replay_writesets_from_certifier(db, certifier.log)
    assert replayed == 6
    assert db.current_version == certifier.system_version
    # Replay is idempotent.
    assert replay_writesets_from_certifier(db, certifier.log) == 0


def test_tashkent_mw_recovery_from_dump_plus_replay():
    certifier = build_certified_history(4)
    db = fresh_db(sync=False)
    replay_writesets_from_certifier(db, certifier.log)
    store = CheckpointStore()
    store.add(db.dump())
    # More commits happen after the dump was taken.
    for i in range(4, 6):
        certifier.certify(
            CertificationRequest(tx_start_version=i, writeset=make_writeset([("accounts", i)]),
                                 replica_version=i)
        )
    report = recover_tashkent_mw_replica(store, certifier.log)
    assert report.used_checkpoint_version == 4
    assert report.writesets_replayed == 2
    assert report.final_version == certifier.system_version


def test_tashkent_mw_recovery_falls_back_to_older_dump():
    certifier = build_certified_history(3)
    db = fresh_db(sync=False)
    replay_writesets_from_certifier(db, certifier.log)
    store = CheckpointStore()
    store.add(db.dump())
    store.add(db.dump().corrupted_copy())  # crashed while writing the newer dump
    report = recover_tashkent_mw_replica(store, certifier.log)
    assert report.final_version == certifier.system_version


def test_base_recovery_wal_redo_plus_replay():
    certifier = build_certified_history(5)
    db = fresh_db(sync=True)
    # The replica applied only the first three writesets before crashing.
    for record in certifier.log.records_between(0, 3):
        db.apply_writeset(record.writeset, version=record.commit_version)
    schemas = [t.schema for t in db.tables.values()]
    db.simulate_crash()
    report = recover_base_replica(db.wal, schemas, certifier.log, database_name="replica")
    assert report.recovered_to_version == 3
    assert report.writesets_replayed == 2
    assert report.final_version == 5


def test_recovered_replicas_converge_to_the_same_state():
    certifier = build_certified_history(6)
    healthy = fresh_db()
    replay_writesets_from_certifier(healthy, certifier.log)

    store = CheckpointStore()
    crashed = fresh_db(sync=False)
    replay_writesets_from_certifier(crashed, certifier.log)
    store.add(crashed.dump())
    report = recover_tashkent_mw_replica(store, certifier.log)
    assert verify_same_state(healthy, report.database)


def test_replay_works_against_a_pruned_log_when_dump_is_recent_enough():
    certifier = build_certified_history(6)
    db = fresh_db()
    replay_writesets_from_certifier(db, certifier.log)  # db now at version 6
    for i in range(6, 9):
        certifier.certify(
            CertificationRequest(tx_start_version=i,
                                 writeset=make_writeset([("accounts", i)]),
                                 replica_version=i)
        )
    certifier.log.prune_to(5)  # GC below the replica's version
    assert certifier.log.pruned_version == 5
    assert replay_writesets_from_certifier(db, certifier.log) == 3
    assert db.current_version == certifier.system_version


def test_replay_refuses_a_log_pruned_beyond_the_database():
    from repro.errors import RecoveryError

    certifier = build_certified_history(6)
    db = fresh_db()  # never applied anything: version 0
    certifier.log.prune_to(4)
    with pytest.raises(RecoveryError):
        replay_writesets_from_certifier(db, certifier.log)


def _replicated_history(certifier, versions):
    for i in versions:
        certifier.certify(
            CertificationRequest(tx_start_version=i,
                                 writeset=make_writeset([("t", i)]),
                                 replica_version=i,
                                 origin_replica="replica-0")
        )


def test_certifier_node_recovery_report():
    certifier = ReplicatedShardedCertifier(1, nodes_per_shard=3)
    groups = certifier.groups
    _replicated_history(certifier, range(3))
    leader = groups.crash_leader(0)
    assert groups.ensure_leader(0) != leader
    _replicated_history(certifier, [3])
    report = bootstrap_group_node(groups, 0, leader)
    assert report.entries_transferred >= 1
    assert report.verified
    assert groups.has_quorum(0) and groups.up_count(0) == 3
    assert groups.group(0).nodes[leader].entries == groups.chosen_entries(0)


def test_certifier_recovery_report_carries_the_leaders_gc_horizon():
    """Regression: a rejoining node must learn the GC horizon its peers
    pruned to — a report saying "replay from version 0" when the records
    are long gone lets a replica plan a catch-up that cannot succeed.  The
    horizon travels as the snapshot the rejoin installs."""
    certifier = ReplicatedShardedCertifier(1, nodes_per_shard=3)
    groups = certifier.groups
    groups.crash_node(0, 2)
    _replicated_history(certifier, range(6))
    certifier.note_replica_version("replica-0", 5)
    assert certifier.collect_garbage() == 5
    compact_certifier(certifier)
    report = bootstrap_group_node(groups, 0, 2)
    assert report.plan.needs_snapshot and report.snapshot_installed
    assert report.plan.snapshot_slot == groups.compaction_base(0) == 5
    rejoined = groups.group(0).nodes[2]
    assert rejoined.snapshot.global_version == certifier.core.pruned_version == 5
    assert report.verified and groups.has_quorum(0)


# ----------------------------------------------------------------- timing model (Section 9.6)

def test_timing_model_reproduces_paper_numbers():
    model = RecoveryTimingModel()
    timings = model.timings(downtime_hours=1.0)
    assert timings.dump_seconds == pytest.approx(230.0, rel=0.01)
    assert timings.restore_seconds == pytest.approx(140.0, rel=0.01)
    assert 2.0 <= timings.wal_recovery_seconds <= 4.0
    # ~222 seconds of writeset replay per hour of downtime.
    assert timings.writeset_replay_seconds == pytest.approx(224.0, rel=0.05)
    # ~1 second of certifier log transfer per hour of downtime.
    assert 0.2 <= timings.certifier_transfer_seconds <= 3.0
    # Base/API recovery is far faster than restoring a Tashkent-MW dump.
    assert timings.base_total_seconds < timings.tashkent_mw_total_seconds


def test_timing_model_scales_with_downtime_and_size():
    model = RecoveryTimingModel()
    assert model.writeset_replay_seconds(2.0) == pytest.approx(
        2 * model.writeset_replay_seconds(1.0)
    )
    assert model.dump_seconds(350 * 1024 * 1024) == pytest.approx(115.0, rel=0.01)
    assert model.certifier_log_growth_bytes_per_hour() == pytest.approx(
        56 * 3600 * 275, rel=0.01
    )
    assert model.writesets_missed(1.0) == 201_600
