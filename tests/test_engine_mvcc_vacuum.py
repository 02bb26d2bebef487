"""Unit tests for the MVCC hot path: O(1) installs, incremental vacuum and
the horizon clamp."""

import pytest
from row_oracle import LegacyVersionedRow

from repro.core.stats import MvccStats
from repro.core.config import ReplicationConfig
from repro.core.writeset import WriteItem, WriteOp, WriteSet
from repro.engine.database import Database
from repro.engine.rows import RowVersion, VersionedRow
from repro.engine.table import Table, TableSchema
from repro.errors import StorageError
from repro.middleware.sharded_certifier import make_certifier_service
from repro.middleware.systems import build_tashkent_mw_system


# ------------------------------------------------------------- linked chains

def test_install_stamps_old_head_in_place_and_links_chain():
    row = VersionedRow("k")
    first = RowVersion(created_version=1, values={"v": "a"})
    second = RowVersion(created_version=3, values={"v": "b"})
    row.install(first)
    row.install(second)
    # O(1) install: the very object installed first was stamped, not copied.
    assert first.deleted_version == 3
    assert row.latest() is second
    assert second.older is first
    assert [v.created_version for v in row.history()] == [3, 1]


def test_vacuum_keeps_versions_created_after_the_horizon():
    # A chain whose every version is newer than the horizon is invisible *at*
    # the horizon but visible to newer snapshots: nothing may be reclaimed.
    row = VersionedRow("k")
    row.install(RowVersion(created_version=5, values={"v": 1}))
    row.install(RowVersion(created_version=7, values={"v": 2}))
    assert row.vacuum(oldest_active_snapshot=4) == 0
    assert row.version_count() == 2
    assert row.version_for_snapshot(6).values["v"] == 1


def test_vacuum_drops_fully_dead_chains():
    row = VersionedRow("k")
    row.install(RowVersion(created_version=1, values={"v": 1}))
    row.install(RowVersion(created_version=2, values={"v": 2}))
    row.delete(3)
    assert row.vacuum(oldest_active_snapshot=3) == 2
    assert row.version_count() == 0
    assert row.latest() is None


def test_has_reclaimable_potential():
    row = VersionedRow("k")
    assert not row.has_reclaimable_potential
    row.install(RowVersion(created_version=1, values={}))
    assert not row.has_reclaimable_potential          # single live version
    row.install(RowVersion(created_version=2, values={}))
    assert row.has_reclaimable_potential              # superseded history
    row.vacuum(2)
    assert not row.has_reclaimable_potential
    row.delete(3)
    assert row.has_reclaimable_potential              # deleted head


def test_legacy_row_matches_linked_row_behaviour():
    linked, legacy = VersionedRow("k"), LegacyVersionedRow("k")
    for target in (linked, legacy):
        target.install(RowVersion(created_version=1, values={"v": 1}))
        target.install(RowVersion(created_version=4, values={"v": 2}))
        target.delete(6)
    for snapshot in range(8):
        left = linked.version_for_snapshot(snapshot)
        right = legacy.version_for_snapshot(snapshot)
        assert (left is None) == (right is None)
        if left is not None:
            assert left == right
    assert linked.vacuum(7) == legacy.vacuum(7) == 2
    assert linked.version_count() == legacy.version_count() == 0
    with pytest.raises(StorageError):
        legacy.install(RowVersion(created_version=1, values={}))
        legacy.install(RowVersion(created_version=1, values={}))


# ------------------------------------------------------- candidate index

def make_table():
    return Table(TableSchema("accounts", ("id", "balance"), "id"))


def test_clean_rows_never_enter_the_candidate_index():
    table = make_table()
    for key in range(100):
        table.install_insert(key, {"id": key, "balance": 0}, commit_version=key + 1)
    assert table.dead_candidate_count() == 0
    # A vacuum over a clean table visits nothing.
    assert table.vacuum(200) == 0
    assert table.vacuum_rows_visited == 0


def test_vacuum_visits_only_candidates_and_drops_dead_rows():
    table = make_table()
    for key in range(10):
        table.install_insert(key, {"id": key, "balance": 0}, commit_version=key + 1)
    table.install_update(3, {"balance": 1}, commit_version=11)
    table.install_delete(7, commit_version=12)
    assert table.dead_candidate_count() == 2
    removed = table.vacuum(12)
    assert removed == 2  # superseded version of 3 + the dead chain of 7
    assert table.vacuum_rows_visited == 2
    assert 7 not in table.keys()
    assert len(table) == 9
    assert table.rows_dropped == 1
    assert table.dead_candidate_count() == 0


def test_vacuum_respects_the_row_budget_and_resumes():
    table = make_table()
    for key in range(6):
        table.install_insert(key, {"id": key, "balance": 0}, commit_version=key + 1)
        table.install_update(key, {"balance": 1}, commit_version=key + 10)
    assert table.dead_candidate_count() == 6
    table.vacuum(100, max_rows=4)
    assert table.vacuum_rows_visited == 4
    assert table.dead_candidate_count() == 2
    table.vacuum(100, max_rows=4)
    assert table.dead_candidate_count() == 0
    assert table.versions_reclaimed == 6


def test_candidate_survives_when_horizon_blocks_reclamation():
    table = make_table()
    table.install_insert(1, {"id": 1, "balance": 0}, commit_version=1)
    table.install_update(1, {"balance": 1}, commit_version=5)
    # Horizon below the superseding version: nothing reclaimable yet, but the
    # row must stay indexed for the next pass.
    assert table.vacuum(2) == 0
    assert table.dead_candidate_count() == 1
    assert table.vacuum(5) == 1
    assert table.dead_candidate_count() == 0


def test_table_mvcc_stats_histogram():
    table = make_table()
    table.install_insert(1, {"id": 1, "balance": 0}, commit_version=1)
    table.install_insert(2, {"id": 2, "balance": 0}, commit_version=2)
    table.install_update(2, {"balance": 1}, commit_version=3)
    stats = table.mvcc_stats()
    assert stats.versions_installed == 3
    assert stats.live_rows == 2
    assert stats.max_chain_length == 2
    assert stats.chain_histogram == {1: 1, 2: 1}
    counters_only = table.mvcc_stats(include_chains=False)
    assert counters_only.max_chain_length == 0
    assert counters_only.chain_histogram == {}


def test_mvcc_stats_merge():
    left = MvccStats(versions_installed=2, max_chain_length=3,
                     chain_histogram={1: 2, 3: 1})
    right = MvccStats(versions_installed=1, max_chain_length=5,
                      chain_histogram={1: 1})
    merged = left.merge(right)
    assert merged.versions_installed == 3
    assert merged.max_chain_length == 5
    assert merged.chain_histogram == {1: 3, 3: 1}


# ------------------------------------------------------- database-level vacuum

def make_database():
    db = Database("vac")
    db.create_table("kv", ["id", "value"])
    return db


def churn(db, key, rounds):
    for value in range(rounds):
        txn = db.begin()
        db.update(txn, "kv", key, value=value)
        db.commit(txn)


def test_database_vacuum_clamps_to_replication_horizon():
    db = make_database()
    txn = db.begin()
    db.insert(txn, "kv", 1, id=1, value=0)
    db.commit(txn)
    churn(db, 1, 9)  # versions 2..10 supersede version 1
    # Locally everything below version 10 is reclaimable, but a lagging
    # replica pins the horizon at 4: versions >= 4 must survive.
    reclaimed = db.vacuum(replication_horizon=4)
    assert db.last_vacuum_horizon == 4
    assert reclaimed == 3  # versions 1, 2, 3
    table = db.table("kv")
    for snapshot in range(4, 11):
        assert table.read(1, snapshot)["value"] == snapshot - 2
    # The horizon is min(local, replication): an old local snapshot clamps
    # too, however far ahead the replication horizon is.
    reader = db.begin()  # pins snapshot 10
    churn(db, 1, 3)      # versions 11..13
    assert db.vacuum(replication_horizon=10**9) == 6  # versions 4..9 only
    assert table.read(1, reader.snapshot_version)["value"] == 8
    db.commit(reader)
    assert db.vacuum() == 3  # reader gone: everything below 13 goes
    assert db.table("kv").mvcc_stats().max_chain_length == 1


def test_database_vacuum_budget_spans_tables():
    db = Database("multi")
    db.create_table("a", ["id", "v"])
    db.create_table("b", ["id", "v"])
    for table in ("a", "b"):
        for key in range(3):
            txn = db.begin()
            db.insert(txn, table, key, id=key, v=0)
            db.commit(txn)
            txn = db.begin()
            db.update(txn, table, key, v=1)
            db.commit(txn)
    assert db.dead_candidate_count() == 6
    db.vacuum(max_rows=4)
    assert db.dead_candidate_count() == 2
    db.vacuum(max_rows=4)
    assert db.dead_candidate_count() == 0
    assert db.mvcc_stats().versions_reclaimed == 6
    assert db.stats()["mvcc"]["versions_reclaimed"] == 6


def test_budgeted_vacuum_resumes_at_the_table_after_the_one_that_used_it_up():
    db = Database("starve")
    db.create_table("wide", ["id", "v"])
    db.create_table("narrow", ["id", "v"])
    for table, keys in (("wide", range(4)), ("narrow", range(1))):
        for key in keys:
            txn = db.begin()
            db.insert(txn, table, key, id=key, v=0)
            db.commit(txn)
    txn = db.begin()
    db.update(txn, "narrow", 0, v=1)
    db.commit(txn)
    narrow_candidates = []
    for value in (1, 2):
        # Every pass finds "wide" holding the whole budget's worth of rows.
        txn = db.begin()
        for key in range(4):
            db.update(txn, "wide", key, v=value)
        db.commit(txn)
        db.vacuum(max_rows=4)
        narrow_candidates.append(db.table("narrow").dead_candidate_count())
    # The first pass spends its budget on "wide"; the second starts at "narrow".
    assert narrow_candidates == [1, 0]


def test_apply_writeset_installs_values_without_cloning():
    db = make_database()
    values = {"id": 5, "value": 42}
    writeset = WriteSet([WriteItem(table="kv", key=5, op=WriteOp.INSERT,
                                   values=values)])
    db.apply_writeset(writeset, version=3)
    installed = db.table("kv")._rows[5].latest().values
    assert installed is values  # by reference: the hot path clones nothing
    # Reads still hand out copies, so callers cannot corrupt the store.
    read = db.table("kv").read(5, 3)
    assert read == values and read is not values


# ------------------------------------------------- certifier horizon plumbing

@pytest.mark.parametrize("shards", [1, 2])
def test_replication_horizon_tracks_low_water_minus_headroom(shards):
    service = make_certifier_service(
        ReplicationConfig(certifier_shards=shards, certifier_gc_headroom=10))
    assert service.replication_horizon() == 0  # no replica reported yet
    service.register_replica("r1", 500)
    service.register_replica("r2", 300)
    assert service.replication_horizon() == 290
    service.register_replica("r2", 700)
    assert service.replication_horizon() == 490


def test_replication_horizon_never_negative():
    service = make_certifier_service(ReplicationConfig(certifier_gc_headroom=100))
    service.register_replica("r1", 5)
    assert service.replication_horizon() == 0


# ----------------------------------------------------- replicated system wiring

def test_system_maintenance_bounds_chains_and_drops_dead_rows():
    system = build_tashkent_mw_system(2, certifier_gc_headroom=0)
    system.create_table("kv", ["id", "value"])
    session = system.session(0)
    session.begin()
    for key in range(10):
        session.insert("kv", key, value=0)
    session.commit()
    # Hot-row churn grows a chain; insert+delete churn grows the key map.
    for value in range(30):
        session.begin()
        session.update("kv", 0, value=value)
        session.commit()
    for key in range(100, 120):
        session.begin()
        session.insert("kv", key, value=0)
        session.commit()
        session.begin()
        session.delete("kv", key)
        session.commit()
    system.refresh_all()  # replicas catch up and report their low-water mark
    assert system.vacuum_all() > 0
    for replica in system.replicas:
        stats = replica.database.mvcc_stats()
        assert stats.max_chain_length == 1
        assert len(replica.database.table("kv")) == 10
    assert system.replicas_consistent()


def test_replica_vacuum_respects_certifier_horizon():
    system = build_tashkent_mw_system(2, certifier_gc_headroom=0)
    system.create_table("kv", ["id", "value"])
    session = system.session(0)
    session.begin()
    session.insert("kv", 1, value=0)
    session.commit()
    for value in range(5):
        session.begin()
        session.update("kv", 1, value=value)
        session.commit()
    # Replica 1 never refreshed: its reported version pins the horizon, so
    # replica 0 may reclaim nothing yet.
    writer = system.replicas[0]
    assert writer.vacuum() == 0
    system.refresh_all()
    assert writer.vacuum() > 0
    assert writer.stats.vacuum_passes == 2
    assert writer.database.table("kv").mvcc_stats().max_chain_length == 1
