"""Tests for checkpoints, crash simulation and engine recovery."""

import pytest

from repro.engine.checkpoint import CheckpointStore
from repro.engine.database import Database
from repro.engine.recovery import recover_from_checkpoint, recover_from_wal, verify_same_state
from repro.errors import RecoveryError


def build_db(sync=True):
    db = Database("bank", synchronous_commit=sync)
    db.create_table("accounts", ["id", "balance"])
    txn = db.begin()
    for i in range(5):
        db.insert(txn, "accounts", i, id=i, balance=10 * i)
    db.commit(txn)
    return db


# ----------------------------------------------------------------- checkpoints

def test_checkpoint_capture_validate_and_restore():
    db = build_db()
    checkpoint = db.dump()
    checkpoint.validate()
    assert checkpoint.version == db.current_version
    assert checkpoint.row_count() == 5
    restored = Database.restore(checkpoint)
    assert verify_same_state(db, restored)
    assert restored.current_version == db.current_version


def test_corrupt_checkpoint_detected():
    db = build_db()
    broken = db.dump().corrupted_copy()
    with pytest.raises(RecoveryError):
        broken.validate()
    with pytest.raises(RecoveryError):
        Database.restore(broken)


def test_checkpoint_store_keeps_two_copies_and_falls_back():
    store = CheckpointStore()
    db = build_db()
    first = db.dump()
    store.add(first)
    txn = db.begin()
    db.update(txn, "accounts", 0, balance=999)
    db.commit(txn)
    second = db.dump()
    store.add(second.corrupted_copy())  # crashed while dumping the second copy
    assert len(store) == 2
    assert store.latest_valid() is first
    store.add(db.dump())
    assert len(store) == 2  # only two copies are ever retained


def test_checkpoint_store_with_no_valid_copy_raises():
    store = CheckpointStore()
    db = build_db()
    store.add(db.dump().corrupted_copy())
    with pytest.raises(RecoveryError):
        store.latest_valid()


# ----------------------------------------------------------------- WAL recovery (Base / Tashkent-API)

def test_wal_recovery_replays_all_durable_commits():
    db = build_db(sync=True)
    for i in range(3):
        txn = db.begin()
        db.update(txn, "accounts", i, balance=1000 + i)
        db.commit(txn)
    schemas = [table.schema for table in db.tables.values()]
    db.simulate_crash()
    recovered = recover_from_wal(db.wal, schemas, database_name="bank")
    assert recovered.current_version == db.current_version
    fresh = recovered.begin()
    assert recovered.read(fresh, "accounts", 2)["balance"] == 1002


def test_wal_recovery_loses_unflushed_commits_when_async():
    db = build_db(sync=True)
    db.set_synchronous_commit(False)
    txn = db.begin()
    db.update(txn, "accounts", 0, balance=12345)
    db.commit(txn)  # not flushed
    schemas = [table.schema for table in db.tables.values()]
    lost = db.simulate_crash()
    assert lost == 1
    recovered = recover_from_wal(db.wal, schemas)
    fresh = recovered.begin()
    # The unflushed commit is gone: this is exactly why Tashkent-MW needs the
    # certifier log for durability.
    assert recovered.read(fresh, "accounts", 0)["balance"] == 0


def test_wal_recovery_from_checkpoint_plus_suffix():
    db = build_db(sync=True)
    checkpoint = db.dump()
    txn = db.begin()
    db.update(txn, "accounts", 4, balance=7)
    db.commit(txn)
    schemas = [table.schema for table in db.tables.values()]
    recovered = recover_from_wal(db.wal, schemas, base_checkpoint=checkpoint)
    assert verify_same_state(db, recovered)


# ----------------------------------------------------------------- checkpoint recovery (Tashkent-MW)

def test_checkpoint_recovery_uses_latest_valid_dump():
    db = build_db(sync=False)
    store = CheckpointStore()
    store.add(db.dump())
    txn = db.begin()
    db.update(txn, "accounts", 1, balance=77)
    db.commit(txn)
    store.add(db.dump())
    recovered = recover_from_checkpoint(store)
    assert recovered.current_version == db.current_version
    fresh = recovered.begin()
    assert recovered.read(fresh, "accounts", 1)["balance"] == 77
    assert recovered.synchronous_commit is False


def test_verify_same_state_detects_divergence():
    a = build_db()
    b = build_db()
    assert verify_same_state(a, b)
    txn = b.begin()
    b.update(txn, "accounts", 0, balance=1)
    b.commit(txn)
    assert not verify_same_state(a, b)


def test_crash_aborts_active_transactions():
    db = build_db()
    txn = db.begin()
    db.update(txn, "accounts", 0, balance=5)
    db.simulate_crash()
    assert txn.status.value == "aborted"
    assert db.active_transactions() == []
