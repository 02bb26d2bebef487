"""Unit and behaviour tests for the snapshot-isolation database engine."""

import pytest

from repro.core.writeset import WriteOp, make_writeset
from repro.engine.database import Database
from repro.engine.locks import LockBlockedError
from repro.errors import (
    DuplicateKeyError,
    InvalidTransactionState,
    StorageError,
    UnknownTableError,
    WriteConflictError,
)


# ----------------------------------------------------------------- basics

def test_create_table_and_duplicate_rejected(empty_db):
    with pytest.raises(StorageError):
        empty_db.create_table("items", ["id"])
    with pytest.raises(UnknownTableError):
        empty_db.table("nope")


def test_insert_read_commit_round_trip(empty_db):
    txn = empty_db.begin()
    empty_db.insert(txn, "items", 1, value="hello")
    assert empty_db.read(txn, "items", 1)["value"] == "hello"  # read-your-writes
    version = empty_db.commit(txn)
    assert version == 1
    reader = empty_db.begin()
    assert empty_db.read(reader, "items", 1)["value"] == "hello"


def test_readonly_transaction_commit_is_free(accounts_db):
    fsyncs_before = accounts_db.fsync_count
    txn = accounts_db.begin()
    accounts_db.read(txn, "accounts", 1)
    assert accounts_db.commit(txn) == 0
    assert accounts_db.fsync_count == fsyncs_before
    assert accounts_db.readonly_commits == 1


def test_snapshot_isolation_reader_does_not_see_later_commits(accounts_db):
    reader = accounts_db.begin()
    writer = accounts_db.begin()
    accounts_db.update(writer, "accounts", 1, balance=999)
    accounts_db.commit(writer)
    # The reader's snapshot predates the writer's commit.
    assert accounts_db.read(reader, "accounts", 1)["balance"] == 100
    fresh = accounts_db.begin()
    assert accounts_db.read(fresh, "accounts", 1)["balance"] == 999


def test_scan_merges_buffered_writes(accounts_db):
    txn = accounts_db.begin()
    accounts_db.update(txn, "accounts", 0, balance=1)
    accounts_db.delete(txn, "accounts", 1)
    rows = dict(accounts_db.scan(txn, "accounts"))
    assert rows[0]["balance"] == 1
    assert 1 not in rows
    assert len(rows) == 9


# ----------------------------------------------------------------- conflicts

def test_first_updater_wins_on_committed_conflict(accounts_db):
    t1 = accounts_db.begin()
    t2 = accounts_db.begin()
    accounts_db.update(t1, "accounts", 5, balance=1)
    accounts_db.commit(t1)
    with pytest.raises(WriteConflictError):
        accounts_db.update(t2, "accounts", 5, balance=2)
    assert t2.status.value == "aborted"


def test_concurrent_writer_blocks_behind_active_holder(accounts_db):
    t1 = accounts_db.begin()
    t2 = accounts_db.begin()
    accounts_db.update(t1, "accounts", 5, balance=1)
    with pytest.raises(LockBlockedError):
        accounts_db.update(t2, "accounts", 5, balance=2)
    # When the holder commits, the waiting competitor is aborted (SI rule).
    accounts_db.commit(t1)
    assert t2.status.value == "aborted"
    assert accounts_db.forced_aborts == 1


def test_waiter_survives_if_holder_aborts(accounts_db):
    t1 = accounts_db.begin()
    t2 = accounts_db.begin()
    accounts_db.update(t1, "accounts", 5, balance=1)
    with pytest.raises(LockBlockedError):
        accounts_db.update(t2, "accounts", 5, balance=2)
    accounts_db.abort(t1)
    # t2 now holds the lock and can proceed.
    accounts_db.update(t2, "accounts", 5, balance=2)
    accounts_db.commit(t2)
    fresh = accounts_db.begin()
    assert accounts_db.read(fresh, "accounts", 5)["balance"] == 2


def test_duplicate_primary_key_rejected_at_commit_install(accounts_db):
    txn = accounts_db.begin()
    with pytest.raises(StorageError):
        accounts_db.insert(txn, "accounts", 1, id=1)  # missing column balance/owner
    txn2 = accounts_db.begin()
    accounts_db.insert(txn2, "accounts", 100, id=100, balance=1, owner="x")
    accounts_db.commit(txn2)
    txn3 = accounts_db.begin()
    accounts_db.insert(txn3, "accounts", 100, id=100, balance=2, owner="y")
    with pytest.raises(DuplicateKeyError):
        accounts_db.commit(txn3)


# ----------------------------------------------------------------- writesets

def test_extract_writeset_matches_trigger_semantics(accounts_db):
    txn = accounts_db.begin()
    accounts_db.update(txn, "accounts", 1, balance=50)
    accounts_db.update(txn, "accounts", 1, owner="someone")  # merged
    accounts_db.insert(txn, "accounts", 77, id=77, balance=0, owner="new")
    accounts_db.delete(txn, "accounts", 2)
    writeset = accounts_db.extract_writeset(txn)
    ops = {item.key: item.op for item in writeset}
    assert ops[1] is WriteOp.UPDATE
    assert ops[77] is WriteOp.INSERT
    assert ops[2] is WriteOp.DELETE
    assert len(writeset) == 3


def test_apply_writeset_with_priority_aborts_conflicting_local_txn(accounts_db):
    local = accounts_db.begin()
    accounts_db.update(local, "accounts", 3, balance=1)
    remote = make_writeset([("accounts", 3)])
    version = accounts_db.apply_writeset(remote, version=accounts_db.current_version + 1)
    assert version == accounts_db.current_version
    assert local.status.value == "aborted"
    assert local.abort_reason == "remote-writeset-priority"


def test_apply_writesets_grouped_commits_once(accounts_db):
    fsyncs_before = accounts_db.fsync_count
    commits_before = accounts_db.commits
    version = accounts_db.apply_writesets_grouped(
        [make_writeset([("accounts", 1)]), make_writeset([("accounts", 2)])],
        version=accounts_db.current_version + 5,
    )
    assert version == accounts_db.current_version
    assert accounts_db.commits == commits_before + 1
    assert accounts_db.fsync_count == fsyncs_before + 1


# ----------------------------------------------------------------- commit versions and fsyncs

def test_commit_with_explicit_version_advances_clock(accounts_db):
    txn = accounts_db.begin()
    accounts_db.update(txn, "accounts", 1, balance=1)
    version = accounts_db.commit(txn, version=42)
    assert version == 42
    assert accounts_db.current_version == 42


def test_synchronous_commit_switch_controls_fsyncs(empty_db):
    empty_db.set_synchronous_commit(False)
    txn = empty_db.begin()
    empty_db.insert(txn, "items", 1, value=1)
    empty_db.commit(txn)
    assert empty_db.fsync_count == 0
    empty_db.set_synchronous_commit(True)
    txn = empty_db.begin()
    empty_db.insert(txn, "items", 2, value=2)
    empty_db.commit(txn)
    assert empty_db.fsync_count == 1


def test_ordered_commits_group_into_one_fsync_and_announce_in_order(empty_db):
    t1 = empty_db.begin()
    empty_db.insert(t1, "items", 1, value=1)
    t2 = empty_db.begin()
    empty_db.insert(t2, "items", 2, value=2)
    # Stage out of order: COMMIT 2 then COMMIT 1.
    empty_db.commit_ordered(t2, 2)
    empty_db.commit_ordered(t1, 1)
    assert empty_db.current_version == 0  # nothing announced yet
    announced = empty_db.flush_ordered_commits()
    assert announced == [1, 2]
    assert empty_db.fsync_count == 1
    assert empty_db.current_version == 2
    reader = empty_db.begin()
    assert empty_db.read(reader, "items", 1)["value"] == 1
    assert empty_db.read(reader, "items", 2)["value"] == 2


def test_ordered_commit_waits_for_missing_predecessor(empty_db):
    t2 = empty_db.begin()
    empty_db.insert(t2, "items", 2, value=2)
    empty_db.commit_ordered(t2, 2)
    announced = empty_db.flush_ordered_commits()
    assert announced == []  # version 1 never arrived: effects stay invisible
    assert empty_db.current_version == 0
    assert empty_db.sequencer.would_deadlock()


def test_ordered_commit_rejects_readonly(empty_db):
    txn = empty_db.begin()
    with pytest.raises(InvalidTransactionState):
        empty_db.commit_ordered(txn, 1)


# ----------------------------------------------------------------- misc lifecycle

def test_operations_on_foreign_or_finished_transactions_rejected(accounts_db):
    txn = accounts_db.begin()
    accounts_db.commit(txn)
    with pytest.raises(InvalidTransactionState):
        accounts_db.read(txn, "accounts", 1)
    other_db = Database("other")
    other_db.create_table("accounts", ["id", "balance", "owner"])
    foreign = other_db.begin()
    with pytest.raises(InvalidTransactionState):
        accounts_db.read(foreign, "accounts", 1)


def test_abort_listener_fires_on_forced_aborts(accounts_db):
    events = []
    accounts_db.abort_listeners.append(lambda txn, reason: events.append(reason))
    local = accounts_db.begin()
    accounts_db.update(local, "accounts", 3, balance=1)
    accounts_db.apply_writeset(make_writeset([("accounts", 3)]))
    assert events == ["remote-writeset-priority"]


def test_vacuum_and_stats(accounts_db):
    for _ in range(3):
        txn = accounts_db.begin()
        accounts_db.update(txn, "accounts", 1, balance=1)
        accounts_db.commit(txn)
    removed = accounts_db.vacuum()
    assert removed >= 2
    stats = accounts_db.stats()
    assert stats["commits"] >= 4
    assert stats["tables"]["accounts"] == 10
