"""Tests for the client session layer."""

import pytest

from repro.errors import InvalidTransactionState, TransactionAborted
from repro.middleware.systems import build_tashkent_mw_system


@pytest.fixture
def system():
    system = build_tashkent_mw_system(num_replicas=2)
    system.create_table("items", ["id", "value"])

    def loader(session):
        session.begin()
        for i in range(5):
            session.insert("items", i, id=i, value=i)
        session.commit()

    system.load_initial_data(loader)
    return system


def test_session_requires_begin_before_statements(system):
    session = system.session(0)
    with pytest.raises(InvalidTransactionState):
        session.read("items", 1)
    with pytest.raises(InvalidTransactionState):
        session.commit()


def test_session_rejects_nested_begin(system):
    session = system.session(0)
    session.begin()
    with pytest.raises(InvalidTransactionState):
        session.begin()
    session.abort()


def test_commit_and_abort_counters(system):
    session = system.session(0)
    session.begin()
    session.update("items", 1, value=10)
    assert session.commit().committed
    session.begin()
    session.update("items", 2, value=20)
    session.abort()
    assert session.commits == 1
    assert session.aborts == 1
    assert not session.in_transaction


def test_transaction_context_manager_commits_on_success(system):
    session = system.session(0)
    with session.transaction():
        value = session.read("items", 3)["value"]
        session.update("items", 3, value=value + 1)
    assert session.commits == 1
    assert session.run_readonly("items", 3)["value"] == 4


def test_transaction_context_manager_aborts_on_error(system):
    session = system.session(0)
    with pytest.raises(ValueError):
        with session.transaction():
            session.update("items", 3, value=99)
            raise ValueError("boom")
    assert session.aborts == 1
    assert session.run_readonly("items", 3)["value"] == 3


def test_conflicting_sessions_one_wins(system):
    a = system.session(0, client_name="a")
    b = system.session(1, client_name="b")
    a.begin()
    b.begin()
    results = []
    for session, value in ((a, 1), (b, 2)):
        try:
            session.update("items", 4, value=value)
            results.append(session.commit().committed)
        except TransactionAborted:
            results.append(False)
    assert results.count(True) == 1


def test_eager_precertification_abort_ends_the_session_transaction(system):
    # Commit a write to row 1 through replica 0 while replica 1 is stale.
    writer = system.session(0, client_name="writer")
    writer.begin()
    writer.update("items", 1, value=10)
    assert writer.commit().committed

    # Begin on stale replica 1, then let the refresh deliver the conflicting
    # writeset mid-transaction: the write hits eager pre-certification,
    # which aborts the statement and the session's transaction with it.
    stale = system.session(1, client_name="stale")
    stale.begin()
    system.replicas[1].refresh()
    with pytest.raises(TransactionAborted):
        stale.update("items", 1, value=99)
    assert not stale.in_transaction
    assert stale.aborts == 1
    assert system.replicas[1].proxy.stats.eager_precert_aborts == 1
    stale.begin()
    stale.update("items", 1, value=11)
    assert stale.commit().committed


def test_scan_through_session(system):
    session = system.session(0)
    session.begin()
    rows = session.scan("items")
    session.commit()
    assert len(rows) == 5


def test_delete_through_session(system):
    session = system.session(0)
    with session.transaction():
        session.delete("items", 0)
    assert session.run_readonly("items", 0) is None
    assert system.replicas_consistent()
