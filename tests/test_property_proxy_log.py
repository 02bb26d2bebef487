"""The indexed, pruned ``proxy_log`` decides exactly what the list scan decided.

Two identical stacks are driven through the same random schedule — sessions
held open across other replicas' commits, in-band remote batches, refreshes
and maintenance steps at arbitrary points — one on :class:`TransparentProxy`
(indexed log, pruned by ``maintain``), one on the never-trimmed list scan of
``tests/proxy_oracle.py``.  They must agree on every commit / abort decision
and abort *reason*, on the effective start version each commit sends to the
certifier, and on the proxies' abort counters.
"""

import pytest
from hypothesis import given, settings, strategies as st
from proxy_oracle import ScanProxy

from repro.core.config import SystemKind
from repro.engine.database import Database
from repro.engine.locks import LockBlockedError
from repro.errors import CertificationAborted, TransactionAborted
from repro.middleware.certifier import CertifierService
from repro.middleware.proxy import TransparentProxy

REPLICATED = [SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API]
KEYS = 4
SESSIONS = 3


class Stack:
    """``replicas`` proxies of one class over one certifier, every row loaded."""

    def __init__(self, proxy_cls, system: SystemKind, replicas: int, *,
                 eager: bool = True, local: bool = True) -> None:
        self.certifier = CertifierService()
        #: ``(origin replica, tx_start_version)`` of every certification request.
        self.sent: list[tuple[str, int]] = []
        certify = self.certifier.certify

        def recording_certify(request):
            self.sent.append((request.origin_replica, request.tx_start_version))
            return certify(request)

        self.certifier.certify = recording_certify
        self.proxies = []
        for index in range(replicas):
            database = Database(f"replica-{index}")
            database.create_table("kv", ["id", "value"])
            self.proxies.append(proxy_cls(
                database, self.certifier, system=system, replica_name=f"replica-{index}",
                eager_pre_certification=eager, local_certification=local))
        loader = self.proxies[0].begin()
        for key in range(KEYS):
            self.proxies[0].insert(loader, "kv", key, id=key, value=0)
        assert self.proxies[0].commit(loader).committed
        for proxy in self.proxies[1:]:
            proxy.refresh()
        #: ``(replica, session) -> open ProxyTransaction``.
        self.open: dict[tuple[int, int], object] = {}

    def step(self, action: tuple) -> tuple:
        """Run one schedule action; returns what a client would observe."""
        kind, replica = action[0], action[1]
        proxy = self.proxies[replica % len(self.proxies)]
        if kind == "refresh":
            return ("refreshed", proxy.refresh())
        if kind == "maintain":
            proxy.maintain()
            return ("maintained",)
        slot = (replica % len(self.proxies), action[2])
        if kind != "commit" and slot not in self.open:
            self.open[slot] = proxy.begin()
        if kind == "begin":
            return ("begun", self.open[slot].tx_start_version)
        txn = self.open.get(slot)
        if txn is None:
            return ("idle",)
        try:
            if kind == "write":
                proxy.update(txn, "kv", action[3], value=action[4])
                return ("wrote",)
            del self.open[slot]
            outcome = proxy.commit(txn)
            return ("commit", outcome.committed, outcome.abort_reason,
                    outcome.commit_version, txn.versions.effective_start_version)
        except LockBlockedError:
            # No waiting in a single-threaded schedule: the blocked writer
            # gives up, as a live replica's worker does.
            self.open.pop(slot, None)
            proxy.abort(txn)
            return ("blocked",)
        except TransactionAborted as exc:
            self.open.pop(slot, None)
            return ("aborted", type(exc).__name__, exc.reason, txn.engine_txn.abort_reason)

    def abort_counters(self) -> list[tuple[int, int, int]]:
        return [(p.stats.certification_aborts, p.stats.local_certification_aborts,
                 p.stats.eager_precert_aborts) for p in self.proxies]


replica_ids = st.integers(0, 2)
session_ids = st.integers(0, SESSIONS - 1)
actions = st.one_of(
    st.tuples(st.just("begin"), replica_ids, session_ids),
    st.tuples(st.just("write"), replica_ids, session_ids,
              st.integers(0, KEYS - 1), st.integers(-9, 9)),
    st.tuples(st.just("commit"), replica_ids, session_ids),
    st.tuples(st.just("refresh"), replica_ids),
    st.tuples(st.just("maintain"), replica_ids),
)


@given(system=st.sampled_from(REPLICATED), replicas=st.integers(2, 3),
       eager=st.booleans(), local=st.booleans(),
       schedule=st.lists(actions, min_size=30, max_size=60))
@settings(max_examples=120, deadline=None)
def test_indexed_proxy_log_decides_what_the_scan_decided(system, replicas, eager, local,
                                                         schedule):
    indexed = Stack(TransparentProxy, system, replicas, eager=eager, local=local)
    scanned = Stack(ScanProxy, system, replicas, eager=eager, local=local)
    for action in schedule:
        assert indexed.step(action) == scanned.step(action), action
    assert indexed.sent == scanned.sent
    assert indexed.abort_counters() == scanned.abort_counters()
    for pruned, full in zip(indexed.proxies, scanned.proxies):
        assert pruned.replica_version.version == full.replica_version.version
        assert pruned.proxy_log.retained_count <= len(full.scan_log)


@pytest.mark.parametrize("system", REPLICATED)
def test_a_transaction_older_than_a_maintenance_step_still_aborts_locally(system):
    """Opened before the step, conflicted after it, pruned around — and the
    write is still refused at the proxy, never reaching the certifier."""
    stack = Stack(TransparentProxy, system, 2)
    here, there = stack.proxies
    here.maintain()
    old = here.begin()
    remote = there.begin()
    there.update(remote, "kv", 1, value=7)
    assert there.commit(remote).committed
    assert here.refresh() == 1
    here.maintain()
    assert here.proxy_log.retained_count == 1  # the open transaction pins it
    requests = len(stack.sent)
    with pytest.raises(CertificationAborted):
        here.update(old, "kv", 1, value=8)
    assert old.engine_txn.abort_reason == "eager-pre-certification"
    assert here.stats.eager_precert_aborts == 1
    assert len(stack.sent) == requests
    here.maintain()
    assert here.proxy_log.retained_count == 0  # nothing pins it any more


@pytest.mark.parametrize("system", REPLICATED)
def test_local_certification_refuses_a_conflict_the_pruned_log_still_holds(system):
    """The commit-time check, with the write-time one off: same transaction
    shape, refused as ``local-certification`` without a certifier round trip."""
    stack = Stack(TransparentProxy, system, 2, eager=False)
    here, there = stack.proxies
    old = here.begin()
    remote = there.begin()
    there.update(remote, "kv", 2, value=7)
    assert there.commit(remote).committed
    here.refresh()
    here.maintain()
    # Buffer the write behind the engine's back (its own first-updater-wins
    # check would otherwise refuse the write before the proxy's commit-time
    # check is reached).
    old.engine_txn.buffer_update("kv", 2, {"value": 8})
    requests = len(stack.sent)
    outcome = here.commit(old)
    assert (outcome.committed, outcome.abort_reason) == (False, "local-certification")
    assert here.stats.local_certification_aborts == 1
    assert len(stack.sent) == requests


def test_a_conflict_free_commit_advances_its_start_to_the_log_head():
    stack = Stack(TransparentProxy, SystemKind.TASHKENT_MW, 2)
    here, there = stack.proxies
    old = here.begin()
    for value in range(3):
        remote = there.begin()
        there.update(remote, "kv", 1, value=value)
        assert there.commit(remote).committed
    here.refresh()
    here.maintain()
    here.update(old, "kv", 0, value=1)
    assert here.commit(old).committed
    assert stack.sent[-1] == ("replica-0", old.tx_start_version + 3)
