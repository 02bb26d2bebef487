"""The TPC-B benchmark (paper Section 9.1).

TPC-B transactions contain "small writes and one read" — the classic
bank-transfer profile: update one account, its teller and its branch, read
the account balance back and append a history record.  The average writeset
size is 158 bytes.  Unlike AllUpdates, TPC-B exhibits genuine write-write
conflicts (hot branch and teller rows) and, under Tashkent-API, *artificial*
conflicts between remote writeset groups (the paper measures a 35% rate),
which force extra serialisation points.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import WorkloadName
from repro.core.writeset import WriteSet
from repro.engine.table import TableSchema
from repro.sim.rng import RandomStreams
from repro.workloads.spec import TransactionProfile, WorkloadSpec


class TPCBWorkload(WorkloadSpec):
    """The TPC-B bank-transfer workload."""

    name = WorkloadName.TPC_B
    default_clients_per_replica = 10
    writeset_apply_cpu_ms = 0.28
    page_io_interference_ms = 1.0
    #: CPU to execute one TPC-B transaction (reads + writes) at the replica.
    exec_cpu_ms = 4.3

    #: TPC-B scaling: tellers per branch and accounts per branch.  The
    #: functional form uses a reduced accounts-per-branch so the examples
    #: stay fast; the conflict structure (hot branch rows) is unchanged.
    tellers_per_branch = 10
    accounts_per_branch_sim = 100_000
    accounts_per_branch_functional = 200

    #: Branches per replica.  TPC-B scales the database with the offered
    #: load; enough branches keep genuine write-write conflicts modest (the
    #: paper: "TPC-B and TPC-W have very few (non-artificial) conflicts")
    #: while the hot branch rows still produce artificial conflicts between
    #: remote writeset groups under Tashkent-API.
    branches_per_replica = 40

    def __init__(self, *, num_replicas: int = 1, scale: int = 1) -> None:
        super().__init__(num_replicas=num_replicas, scale=scale)
        self.branches = max(1, self.num_replicas) * self.branches_per_replica * self.scale
        #: The functional form keeps the database small (a few branches) so
        #: the examples and integration tests stay fast; the conflict
        #: structure (hot branch rows) is unchanged.
        self.functional_branches = max(1, self.num_replicas) * self.scale

    # -- simulation profile -----------------------------------------------------------

    def next_transaction(self, rng: RandomStreams, *, replica_index: int,
                         client_index: int, sequence: int) -> TransactionProfile:
        stream = f"tpcb:r{replica_index}"
        branch = rng.choice_index(stream, self.branches)
        teller = branch * self.tellers_per_branch + rng.choice_index(
            stream, self.tellers_per_branch
        )
        account = branch * self.accounts_per_branch_sim + rng.choice_index(
            stream, self.accounts_per_branch_sim
        )
        delta = rng.choice_index(stream, 1999) - 999
        writeset = WriteSet()
        writeset.add_update("accounts", account, balance_delta=delta)
        writeset.add_update("tellers", teller, balance_delta=delta)
        writeset.add_update("branches", branch, balance_delta=delta, filler="b" * 40)
        writeset.add_insert(
            "history",
            f"h-{replica_index}-{client_index}-{sequence}",
            account=account,
            teller=teller,
            branch=branch,
            delta=delta,
        )
        return TransactionProfile(
            readonly=False,
            exec_cpu_ms=self.exec_cpu_ms,
            writeset=writeset,
            label="tpcb",
        )

    # -- functional form ------------------------------------------------------------------

    def schemas(self) -> Sequence[TableSchema]:
        return (
            TableSchema("branches", ("id", "balance", "filler"), "id"),
            TableSchema("tellers", ("id", "branch", "balance"), "id"),
            TableSchema("accounts", ("id", "branch", "balance"), "id"),
            TableSchema("history", ("id", "account", "teller", "branch", "delta"), "id"),
        )

    def setup(self, session) -> None:
        """Populate branches, tellers and accounts with zero balances."""
        session.begin()
        accounts_per_branch = self.accounts_per_branch_functional
        for branch in range(self.functional_branches):
            session.insert("branches", branch, id=branch, balance=0, filler="")
            for t in range(self.tellers_per_branch):
                teller = branch * self.tellers_per_branch + t
                session.insert("tellers", teller, id=teller, branch=branch, balance=0)
            for a in range(accounts_per_branch):
                account = branch * accounts_per_branch + a
                session.insert("accounts", account, id=account, branch=branch, balance=0)
        outcome = session.commit()
        if not outcome.committed:
            raise RuntimeError("TPC-B setup transaction failed to commit")

    def run_transaction(self, session, rng: RandomStreams, *, client_index: int = 0,
                        sequence: int = 0) -> bool:
        """The TPC-B profile transaction against the functional schema."""
        accounts_per_branch = self.accounts_per_branch_functional
        stream = f"tpcb-func:{client_index}"
        branch = rng.choice_index(stream, self.functional_branches)
        teller = branch * self.tellers_per_branch + rng.choice_index(
            stream, self.tellers_per_branch
        )
        account = branch * accounts_per_branch + rng.choice_index(stream, accounts_per_branch)
        delta = rng.choice_index(stream, 1999) - 999

        session.begin()
        account_row = session.read("accounts", account)
        teller_row = session.read("tellers", teller)
        branch_row = session.read("branches", branch)
        if account_row is None or teller_row is None or branch_row is None:
            session.abort()
            return False
        session.update("accounts", account, balance=int(account_row["balance"]) + delta)
        session.update("tellers", teller, balance=int(teller_row["balance"]) + delta)
        session.update("branches", branch, balance=int(branch_row["balance"]) + delta)
        session.insert(
            "history",
            f"h-{client_index}-{sequence}",
            id=f"h-{client_index}-{sequence}",
            account=account,
            teller=teller,
            branch=branch,
            delta=delta,
        )
        return session.commit().committed
