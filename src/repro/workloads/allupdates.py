"""The AllUpdates benchmark (paper Section 9.1).

"Clients rapidly generate back-to-back short update transactions that do not
conflict.  The average writeset size is 54 bytes for each update
transaction.  AllUpdates represents a worst-case workload for a replicated
system."

Every transaction updates exactly one counter row owned by the issuing
client, so there are never write-write conflicts (neither genuine nor
artificial), which is why Tashkent-API can group every commit record and why
forced aborts (Section 9.5) have to be injected at the certifier to study
abort behaviour at all.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import WorkloadName
from repro.core.writeset import WriteSet
from repro.engine.table import TableSchema
from repro.sim.rng import RandomStreams
from repro.workloads.spec import TransactionProfile, WorkloadSpec


class AllUpdatesWorkload(WorkloadSpec):
    """Back-to-back, non-conflicting, single-row update transactions."""

    name = WorkloadName.ALL_UPDATES
    default_clients_per_replica = 10
    writeset_apply_cpu_ms = 0.19
    page_io_interference_ms = 1.0
    #: CPU to execute one AllUpdates transaction at the replica.
    exec_cpu_ms = 1.3
    #: Rows per client in the counters table (functional form).
    rows_per_client = 4

    # -- simulation profile ---------------------------------------------------------

    def next_transaction(self, rng: RandomStreams, *, replica_index: int,
                         client_index: int, sequence: int) -> TransactionProfile:
        writeset = WriteSet()
        # One small update to a row private to this client: a 54-byte
        # writeset with zero conflict probability.
        key = self._counter_key(replica_index, client_index, sequence)
        writeset.add_update("counters", key, value=sequence, note="x" * 24)
        return TransactionProfile(
            readonly=False,
            exec_cpu_ms=self.exec_cpu_ms,
            writeset=writeset,
            label="allupdates",
        )

    def _counter_key(self, replica_index: int, client_index: int, sequence: int) -> str:
        slot = sequence % self.rows_per_client
        return f"r{replica_index}-c{client_index}-{slot}"

    # -- functional form ----------------------------------------------------------------

    def schemas(self) -> Sequence[TableSchema]:
        return (
            TableSchema(
                name="counters",
                columns=("id", "value", "note"),
                primary_key="id",
            ),
        )

    def setup(self, session) -> None:
        """Create one counter row per (replica, client, slot) combination."""
        session.begin()
        for replica_index in range(self.num_replicas):
            for client_index in range(self.default_clients_per_replica):
                for slot in range(self.rows_per_client):
                    key = f"r{replica_index}-c{client_index}-{slot}"
                    session.insert("counters", key, id=key, value=0, note="")
        outcome = session.commit()
        if not outcome.committed:
            raise RuntimeError("AllUpdates setup transaction failed to commit")

    def run_transaction(self, session, rng: RandomStreams, *, client_index: int = 0,
                        sequence: int = 0) -> bool:
        """Increment this client's counter row (never conflicts)."""
        replica_index = client_index % self.num_replicas
        key = self._counter_key(replica_index, client_index, sequence)
        session.begin()
        row = session.read("counters", key)
        current = int(row["value"]) if row is not None else 0
        session.update("counters", key, value=current + 1, note=f"seq-{sequence}")
        return session.commit().committed
