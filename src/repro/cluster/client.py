"""Closed-loop client processes.

The paper drives each replica with a fixed number of closed-loop clients
("we determine the number of clients needed to generate 85% of the peak
throughput [of a standalone database].  In the following experiments, each
replica is driven at this load").  A closed-loop client issues one
transaction, waits for it to complete, and immediately issues the next; for
AllUpdates this is literally "back-to-back short update transactions".

:func:`client_process` is that client, pinned to one replica for its whole
life as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.kernel import Environment
from repro.sim.metrics import MetricsCollector, TransactionRecord
from repro.sim.rng import RandomStreams
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.models import SystemModel
    from repro.cluster.nodes import SimReplicaNode


def client_process(
    env: Environment,
    model: "SystemModel",
    replica: "SimReplicaNode",
    *,
    replica_index: int,
    client_index: int,
    workload: WorkloadSpec,
    rng: RandomStreams,
    metrics: MetricsCollector,
    stop_ms: float,
    think_time_ms: float = 0.0,
) -> Generator:
    """One closed-loop client bound to one replica."""
    sequence = 0
    while env.now < stop_ms:
        profile = workload.next_transaction(
            rng,
            replica_index=replica_index,
            client_index=client_index,
            sequence=sequence,
        )
        sequence += 1
        start_ms = env.now
        # BEGIN: the transaction reads from the replica's current snapshot.
        tx_start_version = replica.replica_version
        # Local execution (reads and writes run against the local snapshot).
        yield from replica.cpu.execute(profile.exec_cpu_ms)
        if profile.readonly:
            # Read-only transactions commit locally, never contact the
            # certifier, and never wait for a disk write.
            committed = True
            abort_reason = None
        else:
            committed, abort_reason = yield from model.commit_update(
                replica, profile, tx_start_version
            )
        metrics.record(
            TransactionRecord(
                start_ms=start_ms,
                end_ms=env.now,
                committed=committed,
                readonly=profile.readonly,
                replica=replica.name,
                aborted_reason=abort_reason,
            )
        )
        if think_time_ms > 0:
            yield env.timeout(
                rng.expovariate(f"think:{replica_index}:{client_index}", think_time_ms)
            )

