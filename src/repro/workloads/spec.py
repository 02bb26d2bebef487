"""The workload interface shared by the simulator and the functional path."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.config import WorkloadName
from repro.core.writeset import WriteSet
from repro.engine.table import TableSchema
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.middleware.client_api import ClientSession


@dataclass(frozen=True)
class TransactionProfile:
    """Everything the simulator needs to know about one transaction."""

    readonly: bool
    exec_cpu_ms: float
    writeset: WriteSet = field(default_factory=WriteSet)
    label: str = "txn"

    @property
    def is_update(self) -> bool:
        return not self.readonly


class WorkloadSpec(abc.ABC):
    """Base class for the three benchmarks.

    Subclasses define the per-transaction CPU cost, the writeset structure
    (which determines both the wire size and the conflict behaviour), and the
    functional schema plus transaction bodies used by the examples.
    """

    #: Which benchmark this is.
    name: WorkloadName
    #: Closed-loop clients attached to each replica (sized to drive a replica
    #: at ~85% of standalone peak, per the paper's methodology).
    default_clients_per_replica: int = 10
    #: CPU cost of applying one remote writeset at a replica (ms).
    writeset_apply_cpu_ms: float = 0.25
    #: Mean extra fsync delay caused by database page IO when the logging
    #: channel is shared with the data files (ms).  Zero when the database is
    #: tiny and effectively memory-resident.
    page_io_interference_ms: float = 1.0
    #: In-memory commit cost when synchronous commit is disabled (ms).
    in_memory_commit_ms: float = 0.05
    #: Client think time between transactions (ms).  Zero for the
    #: back-to-back AllUpdates/TPC-B clients; TPC-W emulated browsers think.
    think_time_ms: float = 0.0

    def __init__(self, *, num_replicas: int = 1, scale: int = 1) -> None:
        self.num_replicas = max(1, num_replicas)
        self.scale = max(1, scale)

    # -- simulation interface ---------------------------------------------------

    @abc.abstractmethod
    def next_transaction(self, rng: RandomStreams, *, replica_index: int,
                         client_index: int, sequence: int) -> TransactionProfile:
        """Generate the next transaction for a given client."""

    # -- functional interface -----------------------------------------------------

    @abc.abstractmethod
    def schemas(self) -> Sequence[TableSchema]:
        """Table schemas for the functional (engine-backed) form."""

    @abc.abstractmethod
    def setup(self, session: "ClientSession") -> None:
        """Load initial data through a client session."""

    @abc.abstractmethod
    def run_transaction(self, session: "ClientSession", rng: RandomStreams, *,
                        client_index: int = 0, sequence: int = 0) -> bool:
        """Run one transaction through the public client API.

        Returns True when the transaction committed, False when it aborted
        (callers decide whether to retry).
        """

    # -- shared helpers -------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name.value,
            "clients_per_replica": self.default_clients_per_replica,
            "writeset_apply_cpu_ms": self.writeset_apply_cpu_ms,
            "page_io_interference_ms": self.page_io_interference_ms,
            "num_replicas": self.num_replicas,
            "scale": self.scale,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(replicas={self.num_replicas}, scale={self.scale})"


def workload_by_name(name: WorkloadName | str, *, num_replicas: int = 1,
                     scale: int = 1) -> WorkloadSpec:
    """Instantiate a workload from its :class:`WorkloadName`."""
    from repro.workloads.allupdates import AllUpdatesWorkload
    from repro.workloads.tpcb import TPCBWorkload
    from repro.workloads.tpcw import TPCWWorkload

    name = WorkloadName(name)
    classes = {
        WorkloadName.ALL_UPDATES: AllUpdatesWorkload,
        WorkloadName.TPC_B: TPCBWorkload,
        WorkloadName.TPC_W: TPCWWorkload,
    }
    return classes[name](num_replicas=num_replicas, scale=scale)
