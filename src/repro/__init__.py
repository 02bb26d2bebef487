"""Reproduction of "Tashkent: Uniting Durability with Transaction Ordering
for High-Performance Scalable Database Replication" (EuroSys 2006).

The package is organised in layers:

``repro.core``
    Pure protocol logic shared by every other layer: writesets and their
    intersection test, version bookkeeping for generalized snapshot isolation
    (GSI), the certification rule, the certifier log, the group-commit
    batching policy, the commit-order sequencer and artificial-conflict
    detection.

``repro.engine``
    A from-scratch snapshot-isolation MVCC storage engine playing the role of
    PostgreSQL in the paper: versioned rows, write locks with
    first-updater-wins semantics, deadlock detection, a write-ahead log with
    group commit, a synchronous-commit switch, writeset-extraction triggers,
    an ordered ``COMMIT <version>`` API, checkpoints and crash recovery.

``repro.transport``
    The propagation subsystem shared by the functional and simulated stacks:
    the ``WritesetStream`` that pushes certified writesets from the
    certifier to every replica, one batch per fsync group.

``repro.middleware``
    The replication middleware: the transparent proxy and the certifier, and
    factories assembling the three replicated systems evaluated in the paper
    (Base, Tashkent-MW and Tashkent-API) on top of real engine instances.

``repro.consensus``
    Paxos / multi-Paxos used to replicate the certifier for availability.

``repro.sim``
    A deterministic discrete-event simulation kernel plus disk, network and
    CPU models used to reproduce the paper's scalability evaluation without
    depending on wall-clock performance of the host.

``repro.cluster``
    Simulation models of Standalone, Base, Tashkent-MW and Tashkent-API
    clusters, closed-loop clients, and the experiment runner used by the
    benchmark harness.

``repro.workloads``
    AllUpdates, TPC-B and TPC-W (shopping mix) workload generators.

``repro.recovery``
    Replica and certifier recovery procedures and the recovery-time model
    from Section 9.6 of the paper.

``repro.analysis``
    Result tables and paper-versus-measured reporting helpers.

Start with the top-level ``README.md``; the layer map and subsystem guides
live in ``docs/architecture.md`` and ``docs/benchmarks.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.config": ["DiskConfig", "NetworkConfig", "ReplicationConfig",
                          "SystemKind", "WorkloadName"],
    "repro.core.writeset": ["WriteItem", "WriteSet"],
    "repro.core.versions": ["VersionClock"],
    "repro.core.certification": ["CertificationDecision", "Certifier"],
    "repro.engine.database": ["Database", "IsolationError"],
    "repro.middleware.systems": ["ReplicatedSystem", "build_base_system",
                                 "build_tashkent_api_system", "build_tashkent_mw_system"],
    "repro.cluster.experiment": ["ExperimentConfig", "ExperimentResult", "run_experiment"],
    "repro.cluster.sweeps": ["ReplicaSweep", "run_replica_sweep"],
    "repro.transport.stream": ["WritesetStream"],
    "repro.workloads": ["allupdates", "tpcb", "tpcw"],
})

__version__ = "1.0.0"
