"""Simulation models of the evaluated systems.

These models reproduce the paper's evaluation (Section 9) by running the
*real* protocol code — certification, ordering, remote-writeset grouping,
artificial-conflict planning — inside the discrete-event simulator, with
disks, CPUs and the network represented by calibrated service-time models.

One model exists per system variant:

* :class:`~repro.cluster.standalone.StandaloneModel` — a single SI database
  with ordinary group commit (the reference point).
* :class:`~repro.cluster.base_system.BaseModel` — ordering in the
  middleware, durability in the database, commits applied serially.
* :class:`~repro.cluster.tashkent_mw.TashkentMWModel` — durability moved to
  the certifier, replica commits are in-memory.
* :class:`~repro.cluster.tashkent_api.TashkentAPIModel` — ordered commits
  (``COMMIT <version>``) grouped inside the database; also covers the
  ``tashAPInoCERT`` ablation.

Every replicated model talks to one
:class:`~repro.cluster.nodes.SimCertifierNode` — one certify/flush pipeline
per certification shard, the paper's single log writer beside one disk at
``certifier_shards=1`` — and N :class:`~repro.cluster.nodes.SimReplicaNode`.

:func:`~repro.cluster.experiment.run_experiment` builds the right model for
an :class:`~repro.cluster.experiment.ExperimentConfig` and returns an
:class:`~repro.cluster.experiment.ExperimentResult`;
:func:`~repro.cluster.sweeps.run_replica_sweep` produces the replica-count
series plotted in the paper's figures, with every client pinned to one
replica as in the paper; what each figure sweep and micro-benchmark measures
is described in ``docs/benchmarks.md``.
"""

from repro.cluster.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.cluster.sweeps import ReplicaSweep, SweepPoint, run_replica_sweep
from repro.cluster.nodes import SimCertifierNode, SimReplicaNode

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ReplicaSweep",
    "SimCertifierNode",
    "SimReplicaNode",
    "SweepPoint",
    "run_experiment",
    "run_replica_sweep",
]
