"""Deterministic discrete-event simulation substrate.

The paper's evaluation is dominated by IO arithmetic (how many commit
records share one fsync) and by queueing at the replicas' CPUs and disks.
Measuring wall-clock throughput of a pure-Python prototype would say more
about the Python interpreter than about the protocol, so the evaluation runs
the *real protocol code* (certification, ordering, grouping, conflict
detection) against simulated clocks, disks, CPUs and network links.

The kernel is a small generator-based simulator in the style of SimPy:
processes are generators that ``yield`` events (timeouts, resource requests,
other processes); the environment advances virtual time from event to event.
Everything is deterministic given the experiment's RNG seed.  See
``docs/architecture.md`` for how the simulated stack sits on this kernel.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.sim.kernel": ["AllOf", "Environment", "Event", "Process", "Timeout"],
    "repro.sim.resources": ["Resource", "Store"],
    "repro.sim.devices": ["CpuServer", "DiskChannel", "NetworkLink"],
    "repro.sim.metrics": ["MetricsCollector", "TransactionRecord", "UtilizationTracker"],
    "repro.sim.rng": ["RandomStreams"],
})
