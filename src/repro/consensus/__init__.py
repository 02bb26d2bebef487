"""Certifier availability substrate: Paxos-replicated state.

The paper replicates the certifier across a small set of nodes using Paxos
(Section 7.3): a leader receives all certification requests, sends the new
log records to every certifier node, and declares transactions committed
once a majority has acknowledged the write.  This package provides:

* :mod:`repro.consensus.paxos` — single-decree Paxos (proposers, acceptors);
* :mod:`repro.consensus.log` — a multi-Paxos style replicated log with a
  leader, majority acknowledgement, catch-up, and log compaction behind
  self-validating snapshots (``truncate_to`` / ``install_snapshot``,
  orchestrated by :mod:`repro.recovery.snapshots`);
* :mod:`repro.consensus.sharded` — the replicated certifier: one Paxos group
  per certification shard (one group is the paper's deployment), crash and
  recovery of individual group nodes, and a coordinator reconstructible
  from the groups' chosen prefixes (recovery orchestration lives in
  :mod:`repro.recovery.sharded_recovery`, node rejoin in
  :mod:`repro.recovery.snapshots`; see ``docs/recovery.md``).

A supporting package of the layer map in ``docs/architecture.md``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.consensus.paxos": ["Acceptor", "PaxosInstance", "Proposer"],
    "repro.consensus.log": ["ReplicatedLog", "ReplicatedLogNode"],
    "repro.consensus.sharded": ["ReplicatedShardedCertifier", "ShardLogEntry",
                                "ShardPaxosGroups"],
})
