"""Per-shard Paxos groups and the fault-tolerant sharded certifier.

The paper's availability story (Section 7: "Update transactions can be
processed if a majority of certifier nodes are up and at least one replica
is up") at any shard count: every certification shard's log is replicated
across its **own** Paxos group — one group of three nodes is the paper's
replicated certifier — and the :class:`ReplicatedShardedCertifier`
coordinator is built so that everything it keeps in memory is
reconstructible from the groups' chosen prefixes.

State model
===========

* **Stable** state is the per-shard groups' acceptor/learner state
  (:class:`ShardPaxosGroups`): each replicated :class:`ShardLogEntry`
  carries the full writeset, the touched-shard set and the GC markers —
  enough to rebuild everything else.
* **Volatile** state is the :class:`~repro.core.sharding.ShardedCertifier`
  coordinator: the global sequencer, the version-ordered directory, each
  shard's :class:`~repro.core.certifier_log.CertifierLog` + local↔global
  maps, the replica watermarks and the exactly-once commit-ack table.  A
  coordinator crash (:meth:`ReplicatedShardedCertifier.crash`) wipes all of
  it; :func:`repro.recovery.sharded_recovery.recover_sharded_certifier`
  rebuilds it.

Commit protocol (one certification request)
===========================================

Steps 1 and 2 are the core's round of one
(:meth:`~repro.core.sharding.ShardedCertifier.certify_batch`, crash hook as
its ``phase_hook``):

1. **probe** — every touched shard conflict-checks its fragment (pure,
   volatile; a crash here loses nothing);
2. **admit** — all fragments clean ⇒ the sequencer allocates the global
   commit version and every touched shard installs its fragment (volatile);
3. **flush** — the :class:`ShardLogEntry` for the round is appended to every
   touched shard's Paxos group; a majority of each group accepting it is
   what *durable* means here;
4. only then is the decision acknowledged (and, with a ``tx_id``, recorded
   in the exactly-once table so a client retry after a crash is answered
   from the table instead of re-certifying).

Because probe-all precedes admit-all precedes flush-all, a crash at any
point leaves one of exactly three durable states per round: *nowhere* (the
round aborts on recovery and its global version is re-allocated), *on some
touched shards' groups* (recovery replays the surviving entry — it carries
the full writeset — onto the missing groups and commits the round), or *on
all of them* (recovery simply commits the round).  Nothing else is possible,
which is what makes the crash-schedule harness in ``tests/faults.py``
exhaustive rather than probabilistic.

Quorum rule: an update touching shards ``S`` needs a majority in *each* of
``S``'s groups — checked before any mutation, so quorum loss surfaces as
:class:`~repro.errors.QuorumUnavailableError`, never as a wrong decision.
Read-only requests and refreshes are served from the volatile coordinator
without touching the groups, exactly as the paper serves reads while the
certifier is degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.consensus.log import ReplicatedLog, ReplicatedLogNode
from repro.core.certification import (
    CertificationDecision,
    CertificationRequest,
    CertificationResult,
)
from repro.core.sharding import HashPartitioner, ShardedCertifier
from repro.core.writeset import WriteSet
from repro.errors import ConfigurationError, QuorumUnavailableError, RecoveryError, ReproError

#: Entry kinds carried by the per-shard replicated logs.
ENTRY_COMMIT = "commit"
ENTRY_GC = "gc"


@dataclass(frozen=True)
class ShardLogEntry:
    """One replicated record of a shard's Paxos group.

    A ``commit`` entry describes one certification round from the point of
    view of *any* of its touched shards: it carries the full writeset (not
    just this shard's fragment) and the touched-shard set, so a single
    surviving copy is enough to finish an interrupted round — the shard map,
    fixed by the shard count, re-derives every fragment.  A ``gc`` entry
    records a decided garbage-collection horizon (``global_version`` is the
    prune target).
    """

    kind: str
    global_version: int
    writeset: WriteSet | None = None
    touched: tuple[int, ...] = ()
    origin_replica: str = "unknown"
    #: The transaction's start version (the horizon its fragments were
    #: certified back to at commit time; later extensions are volatile).
    certified_back_to: int = 0
    #: Client-supplied idempotence token (exactly-once acknowledgement).
    tx_id: object = None


@dataclass
class GroupStats:
    """Counters describing one shard group's replication activity."""

    appended_records: int = 0
    leader_changes: int = 0
    state_transfers: int = 0


@dataclass
class ShardedGroupStats:
    """Counters describing the fault-tolerance machinery's activity."""

    coordinator_crashes: int = 0
    recoveries: int = 0
    gc_markers: int = 0
    #: Commit acks answered from the exactly-once table (client retries).
    replayed_acks: int = 0
    #: Exactly-once ack entries dropped below the GC horizon (the table is
    #: horizon-bound: it stops growing with retained history).
    ack_entries_dropped: int = 0
    #: Log-compaction rounds (snapshot taken + group log truncated).
    compactions: int = 0
    per_shard: list[GroupStats] = field(default_factory=list)


class ShardPaxosGroups:
    """N per-shard Paxos groups, one replicated log per certification shard.

    Each group replicates its shard's log across ``nodes_per_shard`` nodes
    with a leader (multi-Paxos, as in :mod:`repro.consensus.log`); shards
    fail, elect and recover **independently** — losing a majority of shard
    3's group stalls only the transactions that touch shard 3.
    """

    def __init__(self, num_shards: int, nodes_per_shard: int = 3) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if nodes_per_shard < 1:
            raise ConfigurationError("nodes_per_shard must be >= 1")
        self.nodes_per_shard = nodes_per_shard
        self.groups: list[ReplicatedLog] = [
            ReplicatedLog([ReplicatedLogNode(node_id=i) for i in range(nodes_per_shard)])
            for _ in range(num_shards)
        ]
        self.stats = [GroupStats() for _ in range(num_shards)]

    @property
    def num_shards(self) -> int:
        return len(self.groups)

    def group(self, shard_id: int) -> ReplicatedLog:
        if not 0 <= shard_id < len(self.groups):
            raise KeyError(f"unknown certification shard {shard_id}")
        return self.groups[shard_id]

    # -- quorum / leadership ----------------------------------------------------

    def has_quorum(self, shard_id: int) -> bool:
        return self.group(shard_id).has_quorum()

    def all_have_quorum(self, shard_ids: list[int] | None = None) -> bool:
        targets = range(self.num_shards) if shard_ids is None else shard_ids
        return all(self.has_quorum(shard_id) for shard_id in targets)

    def leader_id(self, shard_id: int) -> int:
        return self.group(shard_id).leader_id

    def ensure_leader(self, shard_id: int) -> int:
        """Elect a new leader for the shard if the current one is down."""
        group = self.group(shard_id)
        if not group.leader.up:
            previous = group.leader_id
            elected = group.elect_leader()
            if elected != previous:
                self.stats[shard_id].leader_changes += 1
        return group.leader_id

    # -- appending ----------------------------------------------------------------

    def append(self, shard_id: int, entry: ShardLogEntry) -> int:
        """Append ``entry`` through the shard's leader; majority-acked.

        Raises :class:`QuorumUnavailableError` when fewer than a majority of
        the shard's nodes are up (electing a leader first if the previous
        one crashed).  Returns the slot index.
        """
        group = self.group(shard_id)
        if not group.has_quorum():
            raise QuorumUnavailableError(
                f"certification shard {shard_id}: only {len(group.up_nodes())} "
                f"of {len(group.nodes)} group nodes are up"
            )
        self.ensure_leader(shard_id)
        slot = group.append(entry, from_node=group.leader_id)
        self.stats[shard_id].appended_records += 1
        return slot

    # -- failures -----------------------------------------------------------------

    def crash_node(self, shard_id: int, node_id: int) -> None:
        group = self.group(shard_id)
        for node in group.nodes:
            if node.node_id == node_id:
                node.crash()
                return
        raise KeyError(f"shard {shard_id} has no node {node_id}")

    def crash_leader(self, shard_id: int) -> int:
        """Crash the shard's current leader; returns its node id."""
        leader = self.group(shard_id).leader_id
        self.crash_node(shard_id, leader)
        return leader

    def recover_node(self, shard_id: int, node_id: int) -> int:
        """Bring a shard-group node back: state transfer from an up peer."""
        group = self.group(shard_id)
        for node in group.nodes:
            if node.node_id == node_id:
                node.recover()
                transferred = group.catch_up(node)
                self.stats[shard_id].state_transfers += 1
                return transferred
        raise KeyError(f"shard {shard_id} has no node {node_id}")

    # -- log compaction ------------------------------------------------------------

    def compaction_base(self, shard_id: int) -> int:
        """First retained slot of the shard's group (0 = never compacted)."""
        return self.group(shard_id).base_slot()

    def snapshot_at(self, shard_id: int) -> object | None:
        """The snapshot backing the shard group's truncation point."""
        return self.group(shard_id).snapshot()

    def truncate_group(self, shard_id: int, up_to_slot: int,
                       snapshot: object) -> int:
        """Truncate the shard's replicated log beneath ``up_to_slot``.

        Requires quorum (compaction replaces chosen slots; doing so while a
        majority cannot confirm them would risk compacting an unchosen
        value).  Returns the number of entries dropped across up nodes.
        """
        group = self.group(shard_id)
        if not group.has_quorum():
            raise QuorumUnavailableError(
                f"certification shard {shard_id} has no majority; "
                f"compaction needs a quorum to confirm the chosen prefix"
            )
        dropped = group.truncate_to(up_to_slot, snapshot)
        return dropped

    def node_log_lengths(self, shard_id: int) -> list[int]:
        """Retained entry-list length per node (bounded-log evidence)."""
        return [len(node.entries) for node in self.group(shard_id).nodes]

    # -- recovery reads -----------------------------------------------------------

    def chosen_entries(self, shard_id: int) -> list[ShardLogEntry]:
        """The shard's chosen entry sequence above the compaction base, read
        across the up nodes.

        Requires a majority (recovery cannot proceed degraded below quorum —
        a minority might miss chosen entries).  The union read repairs
        leader-local holes: any learned value *is* the chosen value for its
        slot, so the first copy found is authoritative.  Starts at the
        furthest truncation point among up nodes; everything beneath it is
        covered by :meth:`snapshot_at`.
        """
        group = self.group(shard_id)
        if not group.has_quorum():
            raise QuorumUnavailableError(
                f"certification shard {shard_id} has no majority; "
                f"recovery needs a quorum to read the chosen prefix"
            )
        up_nodes = group.up_nodes()
        base = max((node.base_slot for node in up_nodes), default=0)
        length = max(
            (node.base_slot + len(node.entries) for node in up_nodes), default=0
        )
        entries: list[ShardLogEntry] = []
        for slot in range(base, length):
            value = None
            for node in up_nodes:
                if node.covers(slot):
                    value = node.entry_at(slot)
                    if value is not None:
                        break
            if value is None:
                break
            entries.append(value)
        return entries

    def up_count(self, shard_id: int) -> int:
        return len(self.group(shard_id).up_nodes())

    def __repr__(self) -> str:
        return (
            f"ShardPaxosGroups(shards={self.num_shards}, "
            f"nodes_per_shard={self.nodes_per_shard})"
        )


class ReplicatedShardedCertifier:
    """Fault-tolerant sharded certification (see the module docstring).

    Wraps the volatile :class:`~repro.core.sharding.ShardedCertifier` with a
    :class:`ShardPaxosGroups` stable layer.  ``crash_hook``, when set, is
    invoked with a crash-point name at every protocol boundary (``pre-probe``,
    ``post-probe``, ``pre-admit``, ``mid-admit``, ``post-admit``,
    ``pre-flush``, ``mid-flush``, ``post-flush``); a hook that raises models
    a coordinator crash at exactly that point.  Reads (refreshes, horizon
    extensions, stats) delegate to :attr:`core` directly.
    """

    def __init__(
        self,
        num_shards: int = 2,
        *,
        nodes_per_shard: int = 3,
        forced_abort_rate: float = 0.0,
        abort_chooser: Callable[[], float] | None = None,
        crash_hook: Callable[[str], None] | None = None,
        gc_headroom: int = 0,
    ) -> None:
        if gc_headroom < 0:
            raise ConfigurationError("gc_headroom must be >= 0")
        self.groups = ShardPaxosGroups(num_shards, nodes_per_shard)
        self.crash_hook = crash_hook
        #: Default records kept below the replicas' low-water mark by
        #: :meth:`collect_garbage` — the knob trading snapshot cadence
        #: against retained-suffix length (sweepable through the sim config).
        self.gc_headroom = gc_headroom
        self.stats = ShardedGroupStats(per_shard=self.groups.stats)
        # Construction parameters are kept so recovery rebuilds an
        # identically configured coordinator.
        self._forced_abort_rate = forced_abort_rate
        self._abort_chooser = abort_chooser
        self.core: ShardedCertifier | None = ShardedCertifier(
            num_shards, forced_abort_rate=forced_abort_rate, abort_chooser=abort_chooser)
        self._partitioner = HashPartitioner(num_shards)
        #: Exactly-once commit acknowledgements: tx_id → global commit
        #: version, rebuilt from the replicated entries on recovery.
        self._committed_tx: dict[object, int] = {}

    @property
    def num_shards(self) -> int:
        return self.groups.num_shards

    @property
    def crashed(self) -> bool:
        return self.core is None

    @property
    def partitioner(self) -> HashPartitioner:
        """The shard map, fixed by the shard count (survives a crash)."""
        return self._partitioner

    def _hook(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    def _alive(self) -> ShardedCertifier:
        if self.core is None:
            raise RecoveryError(
                "the sharded certifier coordinator is crashed; run "
                "recover_sharded_certifier() before serving requests"
            )
        return self.core

    # -- certification -------------------------------------------------------

    def certify(self, request: CertificationRequest,
                *, tx_id: object = None) -> CertificationResult:
        """Certify a transaction; the decision is durable on a majority of
        every touched shard's group before it is acknowledged.

        ``tx_id`` opts into exactly-once acknowledgement: a retry of a
        transaction whose round survived a coordinator crash is answered
        from the recovered commit table instead of being re-certified (and
        double-committed).  Raises :class:`QuorumUnavailableError` — before
        any mutation — when some touched shard's group has no majority.
        """
        core = self._alive()
        self._hook("pre-probe")
        if tx_id is not None and tx_id in self._committed_tx:
            commit_version = self._committed_tx[tx_id]
            self.stats.replayed_acks += 1
            # The original response's window: nothing committed after the
            # recorded decision rides along, or a serial applier would
            # install it before this (earlier) commit.
            remote = core.fetch_remote_writesets(
                request.replica_version,
                replica=request.origin_replica or None,
                up_to=commit_version - 1)
            return CertificationResult(
                decision=CertificationDecision.COMMIT,
                tx_commit_version=commit_version,
                remote_writesets=remote,
            )
        touched = sorted(self._partitioner.split(request.writeset))
        if not self.groups.all_have_quorum(touched):
            degraded = [s for s in touched if not self.groups.has_quorum(s)]
            raise QuorumUnavailableError(
                f"no majority in certification shard group(s) {degraded}; "
                f"update transactions cannot be processed"
            )
        result = core.certify_batch([request], phase_hook=self._hook)[0]
        if isinstance(result, ReproError):
            raise result
        if result.committed and result.tx_commit_version is not None:
            record = core.record_at(result.tx_commit_version)
            self._hook("pre-flush")
            entry = ShardLogEntry(
                kind=ENTRY_COMMIT,
                global_version=record.commit_version,
                writeset=record.writeset,
                touched=tuple(shard_id for shard_id, _ in record.shard_locals),
                origin_replica=record.origin_replica,
                certified_back_to=request.tx_start_version,
                tx_id=tx_id,
            )
            for position, (shard_id, _local) in enumerate(record.shard_locals):
                self.groups.append(shard_id, entry)
                if position == 0:
                    self._hook("mid-flush")
            # A majority of every touched group holds the entry: that is the
            # durability of a replicated deployment, so the shard logs'
            # durable horizons advance without any fsync of their own.
            for shard_id, local in record.shard_locals:
                shard = core.shards[shard_id]
                if local > shard.log.durable_version:
                    shard.log.mark_durable(local)
            core.advance_durable_frontier()
            self._hook("post-flush")
            if tx_id is not None:
                self._committed_tx[tx_id] = result.tx_commit_version
        return result

    # -- garbage collection --------------------------------------------------

    def collect_garbage(self, *, headroom: int | None = None) -> int:
        """Prune below the low-water mark, durably.

        The decided horizon is replicated as a ``gc`` marker to **every**
        shard group before the volatile prune, so a recovering coordinator
        re-prunes to exactly the same version (the satellite invariant: the
        GC low-water mark survives a coordinator restart).  Skipped — not
        failed — while any group lacks quorum: GC is background work.

        ``headroom`` defaults to the certifier's configured
        :attr:`gc_headroom`.  Exactly-once ack entries at or below the pruned
        horizon are dropped with it: their log entries are the rebuild source
        on recovery, so an ack must never outlive its entry — this is what
        keeps the commit-ack table horizon-bound instead of growing with
        history.
        """
        core = self._alive()
        effective = self.gc_headroom if headroom is None else headroom
        target = core.gc_target(headroom=effective)
        if target is None:
            return 0
        if not self.groups.all_have_quorum():
            return 0
        marker = ShardLogEntry(kind=ENTRY_GC, global_version=target)
        for shard_id in range(self.num_shards):
            self.groups.append(shard_id, marker)
        self.stats.gc_markers += 1
        stale = [tx for tx, version in self._committed_tx.items() if version <= target]
        for tx in stale:
            del self._committed_tx[tx]
        self.stats.ack_entries_dropped += len(stale)
        return core.apply_gc(target)

    def committed_acks(self) -> dict[object, int]:
        """A copy of the exactly-once commit-ack table (tx_id → version)."""
        return dict(self._committed_tx)

    @property
    def committed_tx_count(self) -> int:
        """Live size of the exactly-once ack table (bounded under GC)."""
        return len(self._committed_tx)

    # -- crash / recovery ----------------------------------------------------

    def crash(self) -> None:
        """Coordinator crash: every volatile structure is lost.

        The per-shard Paxos groups are stable storage and survive.  The
        certifier refuses requests until
        :func:`repro.recovery.sharded_recovery.recover_sharded_certifier`
        rebuilds the coordinator.
        """
        self.core = None
        self._committed_tx = {}
        self.stats.coordinator_crashes += 1

    def adopt_core(self, core: ShardedCertifier,
                   committed_tx: dict[object, int]) -> None:
        """Install a recovered coordinator (called by the recovery module)."""
        if core.num_shards != self.num_shards:
            raise RecoveryError(
                f"recovered coordinator covers {core.num_shards} shards, "
                f"the groups cover {self.num_shards}"
            )
        self.core = core
        self._committed_tx = dict(committed_tx)
        self.stats.recoveries += 1

    def rebuild_parameters(self) -> dict[str, object]:
        """Constructor parameters recovery must reproduce."""
        return {
            "forced_abort_rate": self._forced_abort_rate,
            "abort_chooser": self._abort_chooser,
        }

    # -- convenience passthroughs (volatile reads) ---------------------------

    def fetch_remote_writesets(self, replica_version: int,
                               check_back_to: int | None = None,
                               *, replica: str | None = None,
                               up_to: int | None = None,
                               exclude_version: int | None = None):
        return self._alive().fetch_remote_writesets(
            replica_version, check_back_to, replica=replica, up_to=up_to,
            exclude_version=exclude_version)

    def note_replica_version(self, replica: str, version: int) -> None:
        self._alive().note_replica_version(replica, version)

    def __repr__(self) -> str:
        state = "crashed" if self.crashed else f"version={self.core.last_version}"
        return (
            f"ReplicatedShardedCertifier(shards={self.num_shards}, "
            f"nodes_per_shard={self.groups.nodes_per_shard}, {state})"
        )
