"""A leader-based replicated log (multi-Paxos style).

The replicated certifier needs a log whose entries are agreed on by a
majority of certifier nodes before they count as durable (paper, Section
7.3: "When a majority of certifiers reply, the leader declares those
transactions as committed").  Each log slot is a Paxos instance; in the
common case the stable leader skips phase 1 and drives phase 2 directly,
which is exactly the one-round-trip-plus-fsync behaviour the paper assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.consensus.paxos import Acceptor, Proposer
from repro.errors import ConsensusError, NotLeaderError, QuorumUnavailableError


@dataclass
class ReplicatedLogNode:
    """One certifier node's replica of the log.

    Slots below :attr:`base_slot` have been *compacted away*: their effect is
    folded into :attr:`snapshot` (an opaque, self-validating object installed
    by :meth:`truncate_to` or :meth:`install_snapshot`), and ``entries[i]``
    holds the value of absolute slot ``base_slot + i``.  An untruncated node
    has ``base_slot == 0`` and behaves exactly as before.
    """

    node_id: int
    entries: list[object] = field(default_factory=list)
    #: Each slot has its own acceptor state.
    acceptors: dict[int, Acceptor] = field(default_factory=dict)
    up: bool = True
    #: Synchronous writes performed by this node (each accepted slot is one
    #: stable-storage write in the real system; they are batched in practice).
    stable_writes: int = 0
    #: First retained slot; everything below it is covered by the snapshot.
    base_slot: int = 0
    #: The snapshot covering slots ``[0, base_slot)`` (``None`` when intact).
    snapshot: object | None = None
    #: Snapshots installed via anti-entropy state transfer (not local GC).
    snapshot_installs: int = 0

    def acceptor_for(self, slot: int) -> Acceptor:
        acceptor = self.acceptors.get(slot)
        if acceptor is None:
            acceptor = Acceptor(self.node_id)
            self.acceptors[slot] = acceptor
        acceptor.up = self.up
        return acceptor

    def covers(self, slot: int) -> bool:
        """Whether ``slot`` is still individually readable on this node."""
        return slot >= self.base_slot

    def entry_at(self, slot: int) -> object | None:
        """The learned value of an absolute slot (``None`` = unknown or
        compacted — callers distinguish via :meth:`covers`)."""
        index = slot - self.base_slot
        if index < 0 or index >= len(self.entries):
            return None
        return self.entries[index]

    def learn(self, slot: int, value: object) -> None:
        """Record a chosen value locally (extends the node's copy of the log)."""
        if not self.up:
            return
        if slot < self.base_slot:
            return  # already folded into the snapshot
        index = slot - self.base_slot
        while len(self.entries) <= index:
            self.entries.append(None)
        if self.entries[index] is None:
            self.entries[index] = value
            self.stable_writes += 1

    def crash(self) -> None:
        self.up = False

    def recover(self) -> None:
        self.up = True
        for acceptor in self.acceptors.values():
            acceptor.recover()

    def known_length(self) -> int:
        """Length of the longest known prefix with no holes (in absolute
        slots; a snapshot counts as knowing everything beneath it)."""
        length = self.base_slot
        for entry in self.entries:
            if entry is None:
                break
            length += 1
        return length

    # -- log compaction ---------------------------------------------------------

    def truncate_to(self, slot: int, snapshot: object) -> int:
        """Drop slots below ``slot``, replacing them with ``snapshot``.

        Only the contiguous known prefix may be truncated — compacting past
        an unlearned slot would lose a value this node never had.  Idempotent
        for ``slot`` at or below the current base.  Returns the number of
        entries dropped.
        """
        if slot <= self.base_slot:
            return 0
        if slot > self.known_length():
            raise ConsensusError(
                f"node {self.node_id}: cannot truncate to slot {slot} beyond "
                f"the known prefix ({self.known_length()})"
            )
        dropped = slot - self.base_slot
        del self.entries[:dropped]
        self.acceptors = {s: a for s, a in self.acceptors.items() if s >= slot}
        self.base_slot = slot
        self.snapshot = snapshot
        self.stable_writes += 1
        return dropped

    def install_snapshot(self, snapshot: object, up_to_slot: int) -> bool:
        """Adopt a peer's snapshot covering slots below ``up_to_slot``.

        The anti-entropy bootstrap path for a node whose known prefix
        predates a peer's truncation point.  The snapshot is verified first
        (duck-typed ``validate()``, raising on truncation or checksum
        mismatch) — a corrupted transfer must be re-fetched, never installed.
        Idempotent: re-offering a snapshot at or below the current base is a
        no-op, so a crash mid-install is repaired by simply retrying.
        Returns whether anything was installed.
        """
        validate = getattr(snapshot, "validate", None)
        if validate is not None:
            validate()
        if up_to_slot <= self.base_slot:
            return False
        overlap = up_to_slot - self.base_slot
        self.entries = self.entries[overlap:] if overlap < len(self.entries) else []
        self.acceptors = {s: a for s, a in self.acceptors.items() if s >= up_to_slot}
        self.base_slot = up_to_slot
        self.snapshot = snapshot
        self.stable_writes += 1
        self.snapshot_installs += 1
        return True


class ReplicatedLog:
    """The leader's view of the replicated log."""

    def __init__(self, nodes: Sequence[ReplicatedLogNode], *, leader_id: int | None = None) -> None:
        if not nodes:
            raise ConsensusError("the replicated log needs at least one node")
        self.nodes = list(nodes)
        self.leader_id = leader_id if leader_id is not None else self.nodes[0].node_id
        self._next_slot = 0

    # -- leadership ---------------------------------------------------------------

    @property
    def leader(self) -> ReplicatedLogNode:
        for node in self.nodes:
            if node.node_id == self.leader_id:
                return node
        raise ConsensusError(f"unknown leader id {self.leader_id}")

    @property
    def majority(self) -> int:
        return len(self.nodes) // 2 + 1

    def up_nodes(self) -> list[ReplicatedLogNode]:
        return [node for node in self.nodes if node.up]

    def has_quorum(self) -> bool:
        return len(self.up_nodes()) >= self.majority

    def elect_leader(self) -> int:
        """Elect the lowest-id up node as leader (deterministic election)."""
        candidates = self.up_nodes()
        if not candidates:
            raise QuorumUnavailableError("no certifier node is up")
        self.leader_id = min(node.node_id for node in candidates)
        return self.leader_id

    # -- appending ----------------------------------------------------------------------

    def append(self, value: object, *, from_node: int | None = None) -> int:
        """Append ``value`` through the leader; returns its slot index.

        Raises :class:`NotLeaderError` when the request is addressed to a
        non-leader node and :class:`QuorumUnavailableError` when fewer than a
        majority of nodes are up.
        """
        if from_node is not None and from_node != self.leader_id:
            raise NotLeaderError(
                f"node {from_node} is not the leader (leader is {self.leader_id})"
            )
        if not self.leader.up:
            raise NotLeaderError(f"leader {self.leader_id} is down; elect a new leader")
        if not self.has_quorum():
            raise QuorumUnavailableError(
                f"only {len(self.up_nodes())} of {len(self.nodes)} certifier nodes are up"
            )
        slot = self._next_slot
        acceptors = [node.acceptor_for(slot) for node in self.nodes]
        proposer = Proposer(self.leader_id, acceptors)
        chosen = proposer.propose(value)
        for node in self.nodes:
            node.learn(slot, chosen)
        self._next_slot += 1
        return slot

    # -- recovery ---------------------------------------------------------------------------

    def catch_up(self, node: ReplicatedLogNode) -> int:
        """State transfer: copy missing entries to a recovering node.

        The source is the up peer with the longest known prefix.  When the
        source has compacted beneath ``node``'s known prefix (the node was
        down past the GC horizon), its snapshot is installed first and only
        the retained log suffix is copied — the paper's snapshot-plus-suffix
        state transfer instead of a full log replay.  Returns the number of
        log entries transferred ("essentially a file transfer" from an up
        node, Section 9.6); snapshot installs are counted on the node.
        """
        source = None
        for candidate in self.up_nodes():
            if candidate.node_id == node.node_id:
                continue
            if source is None or candidate.known_length() > source.known_length():
                source = candidate
        if source is None:
            raise QuorumUnavailableError("no up node available for state transfer")
        if source.base_slot > node.known_length():
            # The retained suffix alone cannot extend this node's prefix:
            # ship the snapshot covering everything beneath the truncation.
            node.install_snapshot(source.snapshot, source.base_slot)
        transferred = 0
        for index, value in enumerate(source.entries):
            if value is None:
                continue
            slot = source.base_slot + index
            if not node.covers(slot):
                continue
            if node.entry_at(slot) is None:
                node.learn(slot, value)
                transferred += 1
        return transferred

    def truncate_to(self, slot: int, snapshot: object) -> int:
        """Compact every up node's log below ``slot`` behind ``snapshot``.

        A lagging up node is caught up first so the truncation never outruns
        a live replica's known prefix; down nodes keep their (longer) logs
        and adopt the snapshot via :meth:`catch_up` when they return.
        Returns the total number of entries dropped across up nodes.
        """
        dropped = 0
        for node in self.up_nodes():
            if node.known_length() < slot:
                self.catch_up(node)
            dropped += node.truncate_to(slot, snapshot)
        return dropped

    def base_slot(self) -> int:
        """The effective truncation point: the furthest any up node has
        compacted (slots below it are not readable on every up node)."""
        return max((node.base_slot for node in self.up_nodes()), default=0)

    def snapshot(self) -> object | None:
        """The snapshot backing :meth:`base_slot` (``None`` when intact)."""
        candidates = [node for node in self.up_nodes() if node.snapshot is not None]
        if not candidates:
            return None
        return max(candidates, key=lambda node: node.base_slot).snapshot

    def chosen_prefix(self) -> list[object]:
        """The values chosen so far, in slot order (the leader's view of the
        retained suffix — compacted slots live in the snapshot)."""
        return [entry for entry in self.leader.entries if entry is not None]

    def __len__(self) -> int:
        return self._next_slot
