"""Sharded certification: partition the certifier keyspace, merge deterministically.

The paper's certifier is a single process: one log, one version clock, one
fsync pipeline.  PR 1 made each certification O(|writeset|) and PR 2 batched
the fsyncs, but every update transaction in the cluster still serializes
through that one pipeline.  This module splits it.

Design
======

* The shard map is fixed by the shard count: :class:`HashPartitioner`, a
  stable CRC-32 hash, assigns every item identity ``(table, key)`` to one of
  N **certification shards**.
* Each :class:`CertifierShard` owns a full :class:`~repro.core.certification.
  Certifier` over its own :class:`~repro.core.certifier_log.CertifierLog`.
  The shard log is addressed in *shard-local* dense versions; the shard keeps
  the local↔global maps (``_globals``) so conflict windows expressed in
  global versions translate to the shard's own **conflict horizon** with one
  binary search.
* The :class:`ShardedCertifier` coordinator owns the **global sequencer**
  (one :class:`~repro.core.versions.VersionClock`) and a global **directory**
  of committed records.  Commit versions are allocated *only* on commit, so
  the global version space stays dense over commits — the property the
  deterministic cross-shard merge and the replica apply path rely on.

Certification of one request (:meth:`ShardedCertifier.certify_batch`
certifies a round of them; a lone request is a round of one):

1. split the writeset into per-shard fragments;
2. **probe phase** — every touched shard conflict-checks its fragment
   against its own horizon (``local_horizon(tx_start_version)``).  Because
   the partitioner maps each item to exactly one shard, the union of the
   fragment checks equals the seed's single-log check item for item;
3. any fragment conflict ⇒ the whole transaction aborts, with the earliest
   conflicting *global* version reported — and nothing was appended anywhere
   (all-shards-commit ∨ any-shard-aborts, resolved before any mutation);
4. all clean ⇒ the sequencer allocates the global commit version and each
   touched shard admits (:meth:`~repro.core.certification.Certifier.admit`)
   its fragment at its next local version.

A single-shard transaction — the common case under workload locality —
therefore certifies, flushes and propagates entirely within one shard; only
genuinely cross-shard writesets pay the multi-fragment merge.

Durability and propagation stay with the callers (the functional
:class:`~repro.middleware.sharded_certifier.ShardedCertifierService` and the
simulated :class:`~repro.cluster.nodes.SimCertifierNode`), exactly as with
the single :class:`Certifier`: shards expose their local durable horizons, and
:meth:`ShardedCertifier.advance_durable_frontier` converts them into the
contiguous global frontier in whose order full writesets are handed to the
per-shard streams (see :class:`repro.transport.MergedSubscription` for the
replica-side merge).

With ``num_shards=1`` every mapping is the identity, and at any shard count
the decisions and versions equal the seed certifier's — pinned by
``tests/test_property_certifier_index.py`` (services, 1..4 shards) and
``tests/test_property_certify_batch.py`` (this core, 1..3 shards).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.certification import (
    CertificationDecision,
    CertificationRequest,
    CertificationResult,
    Certifier,
    RemoteWriteSetInfo,
)
from repro.core.certifier_log import CertifierLog
from repro.core.stats import CertifierStats
from repro.core.versions import VersionClock
from repro.core.writeset import WriteSet
from repro.errors import (
    ConfigurationError,
    LogPrunedError,
    RecoveryError,
    ReproError,
)


class HashPartitioner:
    """Stable hash partitioning of item identities across shards.

    Hashes the ``repr`` of the identity with CRC-32 rather than Python's
    built-in ``hash``: string hashing is salted per process
    (``PYTHONHASHSEED``), and the shard map must agree between certifier
    restarts, between the functional and simulated stacks, and between the
    certifier and any shard-aware router.  A small bounded cache keeps hot
    identities (interned by :mod:`repro.core.writeset`) from re-hashing.
    """

    _CACHE_MAX = 1 << 18

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = num_shards
        self._cache: dict[tuple[str, object], int] = {}

    def shard_of(self, item_id: tuple[str, object]) -> int:
        if self.num_shards == 1:
            return 0
        shard = self._cache.get(item_id)
        if shard is None:
            shard = zlib.crc32(repr(item_id).encode("utf-8")) % self.num_shards
            if len(self._cache) >= self._CACHE_MAX:
                self._cache.clear()
            self._cache[item_id] = shard
        return shard

    def split(self, writeset: WriteSet) -> dict[int, WriteSet]:
        """Fragment ``writeset`` by owning shard.

        The overwhelmingly common single-shard case returns the original
        writeset object under its shard id — no copy, no allocation beyond
        the dict.  Cross-shard writesets are split item by item, preserving
        the original item order within each fragment.
        """
        if writeset.is_empty():
            return {}
        shards = {self.shard_of(item_id) for item_id in writeset.iter_item_ids()}
        if len(shards) == 1:
            return {next(iter(shards)): writeset}
        fragments: dict[int, WriteSet] = {}
        for item in writeset:
            fragments.setdefault(self.shard_of(item.item_id), WriteSet()).add(item)
        return fragments

    def __repr__(self) -> str:
        return f"HashPartitioner(num_shards={self.num_shards})"


class CertifierShard:
    """One certification shard: a certifier over its own log, plus the maps.

    The shard's :class:`Certifier`/:class:`CertifierLog` pair is addressed in
    shard-local dense commit versions (1, 2, 3, ... per shard), which keeps
    every log facility — the inverted version index, scan/verify modes,
    durability horizons, garbage collection — working unchanged.  The shard
    additionally records, for each retained local version, the *global*
    commit version the coordinator assigned, so windows and horizons convert
    between coordinate systems with a binary search.
    """

    def __init__(self, shard_id: int, *, log: CertifierLog | None = None) -> None:
        self.shard_id = shard_id
        self.certifier = Certifier(log if log is not None else CertifierLog())
        #: Global commit version of each retained local record (ascending);
        #: entry ``i`` belongs to local version ``log.pruned_version + 1 + i``.
        self._globals: list[int] = []
        #: Global version the pruned local prefix maps to (GC horizon).
        self._pruned_global = 0

    @property
    def log(self) -> CertifierLog:
        return self.certifier.log

    # -- version coordinate mapping ----------------------------------------

    def local_horizon(self, global_version: int) -> int:
        """This shard's conflict horizon for a snapshot at ``global_version``.

        The shard-local version of the last shard record committed at or
        below ``global_version``: fragment certification checks exactly the
        local records above it, which are exactly the shard's records with a
        global commit version above ``global_version``.
        """
        return self.log.pruned_version + bisect_right(self._globals, global_version)

    def global_of(self, local_version: int) -> int:
        """Global commit version of a shard-local version.

        A local version at or below the pruned prefix maps to the global GC
        horizon — the conservative answer for records no longer inspectable.
        """
        if local_version <= self.log.pruned_version:
            return self._pruned_global
        return self._globals[local_version - self.log.pruned_version - 1]

    # -- certification ------------------------------------------------------

    def probe(self, fragment: WriteSet, global_after: int) -> int | None:
        """Conflict-check a fragment; returns the earliest conflicting
        *global* version, or ``None`` when the fragment is clean."""
        local = self.certifier.probe_conflict(fragment,
                                              self.local_horizon(global_after))
        return None if local is None else self.global_of(local)

    def admit(self, fragment: WriteSet, global_after: int, global_version: int,
              origin_replica: str) -> int:
        """Install a probed-clean fragment; returns its local version."""
        local = self.certifier.admit(fragment, self.local_horizon(global_after),
                                     origin_replica)
        self._globals.append(global_version)
        return local

    def admit_at(self, fragment: WriteSet, global_after: int, global_version: int,
                 origin_replica: str) -> int:
        """Install a fragment at ``global_version``, idempotently.

        The recovery replay path: a round interrupted by a crash may already
        have installed this fragment on some shards, so re-offering it must
        be a no-op there (and must install it everywhere else).  Returns the
        fragment's shard-local version either way.  A ``global_version`` that
        is neither already present nor the shard's next global is a replay
        protocol violation and raises :class:`~repro.errors.RecoveryError`.
        """
        if global_version <= self._pruned_global:
            # Below this shard's GC horizon: the fragment was pruned; the
            # horizon itself is the conservative local coordinate.
            return self.log.pruned_version
        if self._globals and self._globals[-1] >= global_version:
            index = bisect_right(self._globals, global_version) - 1
            if index < 0 or self._globals[index] != global_version:
                raise RecoveryError(
                    f"shard {self.shard_id}: replay offered global version "
                    f"{global_version}, which is neither installed nor next"
                )
            return self.log.pruned_version + index + 1
        return self.admit(fragment, global_after, global_version, origin_replica)

    # -- recovery accessors --------------------------------------------------

    def global_map(self) -> tuple[int, ...]:
        """The retained local→global version map (ascending global versions;
        entry ``i`` belongs to local version ``pruned_version + 1 + i``)."""
        return tuple(self._globals)

    # -- extended certification (Tashkent-API horizons) ---------------------

    def global_horizon(self, local_version: int) -> int:
        """How far back (globally) the fragment at ``local_version`` is
        known conflict-free."""
        return self.global_of(self.log.certified_back_to(local_version))

    def extend_to_global(self, local_version: int, global_back_to: int) -> bool:
        """Extend a fragment's intersection test back to a global version."""
        return self.log.extend_certification(local_version,
                                             self.local_horizon(global_back_to))

    # -- garbage collection --------------------------------------------------

    def prune_to_global(self, global_target: int) -> int:
        """Prune this shard's log below the global GC horizon.

        Returns the number of local records pruned (the shard log clamps to
        its own durable horizon, so a lagging shard simply retains more).
        """
        local_target = self.local_horizon(global_target)
        pruned = self.log.prune_to(local_target)
        if pruned:
            self._pruned_global = self._globals[pruned - 1]
            del self._globals[:pruned]
        return pruned

    def __repr__(self) -> str:
        return (
            f"CertifierShard(id={self.shard_id}, local_last={self.log.last_version}, "
            f"durable={self.log.durable_version})"
        )


@dataclass(frozen=True)
class GlobalRecord:
    """Directory entry for one committed (possibly cross-shard) transaction."""

    commit_version: int
    #: The full writeset (fragments reference the same items).
    writeset: WriteSet
    origin_replica: str
    #: ``(shard_id, shard-local version)`` per touched shard, shard-id order.
    shard_locals: tuple[tuple[int, int], ...]

    @property
    def home_shard(self) -> int:
        """The shard whose stream propagates this record (lowest touched id)."""
        return self.shard_locals[0][0]


class ShardedCertifier:
    """Certification and global ordering across N shards (pure logic, no IO).

    One entry point, :meth:`certify_batch`: every shell — the functional
    service, the live scheduler, the Paxos-replicated certifier and the
    simulated node — certifies rounds through it, a lone request being a
    round of one.  Around it: ``fetch_remote_writesets`` /
    ``extend_remote_horizons`` / the log-GC low-water-mark protocol /
    ``stats``, as on the single
    :class:`~repro.core.certification.Certifier`.  See the module docstring
    for the protocol.
    """

    def __init__(
        self,
        num_shards: int = 1,
        *,
        forced_abort_rate: float = 0.0,
        abort_chooser: Callable[[], float] | None = None,
    ) -> None:
        #: The shard map, fixed by the shard count.
        self.partitioner = HashPartitioner(num_shards)
        self.shards = [CertifierShard(i, log=CertifierLog()) for i in range(num_shards)]
        #: The lightweight global sequencer: allocates commit versions (only
        #: on commit, so the global version space is dense over commits).
        self.system_version = VersionClock()
        self.forced_abort_rate = forced_abort_rate
        self._abort_chooser = abort_chooser
        self._replica_versions: dict[str, int] = {}
        # Global directory of committed records (version-ordered, prunable).
        self._records: list[GlobalRecord] = []
        self._base_version = 0
        self._durable_version = 0
        #: Highest global version claimed through :meth:`take_propagatable`.
        self._propagated_version = 0
        self._pruned_records_total = 0
        # Coordinator-level counters; per-item intersection tests live on the
        # shard certifiers and are summed in :meth:`stats_snapshot`.
        self.certification_requests = 0
        self.commits = 0
        self.aborts = 0
        self.forced_aborts = 0
        self.readonly_requests = 0
        self.snapshot_too_old_aborts = 0
        self.gc_runs = 0

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # -- directory accessors -------------------------------------------------

    @property
    def last_version(self) -> int:
        """Highest allocated global commit version."""
        return self._base_version + len(self._records)

    @property
    def durable_version(self) -> int:
        """The contiguous global durability frontier: every commit at or
        below it is durable on every shard it touched."""
        return self._durable_version

    @property
    def propagated_version(self) -> int:
        """The release cursor: every commit at or below it has been claimed
        through :meth:`take_propagatable` — the durable frontier, or the
        commit order itself where decisions do not wait for the log."""
        return self._propagated_version

    @property
    def pruned_version(self) -> int:
        """Highest global commit version discarded by garbage collection."""
        return self._base_version

    @property
    def retained_count(self) -> int:
        return len(self._records)

    def record_at(self, commit_version: int) -> GlobalRecord:
        if not 1 <= commit_version <= self.last_version:
            raise KeyError(f"no committed record for version {commit_version}")
        if commit_version <= self._base_version:
            raise LogPrunedError(commit_version - 1, self._base_version)
        return self._records[commit_version - self._base_version - 1]

    def records_after(self, after_version: int) -> list[GlobalRecord]:
        if after_version >= self.last_version:
            return []
        if after_version < self._base_version:
            raise LogPrunedError(after_version, self._base_version)
        return self._records[after_version - self._base_version:]

    # -- group certification (one round, many requests) ----------------------

    def certify_batch(
        self, requests: list[CertificationRequest],
        *, phase_hook: Callable[[str], None] | None = None,
    ) -> list[CertificationResult | ReproError]:
        """Certify a batch of requests as one round, sequentially-equivalent.

        Produces exactly the decisions, commit versions, counters and remote
        writeset windows that certifying the requests one at a time, each as
        a round of one, would — the point of batching is that the *caller*
        can then install every admitted fragment with one log flush per
        touched shard instead of one per transaction.  Per-request failures
        (e.g. a pruned remote window) are returned in place as the exception
        instance, so one bad request cannot poison its batchmates; a caller
        certifying a lone request re-raises it.

        Three phases, all in batch order:

        1. **decide** — per request: window check, the shard log probes
           (charged exactly as sequential), plus an *overlay* conflict check
           against the batch's own earlier pending commits (which sequential
           certification would have found in the shard logs); clean requests
           allocate their global version and stake their items in the
           overlay.
        2. **admit** — pending fragments install per shard in global-version
           order (the same admit-call sequence the loop would make, merely
           deferred past the later probes, which are content-independent).
        3. **respond** — remote writesets are computed per request with the
           window capped at the versions that preceded it (``up_to``), so
           request *i* sees its earlier batchmates' commits but not later
           ones — byte-identical to the sequential interleaving.

        ``phase_hook`` is the fault-injection seam used by the crash-schedule
        harness.  It is called with a phase name at the boundaries of each
        *committing* request's path (an aborting or read-only request fires
        none): ``post-probe`` (its fragments checked clean, its global
        version not yet allocated — in the decide phase), then in the admit
        phase ``pre-admit`` (nothing of it installed), ``mid-admit`` (its
        first touched shard installed) and ``post-admit`` (its directory
        record appended).  A hook that raises models a coordinator crash at
        exactly that point; the volatile state it leaves behind is what
        recovery must resolve.
        """
        outcomes: list[CertificationResult | ReproError | None] = [None] * len(requests)
        plans: list[tuple | None] = [None] * len(requests)
        #: item identity -> earliest pending (not yet admitted) commit version.
        overlay: dict[tuple[str, object], int] = {}

        for i, request in enumerate(requests):
            try:
                self._check_remote_window(request)
            except LogPrunedError as exc:
                outcomes[i] = exc
                continue
            # Accepted: enroll the replica's watermark (a refused
            # below-horizon requester must not pin GC forever).
            self.note_replica_version(request.origin_replica, request.replica_version)
            self.certification_requests += 1
            writeset = request.writeset

            if writeset.is_empty():
                self.readonly_requests += 1
                plans[i] = ("readonly", self.system_version.version)
                continue

            fragments = self.partitioner.split(writeset)
            touched = sorted(fragments)
            conflict = self._find_conflict(fragments, touched,
                                           request.tx_start_version)
            if conflict is None:
                # Earlier batchmates' items are not yet in the shard logs;
                # overlay versions are all above any request's snapshot, so
                # any staked item the writeset touches is a conflict (and the
                # log conflict, when present, is always the earlier version).
                pending = [overlay[item_id] for item_id in writeset.iter_item_ids()
                           if item_id in overlay]
                conflict = min(pending) if pending else None
            if conflict is not None:
                self.aborts += 1
                if request.tx_start_version < self._base_version:
                    self.snapshot_too_old_aborts += 1
                plans[i] = ("abort", self.system_version.version, conflict, False)
                continue

            if self._should_force_abort():
                self.aborts += 1
                self.forced_aborts += 1
                plans[i] = ("abort", self.system_version.version, None, True)
                continue

            if phase_hook is not None:
                phase_hook("post-probe")
            commit_version = self.system_version.increment()
            for item_id in writeset.iter_item_ids():
                overlay.setdefault(item_id, commit_version)
            plans[i] = ("commit", commit_version - 1, commit_version,
                        fragments, touched)

        for i, request in enumerate(requests):
            plan = plans[i]
            if plan is None or plan[0] != "commit":
                continue
            _, _, commit_version, fragments, touched = plan
            if phase_hook is not None:
                phase_hook("pre-admit")
            origin = request.origin_replica or "unknown"
            shard_locals: list[tuple[int, int]] = []
            for shard_id in touched:
                shard_locals.append((shard_id, self.shards[shard_id].admit(
                    fragments[shard_id], request.tx_start_version,
                    commit_version, origin)))
                if len(shard_locals) == 1 and phase_hook is not None:
                    phase_hook("mid-admit")
            self._records.append(
                GlobalRecord(
                    commit_version=commit_version,
                    writeset=request.writeset,
                    origin_replica=origin,
                    shard_locals=tuple(shard_locals),
                )
            )
            self.commits += 1
            if phase_hook is not None:
                phase_hook("post-admit")

        for i, request in enumerate(requests):
            plan = plans[i]
            if plan is None:
                continue
            kind, boundary = plan[0], plan[1]
            remote = self._remote_writesets_for(request, up_to=boundary)
            if kind == "commit":
                outcomes[i] = CertificationResult(
                    decision=CertificationDecision.COMMIT,
                    tx_commit_version=plan[2],
                    remote_writesets=remote,
                )
            elif kind == "abort":
                outcomes[i] = CertificationResult(
                    decision=CertificationDecision.ABORT,
                    tx_commit_version=None,
                    remote_writesets=remote,
                    conflicting_version=plan[2],
                    forced_abort=plan[3],
                )
            else:
                outcomes[i] = CertificationResult(
                    decision=CertificationDecision.COMMIT,
                    tx_commit_version=None,
                    remote_writesets=remote,
                )
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _find_conflict(self, fragments: dict[int, WriteSet], touched: list[int],
                       after_version: int) -> int | None:
        """Earliest conflicting global version across all touched shards.

        A snapshot below the global GC horizon cannot be checked against the
        pruned prefix; the horizon itself is returned (the conservative
        "snapshot too old" answer), with the item probes still charged —
        matching the single certifier's accounting.
        """
        if after_version < self._base_version:
            for shard_id in touched:
                self.shards[shard_id].certifier.intersection_tests += (
                    fragments[shard_id].distinct_item_count()
                )
            return self._base_version
        earliest: int | None = None
        for shard_id in touched:
            conflict = self.shards[shard_id].probe(fragments[shard_id], after_version)
            if conflict is not None and (earliest is None or conflict < earliest):
                earliest = conflict
        return earliest

    # -- remote writesets (the merged, version-ordered view) -----------------

    def fetch_remote_writesets(self, replica_version: int,
                               check_back_to: int | None = None,
                               *, replica: str | None = None,
                               up_to: int | None = None,
                               exclude_version: int | None = None) -> list[RemoteWriteSetInfo]:
        """Remote writesets committed after ``replica_version`` (merged order).

        ``up_to``/``exclude_version`` reproduce an original certification
        response's window for a resent request (see the single-certifier
        docstring): nothing admitted after the recorded decision rides along.
        """
        request = CertificationRequest(
            tx_start_version=replica_version,
            writeset=WriteSet(),
            replica_version=replica_version,
            origin_replica=replica if replica is not None else "",
            check_remote_back_to=check_back_to,
        )
        remote = self._remote_writesets_for(request, exclude_version, up_to)
        if replica is not None:
            self.note_replica_version(replica, replica_version)
        return remote

    def _remote_writesets_for(
        self,
        request: CertificationRequest,
        exclude_version: int | None = None,
        up_to: int | None = None,
    ) -> list[RemoteWriteSetInfo]:
        remote: list[RemoteWriteSetInfo] = []
        back_to = request.check_remote_back_to
        after = max(request.replica_version, self._check_remote_window(request))
        for record in self.records_after(after):
            # ``up_to`` caps the window at the versions that existed when the
            # request's turn came in a batch (see :meth:`certify_batch`).
            if up_to is not None and record.commit_version > up_to:
                break
            if exclude_version is not None and record.commit_version == exclude_version:
                continue
            horizon = self.certified_back_to(record.commit_version)
            if back_to is not None and back_to < horizon:
                horizon = self._extend_record(record, back_to)
            remote.append(
                RemoteWriteSetInfo(
                    commit_version=record.commit_version,
                    writeset=record.writeset,
                    origin_replica=record.origin_replica,
                    conflict_free_back_to=horizon,
                )
            )
        return remote

    def certified_back_to(self, commit_version: int) -> int:
        """How far back (globally) the writeset at ``commit_version`` is
        known conflict-free: the weakest of its fragments' shard horizons."""
        record = self.record_at(commit_version)
        return max(
            self.shards[shard_id].global_horizon(local)
            for shard_id, local in record.shard_locals
        )

    def _extend_record(self, record: GlobalRecord, back_to: int) -> int:
        """Extend every fragment's intersection test back to ``back_to``.

        Returns the resulting global horizon: ``back_to`` when every touched
        shard vouches for its fragment, the recomputed (partial) horizon
        otherwise.  Intersection tests are charged per fragment, which sums
        to the single certifier's full-writeset charge.
        """
        all_extended = True
        for shard_id, local in record.shard_locals:
            shard = self.shards[shard_id]
            if back_to >= shard.global_horizon(local):
                continue
            fragment = shard.log.record_at(local).writeset
            shard.certifier.intersection_tests += fragment.distinct_item_count()
            if not shard.extend_to_global(local, back_to):
                all_extended = False
        if all_extended:
            return back_to
        return self.certified_back_to(record.commit_version)

    def extend_remote_horizons(self, infos: list[RemoteWriteSetInfo],
                               back_to: int) -> list[RemoteWriteSetInfo]:
        """Extend delivered writesets' conflict-free horizons (Section 5.2.1).

        The sharded twin of :meth:`Certifier.extend_remote_horizons`: records
        already pruned by log GC keep their delivered horizon (the planner
        falls back to its pairwise check).
        """
        extended: list[RemoteWriteSetInfo] = []
        for info in infos:
            if info.commit_version <= self._base_version:
                extended.append(info)
                continue
            record = self.record_at(info.commit_version)
            horizon = min(info.conflict_free_back_to,
                          self.certified_back_to(info.commit_version))
            if back_to < horizon:
                horizon = self._extend_record(record, back_to)
            if horizon == info.conflict_free_back_to:
                extended.append(info)
            else:
                extended.append(
                    RemoteWriteSetInfo(
                        commit_version=info.commit_version,
                        writeset=info.writeset,
                        origin_replica=info.origin_replica,
                        conflict_free_back_to=horizon,
                    )
                )
        return extended

    # -- durability frontier --------------------------------------------------

    def advance_durable_frontier(self) -> list[GlobalRecord]:
        """Advance the contiguous global durability frontier.

        A commit is fully durable once every touched shard's log has flushed
        its fragment; the frontier advances through fully-durable commits in
        global order and the newly covered records are returned — exactly the
        order in which the owning services hand them to the propagation
        streams, so every replica observes a version-ordered stream.
        """
        newly: list[GlobalRecord] = []
        while self._durable_version < self.last_version:
            record = self.record_at(self._durable_version + 1)
            if all(self.shards[shard_id].log.durable_version >= local
                   for shard_id, local in record.shard_locals):
                self._durable_version += 1
                newly.append(record)
            else:
                break
        return newly

    def is_record_durable(self, commit_version: int) -> bool:
        """Whether one commit's fragments are durable on all touched shards
        (independent of the contiguous frontier)."""
        record = self.record_at(commit_version)
        return all(self.shards[shard_id].log.durable_version >= local
                   for shard_id, local in record.shard_locals)

    def take_propagatable(self, up_to: int | None = None) -> list[GlobalRecord]:
        """Claim the next records to hand to the propagation streams.

        Advances the durability frontier, then returns — in strict global
        order, each record exactly once across the certifier's lifetime —
        everything between the propagation cursor and ``up_to`` (default:
        the durability frontier; a non-durable deployment passes
        :attr:`last_version` to propagate at certification time).  Owning
        the cursor here keeps the frontier-ordered walk identical in both
        stacks; the caller only decides which stream gets each record and
        when stream batches are cut.
        """
        self.advance_durable_frontier()
        if up_to is None:
            up_to = self._durable_version
        records: list[GlobalRecord] = []
        while self._propagated_version < up_to:
            self._propagated_version += 1
            records.append(self.record_at(self._propagated_version))
        return records

    # -- log garbage collection (low-water-mark protocol) ---------------------

    def note_replica_version(self, replica: str, version: int) -> None:
        """Record a replica's applied watermark (global versions)."""
        if replica and version > self._replica_versions.get(replica, -1):
            self._replica_versions[replica] = version

    def forget_replica(self, replica: str) -> None:
        self._replica_versions.pop(replica, None)

    def replica_watermarks(self) -> dict[str, int]:
        """A copy of the known replica → applied-version watermarks (the
        low-water-mark inputs; snapshotted for state transfer)."""
        return dict(self._replica_versions)

    def low_water_mark(self) -> int | None:
        if not self._replica_versions:
            return None
        return min(self._replica_versions.values())

    def gc_target(self, *, headroom: int = 0) -> int | None:
        """The global version GC would prune to right now, or ``None``.

        Split out of :meth:`collect_garbage` so a fault-tolerant wrapper can
        replicate the decided target (as a durable GC marker on every shard
        group) *before* the volatile prune happens — a recovering coordinator
        then re-prunes to exactly the same horizon.
        """
        low_water = self.low_water_mark()
        if low_water is None:
            return None
        target = min(low_water - headroom, self._durable_version)
        return target if target > self._base_version else None

    def prune_to(self, global_target: int) -> int:
        """Prune the directory and every shard log to ``global_target``
        (clamped to the durability frontier).  Returns the number of
        directory records pruned."""
        target = min(global_target, self._durable_version)
        if target <= self._base_version:
            return 0
        for shard in self.shards:
            shard.prune_to_global(target)
        drop = target - self._base_version
        del self._records[:drop]
        self._base_version = target
        self._pruned_records_total += drop
        return drop

    def apply_gc(self, global_target: int) -> int:
        """Prune to an already-decided GC target, counting the run.

        The shared tail of :meth:`collect_garbage` and the replicated
        wrapper's marker-then-prune protocol (the target is replicated as a
        durable GC marker *before* this volatile prune happens).
        """
        drop = self.prune_to(global_target)
        if drop:
            self.gc_runs += 1
        return drop

    def collect_garbage(self, *, headroom: int = 0) -> int:
        """Prune the directory and every shard log below the low-water mark.

        The global horizon is clamped to the durability frontier (a crash
        must never lose records we might still replay); each shard log
        additionally clamps to its own durable prefix.  Returns the number
        of directory records pruned.
        """
        target = self.gc_target(headroom=headroom)
        if target is None:
            return 0
        return self.apply_gc(target)

    # -- directory reconstruction (coordinator recovery) ----------------------

    @classmethod
    def rebuild(
        cls,
        num_shards: int,
        rounds: Iterable[tuple[int, WriteSet, str, int]],
        *,
        pruned_to: int = 0,
        base_version: int = 0,
        forced_abort_rate: float = 0.0,
        abort_chooser: Callable[[], float] | None = None,
        record_hook: Callable[[int], None] | None = None,
    ) -> "ShardedCertifier":
        """Reconstruct a coordinator from recovered commit rounds.

        ``rounds`` is an ascending iterable of ``(commit_version, writeset,
        origin_replica, certified_back_to)`` tuples — in recovery, the merged
        view of the per-shard replicated logs' chosen prefixes.  The global
        sequencer, the version-ordered directory and every shard's
        local↔global maps are rebuilt by replaying each round through the
        idempotent admit path: the shard map is fixed by ``num_shards``, so
        every fragment lands on the shard that held it before the crash.
        Commit versions are allocated only on commit, so the recovered
        sequence must be dense from ``base_version + 1`` — a gap means a
        lost round and raises
        :class:`~repro.errors.RecoveryError` rather than silently renumbering
        history.  ``base_version`` supports rebuilding from a *pruned*
        source (a live service's retained directory, see
        :meth:`~repro.middleware.sharded_certifier.ShardedCertifierService.
        export_rounds`): everything at or below it behaves as garbage
        collected.  ``pruned_to`` restores the GC low-water horizon (replayed
        GC markers); ``record_hook`` is invoked with each commit version
        before it is installed — the ``mid-directory-rebuild`` fault-injection
        point.  A hook that raises abandons the half-built coordinator; the
        caller simply rebuilds from scratch (the replay is idempotent).

        The per-record ``certified_back_to`` horizon is restored to the value
        carried by the replicated entry (the transaction's start version);
        extensions performed after replication are conservative performance
        hints and are simply re-earned after recovery.
        """
        certifier = cls(num_shards, forced_abort_rate=forced_abort_rate,
                        abort_chooser=abort_chooser)
        if base_version:
            certifier.system_version = VersionClock(base_version)
            certifier._base_version = base_version
            for shard in certifier.shards:
                shard._pruned_global = base_version
        expected = base_version
        for commit_version, writeset, origin_replica, certified_back_to in rounds:
            expected += 1
            if commit_version != expected:
                raise RecoveryError(
                    f"recovered commit versions are not dense: expected "
                    f"{expected}, got {commit_version}"
                )
            if record_hook is not None:
                record_hook(commit_version)
            fragments = certifier.partitioner.split(writeset)
            allocated = certifier.system_version.increment()
            assert allocated == commit_version
            shard_locals = tuple(
                (shard_id, certifier.shards[shard_id].admit_at(
                    fragments[shard_id], certified_back_to, commit_version,
                    origin_replica))
                for shard_id in sorted(fragments)
            )
            certifier._records.append(
                GlobalRecord(
                    commit_version=commit_version,
                    writeset=writeset,
                    origin_replica=origin_replica,
                    shard_locals=shard_locals,
                )
            )
            certifier.commits += 1
        # Every recovered round was quorum-replicated, which is what durable
        # means for a replicated certifier: the rebuilt logs are durable to
        # their tips and the propagation cursor starts at the frontier (a
        # re-subscribing replica is backfilled from the directory instead).
        for shard in certifier.shards:
            shard.log.mark_durable(shard.log.last_version)
        certifier._durable_version = certifier.last_version
        certifier._propagated_version = certifier._durable_version
        if pruned_to:
            certifier.prune_to(pruned_to)
        return certifier

    def _check_remote_window(self, request: CertificationRequest) -> int:
        """Validate the requester's remote-writeset window (see the single
        certifier's method of the same name for the protocol)."""
        pruned = self._base_version
        if (request.replica_version < pruned
                and self._replica_versions.get(request.origin_replica, -1) < pruned):
            raise LogPrunedError(request.replica_version, pruned)
        return pruned

    def _should_force_abort(self) -> bool:
        if self.forced_abort_rate <= 0.0 or self._abort_chooser is None:
            return False
        return self._abort_chooser() < self.forced_abort_rate

    # -- statistics ----------------------------------------------------------

    @property
    def abort_rate(self) -> float:
        updates = self.commits + self.aborts
        return self.aborts / updates if updates else 0.0

    def stats_snapshot(self) -> CertifierStats:
        """Cluster-wide certification counters, shard contributions merged."""
        return CertifierStats(
            requests=self.certification_requests,
            commits=self.commits,
            aborts=self.aborts,
            forced_aborts=self.forced_aborts,
            readonly_requests=self.readonly_requests,
            intersection_tests=sum(
                shard.certifier.intersection_tests for shard in self.shards
            ),
            snapshot_too_old_aborts=self.snapshot_too_old_aborts,
            gc_runs=self.gc_runs,
            system_version=self.system_version.version,
            log_length=self.last_version,
            log_retained_records=sum(
                shard.log.retained_count for shard in self.shards
            ),
            log_pruned_version=self._base_version,
            log_pruned_records_total=self._pruned_records_total,
        )

    def stats(self) -> dict[str, float]:
        return self.stats_snapshot().as_dict()

    def per_shard_stats(self) -> list[dict[str, float]]:
        """Per-shard certifier counters (fragment checks, local log shape)."""
        return [shard.certifier.stats() for shard in self.shards]

    def __repr__(self) -> str:
        return (
            f"ShardedCertifier(shards={self.num_shards}, "
            f"version={self.system_version.version}, "
            f"durable={self._durable_version}, pruned={self._base_version})"
        )
