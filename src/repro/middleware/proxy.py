"""The transparent proxy.

A proxy sits in front of every database replica, "appears as the database to
clients, and appears as a client to the database" (paper, Section 4.1).  It
tracks ``replica_version``, keeps a small amount of state per active
transaction, invokes certification at commit, applies remote writesets, and
enforces the global commit order at the replica.  The state it keeps is
bounded: the writesets it remembers for local certification live in an
indexed log trimmed at the oldest active snapshot, and a maintenance step
amortized over the commit path (:meth:`TransparentProxy.maintain`) keeps the
replica's version chains and local WAL tail O(window) as well.

The three system variants differ only in how step [C4]/[C5] of the paper's
pseudo-code is executed:

* **Base** — remote writesets are applied and the local transaction is
  committed serially; every commit is a synchronous WAL write at the replica.
* **Tashkent-MW** — identical control flow, but the replica database runs
  with synchronous commit disabled, so the serial commits are in-memory
  operations; durability lives in the certifier's log.
* **Tashkent-API** — remote writesets and the local commit are staged with
  ``COMMIT <version>`` and flushed in as few synchronous writes as the
  artificial-conflict structure permits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Protocol

from repro.core.artificial_conflicts import ArtificialConflictDetector, SubmissionPlan
from repro.core.certification import CertificationRequest, CertificationResult, RemoteWriteSetInfo
from repro.core.certifier_log import CertifierLog, LogRecord
from repro.core.config import SystemKind
from repro.core.versions import TransactionVersions, VersionClock
from repro.core.writeset import WriteOp, WriteSet
from repro.engine.database import Database
from repro.engine.transaction import EngineTransaction, TransactionStatus
from repro.errors import CertificationAborted, InvalidTransactionState, TransactionAborted

#: Versions a replica applies between two :meth:`TransparentProxy.maintain`
#: steps — the replica-side twin of the certifier's ``GC_INTERVAL_REQUESTS``.
MAINTENANCE_INTERVAL_VERSIONS = 256
#: Least candidate rows one inline vacuum pass may visit.  A row an interval
#: touches becomes at most one candidate, and every insert or update installs
#: a version, so a step's budget is this or the row versions installed since
#: the previous step, whichever is larger: a fixed budget would fall behind
#: an interval that touches more rows than it.
MAINTENANCE_VACUUM_ROWS = 4096


class CertifierFrontEnd(Protocol):
    """The certifier surface a proxy calls.

    Served in-process by :class:`~repro.middleware.certifier.CertifierService`
    and :class:`~repro.middleware.sharded_certifier.ShardedCertifierService`.
    Over the wire, :class:`~repro.live.client.LiveCertifierClient` serves only
    ``subscribe_replica`` (returning no subscription) and
    ``replication_horizon``: the live replica sends what
    :meth:`TransparentProxy.commit_steps` and
    :meth:`TransparentProxy.refresh_steps` yield itself.
    """

    def certify(self, request: CertificationRequest) -> CertificationResult: ...

    def subscribe_replica(self, replica: str, from_version: int = 0): ...

    def register_replica(self, replica: str, version: int = 0) -> None: ...

    def extend_remote_horizons(self, infos: list[RemoteWriteSetInfo],
                               back_to: int) -> list[RemoteWriteSetInfo]: ...

    def replication_horizon(self) -> int: ...


@dataclass
class ProxyTransaction:
    """Proxy-side state for one client transaction."""

    engine_txn: EngineTransaction
    versions: TransactionVersions
    label: str = ""

    @property
    def tx_start_version(self) -> int:
        return self.versions.tx_start_version

    @property
    def is_active(self) -> bool:
        return self.engine_txn.status is TransactionStatus.ACTIVE


@dataclass
class CommitOutcome:
    """What the client learns when it asks the proxy to commit."""

    committed: bool
    readonly: bool = False
    commit_version: int | None = None
    abort_reason: str | None = None
    remote_writesets_applied: int = 0
    #: Synchronous writes at the replica attributable to this commit.
    replica_fsyncs: int = 0


@dataclass
class ProxyStats:
    """Counters the evaluation and the tests read off a proxy."""

    begun: int = 0
    readonly_commits: int = 0
    update_commits: int = 0
    certification_aborts: int = 0
    local_certification_aborts: int = 0
    eager_precert_aborts: int = 0
    remote_writesets_applied: int = 0
    remote_batches_applied: int = 0
    artificial_conflicts: int = 0
    staleness_refreshes: int = 0
    maintenance_runs: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


#: A commit split at its certification call (:meth:`TransparentProxy.commit_steps`).
CommitSteps = Generator[CertificationRequest, CertificationResult, CommitOutcome]


class RefreshPoll(NamedTuple):
    """What a refresh asks the certifier for: every released writeset after
    ``advance_to``, for an ordered system with its conflict-free horizon
    extended back to ``back_to`` (Section 5.2.1)."""

    advance_to: int
    back_to: int | None


#: A refresh split at its two certifier calls
#: (:meth:`TransparentProxy.refresh_steps`): the poll, then the watermark.
RefreshSteps = Generator["RefreshPoll | int", "list[RemoteWriteSetInfo] | None", int]


def drive_steps(steps: Generator, answer: Callable) -> object:
    """Run commit or refresh ``steps`` to their outcome, each request they
    yield answered by a synchronous ``answer``.  An exception ``answer``
    raises is thrown into the steps at that request, as if it had raised
    there."""
    try:
        request = next(steps)
        while True:
            try:
                result = answer(request)
            except Exception as exc:  # noqa: BLE001 - re-raised inside the steps
                request = steps.throw(exc)
            else:
                request = steps.send(result)
    except StopIteration as done:
        return done.value


class TransparentProxy:
    """The replication proxy attached to one database replica.

    ``certifier`` is any :class:`CertifierFrontEnd`; the proxy is oblivious
    to sharding and to whether a call crosses a socket.
    """

    def __init__(
        self,
        database: Database,
        certifier: CertifierFrontEnd,
        *,
        system: SystemKind = SystemKind.TASHKENT_MW,
        replica_name: str = "replica-0",
        local_certification: bool = True,
        eager_pre_certification: bool = True,
    ) -> None:
        if system is SystemKind.STANDALONE:
            raise InvalidTransactionState("a standalone database has no proxy")
        self.database = database
        self.certifier = certifier
        self.system = system
        self.replica_name = replica_name
        self.local_certification = local_certification
        self.eager_pre_certification = eager_pre_certification
        self.replica_version = VersionClock(database.current_version)
        #: The proxy's local copy of the writesets applied here (the paper's
        #: ``proxy_log``), consulted by eager pre-certification and local
        #: certification.  It is the certifier's own log structure — dense
        #: versions, inverted item index, low-water pruning.
        self.proxy_log = CertifierLog(base_version=database.current_version)
        self._maintained_at_version = database.current_version
        self._installed_at_step = database.mvcc_stats(include_chains=False).versions_installed
        self.conflict_detector = ArtificialConflictDetector()
        self.stats = ProxyStats()
        # Subscribe to the certifier's writeset stream (which also joins the
        # log-GC low-water-mark protocol, so an idle replica is never pruned
        # past before its first commit).  A certifier that keeps no queue per
        # replica (the live scheduler: a refresh polls its directory) joins
        # the protocol and hands back no subscription.
        self.subscription = self.certifier.subscribe_replica(
            replica_name, database.current_version
        )
        # Tashkent-MW replicas run without synchronous commit at the database.
        if system is SystemKind.TASHKENT_MW:
            self.database.set_synchronous_commit(False)

    # ------------------------------------------------------------------ BEGIN

    def begin(self, label: str = "") -> ProxyTransaction:
        """Intercept BEGIN: assign the replica's latest snapshot (step [A1])."""
        engine_txn = self.database.begin()
        versions = TransactionVersions(tx_start_version=self.replica_version.version)
        self.stats.begun += 1
        return ProxyTransaction(engine_txn=engine_txn, versions=versions, label=label)

    # ------------------------------------------------------------------ reads / writes

    def read(self, txn: ProxyTransaction, table: str, key: object):
        """Forward a read to the database (step [B1])."""
        self._require_live(txn)
        return self.database.read(txn.engine_txn, table, key)

    def scan(self, txn: ProxyTransaction, table: str):
        self._require_live(txn)
        return self.database.scan(txn.engine_txn, table)

    def insert(self, txn: ProxyTransaction, table: str, key: object, **values: object) -> None:
        self._require_live(txn)
        self._eager_pre_certify(txn, table, key)
        self.database.insert(txn.engine_txn, table, key, **values)

    def update(self, txn: ProxyTransaction, table: str, key: object, **values: object) -> None:
        self._require_live(txn)
        self._eager_pre_certify(txn, table, key)
        self.database.update(txn.engine_txn, table, key, **values)

    def delete(self, txn: ProxyTransaction, table: str, key: object) -> None:
        self._require_live(txn)
        self._eager_pre_certify(txn, table, key)
        self.database.delete(txn.engine_txn, table, key)

    def _eager_pre_certify(self, txn: ProxyTransaction, table: str, key: object) -> None:
        """Abort early if this write already conflicts with a seen remote writeset.

        This is the paper's eager pre-certification (Section 8.2): each write
        is checked against the remote writesets committed after the
        transaction's snapshot; a conflict means certification would fail
        anyway, so the transaction aborts immediately, freeing its locks.
        """
        if not self.eager_pre_certification:
            return
        commit_version = self.proxy_log.first_writer_version(
            table, key, txn.versions.effective_start_version)
        if commit_version is not None:
            self.database.abort(txn.engine_txn, reason="eager-pre-certification")
            self.stats.eager_precert_aborts += 1
            raise CertificationAborted(
                f"write to {(table, key)!r} conflicts with remote writeset "
                f"committed at version {commit_version}"
            )

    # ------------------------------------------------------------------ COMMIT

    def commit(self, txn: ProxyTransaction) -> CommitOutcome:
        """Intercept COMMIT (steps [C1]-[C5] of the paper's pseudo-code)."""
        return drive_steps(self.commit_steps(txn), self.certifier.certify)

    def commit_steps(self, txn: ProxyTransaction) -> CommitSteps:
        """:meth:`commit` split at its certification call: a generator that
        yields the :class:`CertificationRequest` (none for a read-only or a
        locally aborted transaction), is sent the :class:`CertificationResult`
        and returns the :class:`CommitOutcome`.  :func:`drive_steps` runs it
        against a synchronous certifier; the live replica sends the request
        over the wire and resumes the generator when the answer arrives."""
        self._require_live(txn)
        fsyncs_before = self.database.fsync_count

        # [C1] extract the writeset.
        writeset = self.database.extract_writeset(txn.engine_txn)

        # [C2] read-only transactions commit immediately.
        if writeset.is_empty():
            self.database.commit(txn.engine_txn)
            self.stats.readonly_commits += 1
            return CommitOutcome(committed=True, readonly=True)

        # Local certification (Section 6.2): check against remote writesets
        # already seen, advancing the effective start version as we go.
        if self.local_certification and not self._locally_certify(txn, writeset):
            self.database.abort(txn.engine_txn, reason="local-certification")
            self.stats.local_certification_aborts += 1
            self.stats.certification_aborts += 1
            return CommitOutcome(committed=False, abort_reason="local-certification")

        # [C2 cont.] invoke certification at the certifier.
        request = CertificationRequest(
            tx_start_version=txn.versions.effective_start_version,
            writeset=writeset,
            replica_version=self.replica_version.version,
            origin_replica=self.replica_name,
            check_remote_back_to=(
                self.replica_version.version if self.system.supports_ordered_commit else None
            ),
        )
        result = yield request

        # [C3]/[C4]/[C5] apply remote writesets and finalise the commit.
        if self.system.supports_ordered_commit:
            outcome = self._finalize_ordered(txn, writeset, result)
        else:
            outcome = self._finalize_serial(txn, writeset, result)
        outcome.replica_fsyncs = self.database.fsync_count - fsyncs_before
        # Everything up to replica_version arrived in-band with this commit;
        # trimming the subscription keeps a busy replica's queue bounded even
        # if it never becomes idle enough to refresh.
        if self.subscription is not None:
            self.subscription.advance_to(self.replica_version.version)
        self._maintain_if_due()
        return outcome

    def abort(self, txn: ProxyTransaction) -> None:
        """Client-requested abort."""
        if txn.engine_txn.status is TransactionStatus.ACTIVE:
            self.database.abort(txn.engine_txn, reason="client-abort")

    # ------------------------------------------------------------------ serial path (Base, Tashkent-MW)

    def _finalize_serial(self, txn: ProxyTransaction, writeset: WriteSet,
                         result: CertificationResult) -> CommitOutcome:
        """Steps [C4]+[C5] with serial commits (Base and Tashkent-MW).

        The grouped remote writesets commit first (one database commit, hence
        one synchronous write when durability is in the database), then the
        local transaction commits (a second synchronous write).
        """
        applied = self._apply_remote_serial(result.remote_writesets)

        if not result.committed:
            self.database.abort(txn.engine_txn, reason="certification")
            self.stats.certification_aborts += 1
            return CommitOutcome(
                committed=False,
                abort_reason="forced-abort" if result.forced_abort else "certification",
                remote_writesets_applied=applied,
            )

        commit_version = result.tx_commit_version
        assert commit_version is not None
        if txn.engine_txn.status is not TransactionStatus.ACTIVE:
            # The local transaction lost its locks to a remote writeset while
            # we were waiting for certification (priority rule).  The paper's
            # soft-recovery path re-applies it; here we surface the abort.
            self.stats.certification_aborts += 1
            return CommitOutcome(committed=False, abort_reason="soft-recovery",
                                 remote_writesets_applied=applied)
        self.database.commit(txn.engine_txn, version=commit_version)
        txn.versions.mark_committed(commit_version)
        self._remember(commit_version, writeset)
        self.replica_version.advance_to(commit_version)
        self.stats.update_commits += 1
        return CommitOutcome(
            committed=True,
            commit_version=commit_version,
            remote_writesets_applied=applied,
        )

    def _apply_remote_serial(self, remote: list[RemoteWriteSetInfo]) -> int:
        """Apply remote writesets as one group ([C4]).

        Uses the engine's group-apply path: every writeset is installed at
        its own global commit version, but the batch costs a single version
        bump and a single WAL append (one synchronous write at most).
        """
        pending = [info for info in remote
                   if info.commit_version > self.replica_version.version]
        if not pending:
            return 0
        max_version = max(info.commit_version for info in pending)
        self.database.apply_writeset_batch(
            (info.commit_version, info.writeset) for info in pending
        )
        for info in pending:
            self._remember(info.commit_version, info.writeset)
        self.replica_version.advance_to(max_version)
        self.stats.remote_writesets_applied += len(pending)
        self.stats.remote_batches_applied += 1
        return len(pending)

    # ------------------------------------------------------------------ ordered path (Tashkent-API)

    def _finalize_ordered(self, txn: ProxyTransaction, writeset: WriteSet,
                          result: CertificationResult) -> CommitOutcome:
        """Steps [C4]+[C5] using the extended COMMIT <version> API.

        Remote writesets and the local commit are staged concurrently; the
        database groups their commit records into one flush per
        artificial-conflict-free group (Section 5.2.1).
        """
        pending = [info for info in result.remote_writesets
                   if info.commit_version > self.replica_version.version]
        plan = self.conflict_detector.plan(pending, self.replica_version.version)
        self.stats.artificial_conflicts += plan.artificial_conflicts

        if not result.committed:
            # Still apply the remote writesets so the replica does not fall
            # behind, then abort the local transaction.
            applied = self._apply_plan(plan, local_txn=None, local_version=None)
            self.database.abort(txn.engine_txn, reason="certification")
            self.stats.certification_aborts += 1
            return CommitOutcome(
                committed=False,
                abort_reason="forced-abort" if result.forced_abort else "certification",
                remote_writesets_applied=applied,
            )

        commit_version = result.tx_commit_version
        assert commit_version is not None
        if txn.engine_txn.status is not TransactionStatus.ACTIVE:
            applied = self._apply_plan(plan, local_txn=None, local_version=None)
            self.stats.certification_aborts += 1
            return CommitOutcome(committed=False, abort_reason="soft-recovery",
                                 remote_writesets_applied=applied)

        applied = self._apply_plan(plan, local_txn=txn.engine_txn, local_version=commit_version)
        txn.versions.mark_committed(commit_version)
        self._remember(commit_version, writeset)
        self.replica_version.advance_to(commit_version)
        self.stats.update_commits += 1
        return CommitOutcome(
            committed=True,
            commit_version=commit_version,
            remote_writesets_applied=applied,
        )

    def _apply_plan(self, plan: SubmissionPlan, *, local_txn: EngineTransaction | None,
                    local_version: int | None) -> int:
        """Submit a submission plan to the database using ordered commits."""
        applied = 0
        groups = plan.groups if plan.groups else []
        if not groups and local_txn is None:
            return 0
        if not groups:
            groups = [[]]
        last_index = len(groups) - 1
        max_remote_version = self.replica_version.version
        for index, group in enumerate(groups):
            for info in group:
                # The remote writeset runs as its own transaction whose
                # commit carries the original global version.
                self.database.abort_conflicting_transactions(
                    info.writeset, reason="remote-writeset-priority"
                )
                remote_txn = self.database.begin()
                self._buffer_writeset(remote_txn, info.writeset)
                self.database.commit_ordered(remote_txn, info.commit_version)
                self._remember(info.commit_version, info.writeset)
                applied += 1
                max_remote_version = max(max_remote_version, info.commit_version)
            if index == last_index and local_txn is not None and local_version is not None:
                self.database.commit_ordered(local_txn, local_version)
            # One synchronous write per group; the local commit shares the
            # final group's flush.
            self.database.flush_ordered_commits()
        if applied:
            self.stats.remote_writesets_applied += applied
            self.stats.remote_batches_applied += 1
            if max_remote_version > self.replica_version.version:
                self.replica_version.advance_to(max_remote_version)
        return applied

    def _buffer_writeset(self, txn: EngineTransaction, writeset: WriteSet) -> None:
        for item in writeset:
            if item.op is WriteOp.INSERT:
                self.database.insert(txn, item.table, item.key, **dict(item.values))
            elif item.op is WriteOp.UPDATE:
                self.database.update(txn, item.table, item.key, **dict(item.values))
            else:
                self.database.delete(txn, item.table, item.key)

    # ------------------------------------------------------------------ local certification

    def _remember(self, commit_version: int, writeset: WriteSet) -> None:
        """Record a writeset this replica applied at ``commit_version``."""
        self.proxy_log.append(LogRecord(commit_version, writeset))

    def _locally_certify(self, txn: ProxyTransaction, writeset: WriteSet) -> bool:
        """Partial certification against the proxy's copy of remote writesets.

        Advances the transaction's effective start version past every remote
        writeset it does not conflict with, reducing the work at the
        certifier; returns False when a conflict is found (the transaction
        can be aborted without a round trip).
        """
        log = self.proxy_log
        effective = txn.versions.effective_start_version
        if log.first_conflicting_version(writeset, effective) is not None:
            return False
        # The log is dense, so the conflict-free run reaches its head.
        txn.versions.advance_effective_start(log.last_version)
        return True

    # ------------------------------------------------------------------ bounded staleness

    def refresh(self) -> int:
        """Drain the writeset subscription and apply what is missing (§6.2).

        Returns the number of writesets applied.  Called by the replica when
        it has not received updates for ``staleness_bound_ms``.  The pushed
        batches pending on the subscription are coalesced and applied as one
        group — the paper's grouped remote transaction (T1_2_3) — so a
        refresh costs at most one synchronous write on the serial path.
        :meth:`refresh_steps` does the work; :meth:`_answer_refresh` answers
        its two calls.
        """
        return drive_steps(self.refresh_steps(), self._answer_refresh)

    def _answer_refresh(self, request: RefreshPoll | int):
        if not isinstance(request, RefreshPoll):  # the applied watermark
            return self.certifier.register_replica(self.replica_name, request)
        # The subscription cursor can trail ``replica_version`` when writesets
        # arrived in-band with a certification response; advancing it first
        # drops those from the poll.
        self.subscription.advance_to(request.advance_to)
        remote = self.subscription.poll_flat()
        if remote and request.back_to is not None:
            # The pull protocol's check_back_to: conflict-free writesets can
            # share one submission group instead of serializing on their
            # propagation-time horizons.
            remote = self.certifier.extend_remote_horizons(remote, request.back_to)
        return remote

    def refresh_steps(self) -> RefreshSteps:
        """:meth:`refresh` split at its certifier calls, as :meth:`commit_steps`
        is at its one: a generator that yields the :class:`RefreshPoll`, is
        sent the writesets it answers (in version order), applies the ones
        above ``replica_version``, yields the applied version for the caller
        to register with the certifier (sent ``None`` once it is) and
        returns the number applied.

        Writesets at or below ``replica_version`` are dropped on both paths:
        the live replica finishes a poll after every commit sent before it,
        and such a commit's own writeset may ride in the poll's answer.
        """
        version = self.replica_version.version
        remote = yield RefreshPoll(
            version, version if self.system.supports_ordered_commit else None)
        self.stats.staleness_refreshes += 1
        pending = [info for info in remote
                   if info.commit_version > self.replica_version.version]
        if not pending:
            applied = 0
        elif self.system.supports_ordered_commit:
            plan = self.conflict_detector.plan(pending, self.replica_version.version)
            applied = self._apply_plan(plan, local_txn=None, local_version=None)
        else:
            applied = self._apply_remote_serial(pending)
        # The watermark report happens *after* the batch is applied — a
        # refresh-only replica must feed its post-apply version to the
        # certifier's low-water protocol, or it pins GC (and the vacuum
        # replication horizon) at its pre-refresh version forever.  An empty
        # refresh reports too, so a read-mostly replica keeps feeding it.
        yield self.replica_version.version
        if applied:
            self._maintain_if_due()
        return applied

    # ------------------------------------------------------------------ bounded state

    def vacuum(self, *, max_rows: int | None = None) -> int:
        """Vacuum the replica's version chains, clamped to the safe horizon.

        The horizon is ``min(local oldest active snapshot, certifier
        replication horizon)``: the certifier's replica low-water mark
        (minus GC headroom) bounds what any lagging or resubscribing replica
        could still request, so nothing a remote reader needs is reclaimed.
        Returns the number of versions reclaimed.
        """
        return self.database.vacuum(
            replication_horizon=self.certifier.replication_horizon(),
            max_rows=max_rows,
        )

    def maintain(self) -> None:
        """One maintenance step: drop the state no transaction can ask about.

        * ``proxy_log`` is pruned at the database's oldest active snapshot.
          Every check starts from a live transaction's (effective) start
          version, which is never below its snapshot; a commit parked on its
          certification round trip is still active, so it pins the horizon.
        * One budgeted :meth:`vacuum` pass, sized to cover every row version
          installed since the previous step (against a live certifier this
          is the step's single wire call).
        * Under Tashkent-MW the engine WAL's retained records at or below
          the applied version go: the replica recovers from a checkpoint
          plus the certifier's log and never reads this WAL (Section 7).
          Base and Tashkent-API recover *from* theirs, so it is kept.

        Runs from the commit and refresh paths every
        ``MAINTENANCE_INTERVAL_VERSIONS`` applied versions, which makes
        replica memory O(window) at O(1) amortized cost per version.
        """
        log = self.proxy_log
        # Nothing here waits for a disk: the whole log is prunable.
        log.mark_durable(log.last_version)
        log.prune_to(self.database.oldest_active_snapshot())
        installed = self.database.mvcc_stats(include_chains=False).versions_installed
        self.vacuum(max_rows=max(MAINTENANCE_VACUUM_ROWS,
                                 installed - self._installed_at_step))
        self._installed_at_step = installed
        if self.system is SystemKind.TASHKENT_MW:
            self.database.wal.discard_through(self.replica_version.version)
        self._maintained_at_version = self.replica_version.version
        self.stats.maintenance_runs += 1

    def _maintain_if_due(self) -> None:
        if (self.replica_version.version - self._maintained_at_version
                >= MAINTENANCE_INTERVAL_VERSIONS):
            self.maintain()

    def stats_snapshot(self) -> dict[str, int]:
        """The counters plus the gauges that say whether state is bounded."""
        return {
            **self.stats.as_dict(),
            "proxy_log_retained": self.proxy_log.retained_count,
            "proxy_log_pruned_total": self.proxy_log.pruned_records_total,
            "wal_records_retained": self.database.wal.retained_count,
        }

    # ------------------------------------------------------------------ helpers

    def _require_live(self, txn: ProxyTransaction) -> None:
        if txn.engine_txn.status is TransactionStatus.ABORTED:
            raise TransactionAborted(
                f"transaction {txn.engine_txn.txn_id} was aborted "
                f"({txn.engine_txn.abort_reason})",
                reason=txn.engine_txn.abort_reason or "abort",
            )
        if txn.engine_txn.status is not TransactionStatus.ACTIVE:
            raise InvalidTransactionState(
                f"transaction {txn.engine_txn.txn_id} is {txn.engine_txn.status.value}"
            )

    def __repr__(self) -> str:
        return (
            f"TransparentProxy(replica={self.replica_name!r}, system={self.system.value}, "
            f"replica_version={self.replica_version.version})"
        )
