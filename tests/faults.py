"""Crash-schedule harness for the fault-tolerant sharded certifier.

Crash/recovery code is worthless without systematic fault-injection
coverage, so this module turns the
:class:`~repro.consensus.sharded.ReplicatedShardedCertifier`'s protocol
boundaries into an enumerable schedule: a *crash point* (one of
:data:`CRASH_POINTS`) × a *request index* picks exactly one moment for the
coordinator to die, deterministically — no timing, no randomness inside a
cell.  :func:`run_crash_schedule` then drives an arbitrary workload through
that schedule, recovers, retries the interrupted request the way a real
client would, and checks the recovered deployment against the **fault-free
shards=1 oracle** (the seed :class:`~repro.core.certification.Certifier`):
same decisions, same commit versions, same conflicting versions, same
remote-writeset streams, same replica state, same GC horizon.

The nine crash points and the durable state each one leaves behind:

======================  =====================================================
``pre-probe``           nothing anywhere — the request was never processed
``post-probe``          probes ran (pure); still nothing anywhere
``pre-admit``           global version allocated, volatile only — lost
``mid-admit``           first shard admitted, volatile only — lost
``post-admit``          all shards + directory admitted, volatile only — lost
``pre-flush``           decision reached, no group append yet — lost
``mid-flush``           entry on *some* touched groups — recovery completes
                        the round from the surviving copy
``post-flush``          entry on all touched groups — recovery commits the
                        round; only the acknowledgement was lost
``mid-directory-rebuild``  a second crash during recovery itself — recovery
                        restarts from scratch (it is idempotent)
======================  =====================================================

Log compaction adds three more points (:data:`COMPACT_CRASH_POINTS`:
``pre-compact`` / ``mid-compact`` / ``post-compact``), fired only by
workloads containing a ``("compact",)`` operation — ``mid-compact`` leaves
the shard groups *partially* truncated, the hardest recovery input.

Used by ``tests/test_crash_schedules.py`` (exhaustive small grids plus
Hypothesis-generated workload × schedule cells) and
``tests/test_snapshots.py`` (compaction / bootstrap schedules).
"""

from __future__ import annotations

import time

from repro.consensus.sharded import ReplicatedShardedCertifier
from repro.core.certification import CertificationRequest, Certifier
from repro.core.writeset import make_writeset
from repro.engine.log_device import CountingLogDevice
from repro.recovery.sharded_recovery import recover_sharded_certifier
from repro.recovery.snapshots import bootstrap_group_node, compact_certifier

#: Every deterministic crash point the harness can schedule.
CRASH_POINTS = (
    "pre-probe",
    "post-probe",
    "pre-admit",
    "mid-admit",
    "post-admit",
    "pre-flush",
    "mid-flush",
    "post-flush",
    "mid-directory-rebuild",
)

#: Crash points inside log compaction (:func:`repro.recovery.snapshots.
#: compact_certifier`).  Kept separate from :data:`CRASH_POINTS` because they
#: only fire on workloads that contain a ``("compact",)`` operation.
COMPACT_CRASH_POINTS = ("pre-compact", "mid-compact", "post-compact")

#: GC headroom used on both sides of the comparison.
GC_HEADROOM = 2


class SplitPhaseDevice(CountingLogDevice):
    """A streaming log device (``ship`` / ``sync``) whose acknowledgements
    the test controls — the in-process stand-in for a remote shard WAL.

    ``ship`` puts the pending payloads in flight as one batch and returns;
    a batch becomes durable, and its ``on_durable`` callback runs, when
    :meth:`ack` says so.  ``manual=False`` (the default) acknowledges by
    itself: ``sync`` waits until ``latency_s`` after each batch was shipped
    — the wait is somebody else's work — and then acknowledges it.
    """

    def __init__(self, latency_s: float = 0.0, journal: list | None = None,
                 name: str = "", error: Exception | None = None,
                 manual: bool = False) -> None:
        super().__init__()
        self.latency_s = latency_s
        self.journal = journal if journal is not None else []
        self.name = name
        self.error = error        # raised instead of shipping
        self.manual = manual      # only ack() makes a batch durable
        self.in_flight: list[tuple[list[bytes], object, float]] = []
        self.waits: list[tuple[float, float]] = []

    def ship(self, on_durable=None) -> None:
        if not self._pending:
            return
        if self.error is not None:
            raise self.error
        self.journal.append(("ship", self.name))
        self.in_flight.append((self._pending, on_durable, time.perf_counter()))
        self._pending = []

    def ack(self, batches: int = 1) -> None:
        """The shard's acknowledgement for the oldest ``batches`` in flight."""
        for _ in range(batches):
            payloads, on_durable, shipped = self.in_flight.pop(0)
            self._durable.extend(payloads)
            self._sync_count += 1
            self.journal.append(("ack", self.name))
            self.waits.append((shipped, time.perf_counter()))
            if on_durable is not None:
                on_durable()

    def sync(self) -> None:
        self.ship()
        if self.manual and self.in_flight:
            raise AssertionError(f"sync() on {self.name or 'device'} would wait "
                                 "forever: the test has not acknowledged")
        while self.in_flight:
            remaining = self.in_flight[0][2] + self.latency_s - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            self.ack()


class CertifierCrashed(Exception):
    """Injected coordinator crash (the harness's control-flow signal)."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected coordinator crash at {point}")
        self.point = point


class CrashInjector:
    """Arms one coordinator crash at ``(request_index, point)``; fires once.

    Installed as the certifier's ``crash_hook``; the driver advances
    :attr:`request_index` before each certification request.  A point on the
    commit path never fires for a request that aborts — that cell simply
    degenerates to a fault-free run, which the equivalence check still
    covers.
    """

    def __init__(self, point: str | None, at_request: int) -> None:
        self.point = point
        self.at_request = at_request
        self.request_index = -1
        self.fired = False

    def begin_request(self) -> int:
        self.request_index += 1
        return self.request_index

    def __call__(self, point: str) -> None:
        if (not self.fired and point == self.point
                and self.request_index == self.at_request):
            self.fired = True
            raise CertifierCrashed(point)


def _pick(low: int, high: int, fraction: float) -> int:
    """Deterministically map a unit float onto the inclusive range."""
    if high <= low:
        return low
    return low + round((high - low) * fraction)


def _apply(state: dict, infos, last_seen: int) -> int:
    """Apply fetched remote writesets to a model replica state, asserting
    version order on the way."""
    for info in infos:
        assert info.commit_version > last_seen, "delivery out of version order"
        last_seen = info.commit_version
        for item_id in info.writeset.iter_item_ids():
            state[item_id] = info.commit_version
    return last_seen


def recover_with_schedule(certifier: ReplicatedShardedCertifier,
                          *, rebuild_crash: bool = False):
    """Run recovery; optionally crash it once mid-directory-rebuild first."""
    if rebuild_crash:
        state = {"fired": False}

        def record_hook(_version: int) -> None:
            if not state["fired"]:
                state["fired"] = True
                raise CertifierCrashed("mid-directory-rebuild")

        try:
            recover_sharded_certifier(certifier, record_hook=record_hook)
        except CertifierCrashed:
            pass  # recovery is idempotent: just run it again
    return recover_sharded_certifier(certifier)


def run_crash_schedule(
    operations,
    *,
    shards: int = 2,
    crash_point: str | None = None,
    crash_at_request: int = 0,
    nodes_per_shard: int = 3,
) -> dict:
    """Drive ``operations`` through one crash-schedule cell; assert oracle
    equivalence throughout; return a summary for further assertions.

    ``operations`` is a list of ``("certify", entries, fraction)`` /
    ``("poll",)`` / ``("gc",)`` tuples, where ``entries`` is a list of
    ``(table_index, key)`` pairs and ``fraction`` positions the snapshot
    inside the currently valid window (as in the PR 4 property tests).
    Three further operations exercise the state-transfer subsystem (the
    oracle has no analogue for them — they must be invisible to clients):
    ``("compact",)`` snapshots + truncates the shard group logs (crashable
    at the :data:`COMPACT_CRASH_POINTS`; each compact advances the request
    index, so ``crash_at_request`` addresses compactions too);
    ``("crash_group_node", shard_id, node_id)`` downs one group node; and
    ``("recover_group_node", shard_id, node_id)`` rejoins it via the
    anti-entropy bootstrap path (snapshot + retained suffix).
    """
    rebuild_crash = crash_point == "mid-directory-rebuild"
    primary_point = "post-flush" if rebuild_crash else crash_point
    injector = CrashInjector(primary_point, crash_at_request)
    certifier = ReplicatedShardedCertifier(
        shards, nodes_per_shard=nodes_per_shard, crash_hook=injector)
    oracle = Certifier()

    oracle_state: dict = {}
    sharded_state: dict = {}
    oracle_seen = sharded_seen = 0
    last_client_version = 0
    observer_connected = False
    #: The version the observer last put on the wire (the from-version of its
    #: last fetch).  The certifier's conservative watermark rule notes exactly
    #: this value — NOT the observer's applied frontier, which is only
    #: reported at its *next* contact — so a reconnect after a coordinator
    #: crash must re-feed this, or the recovered certifier's GC low-water mark
    #: runs ahead of the fault-free oracle's and they prune differently.
    observer_reported = 0
    crashes = 0
    commits = 0

    for op in operations:
        kind = op[0]
        if kind == "certify":
            _, entries, fraction = op
            writeset = make_writeset([(f"t{t}", k) for t, k in entries])
            start = _pick(oracle.log.pruned_version,
                          oracle.system_version.version, fraction)
            request_kwargs = dict(
                tx_start_version=start,
                replica_version=oracle.system_version.version,
                origin_replica="client",
            )
            last_client_version = request_kwargs["replica_version"]
            oracle_result = oracle.certify(
                CertificationRequest(writeset=writeset, **request_kwargs))
            if oracle_result.committed and oracle_result.tx_commit_version is not None:
                oracle.log.mark_durable(oracle_result.tx_commit_version)
            tx_id = injector.begin_request()
            request = CertificationRequest(writeset=writeset, **request_kwargs)
            try:
                result = certifier.certify(request, tx_id=tx_id)
            except CertifierCrashed:
                crashes += 1
                certifier.crash()
                recover_with_schedule(certifier, rebuild_crash=rebuild_crash)
                # Reconnect the replicas: each re-reports the version of its
                # last contact, which re-feeds the GC low-water mark (the
                # fault-free oracle only ever heard from replicas that
                # connected, and only their conservative last-reported notes).
                if observer_connected:
                    certifier.note_replica_version("observer", observer_reported)
                certifier.note_replica_version("client", last_client_version)
                # The client retries the interrupted transaction; the
                # exactly-once table answers it if its round survived.
                retry = CertificationRequest(writeset=writeset, **request_kwargs)
                result = certifier.certify(retry, tx_id=tx_id)
            assert result.committed == oracle_result.committed
            assert result.tx_commit_version == oracle_result.tx_commit_version
            assert result.conflicting_version == oracle_result.conflicting_version
            assert ([i.commit_version for i in result.remote_writesets]
                    == [i.commit_version for i in oracle_result.remote_writesets])
            if result.committed:
                commits += 1
        elif kind == "poll":
            if not observer_connected:
                observer_connected = True
                # A fresh observer connecting after GC has pruned cannot tail
                # from version 0 (LogPrunedError): it bootstraps at the
                # horizon — via a dump / state transfer — and tails from there.
                oracle_seen = max(oracle_seen, oracle.log.pruned_version)
                sharded_seen = oracle_seen
            observer_reported = sharded_seen
            oracle_seen = _apply(
                oracle_state,
                oracle.fetch_remote_writesets(oracle_seen, replica="observer"),
                oracle_seen)
            sharded_seen = _apply(
                sharded_state,
                certifier.fetch_remote_writesets(sharded_seen, replica="observer"),
                sharded_seen)
            assert sharded_seen == oracle_seen
        elif kind == "gc":
            oracle.collect_garbage(headroom=GC_HEADROOM)
            certifier.collect_garbage(headroom=GC_HEADROOM)
        elif kind == "compact":
            injector.begin_request()
            try:
                compact_certifier(certifier)
            except CertifierCrashed:
                crashes += 1
                certifier.crash()
                recover_with_schedule(certifier, rebuild_crash=rebuild_crash)
                if observer_connected:
                    certifier.note_replica_version("observer", observer_reported)
                certifier.note_replica_version("client", last_client_version)
                # Compaction is idempotent: the retry finishes whatever
                # shards the crashed attempt left untruncated.
                compact_certifier(certifier)
        elif kind == "crash_group_node":
            _, shard_id, node_id = op
            certifier.groups.crash_node(shard_id, node_id)
        elif kind == "recover_group_node":
            _, shard_id, node_id = op
            report = bootstrap_group_node(certifier.groups, shard_id, node_id)
            assert report.verified, (
                f"bootstrapped node {node_id} of shard {shard_id} did not "
                f"reach its peers' frontier"
            )
        else:  # pragma: no cover - workload generator bug
            raise AssertionError(f"unknown operation {kind!r}")
        core = certifier.core
        assert core is not None
        assert core.system_version.version == oracle.system_version.version
        assert core.pruned_version == oracle.log.pruned_version

    # Final sweep: replica state, retained history and the shard maps all
    # agree with the fault-free oracle.
    core = certifier.core
    if not observer_connected:
        # Same bootstrap rule as the first poll (see above).
        oracle_seen = max(oracle_seen, oracle.log.pruned_version)
        sharded_seen = oracle_seen
    oracle_seen = _apply(
        oracle_state, oracle.fetch_remote_writesets(oracle_seen, replica="observer"),
        oracle_seen)
    sharded_seen = _apply(
        sharded_state,
        certifier.fetch_remote_writesets(sharded_seen, replica="observer"),
        sharded_seen)
    assert sharded_seen == oracle_seen
    assert sharded_state == oracle_state
    for version in range(core.pruned_version + 1, core.last_version + 1):
        record = core.record_at(version)
        assert (sorted(record.writeset.iter_item_ids())
                == sorted(oracle.log.record_at(version).writeset.iter_item_ids()))
        for shard_id, local in record.shard_locals:
            assert core.shards[shard_id].global_of(local) == version

    return {
        "crashes": crashes,
        "crash_fired": injector.fired,
        "commits": commits,
        "system_version": core.system_version.version,
        "pruned_version": core.pruned_version,
        "recoveries": certifier.stats.recoveries,
    }
