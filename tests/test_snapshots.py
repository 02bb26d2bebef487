"""Replicated snapshots, log compaction and anti-entropy bootstrap.

Coverage layers:

* **log-level compaction** — ``truncate_to`` / ``install_snapshot`` /
  snapshot-aware ``catch_up`` on :class:`ReplicatedLogNode` /
  :class:`ReplicatedLog`;
* **the rejoin-past-the-GC-horizon story** — a group node crashed before
  compaction (log truncated beneath its known prefix) rejoins via snapshot +
  retained suffix and converges, including through the crash-schedule
  harness against the fault-free shards=1 oracle;
* **transfer fault injection** — checksum mismatch → re-fetch, partial
  snapshot → loud failure, crash mid-install → idempotent retry, and the
  :data:`~faults.COMPACT_CRASH_POINTS` grid (a coordinator crash inside
  compaction, including the partially-truncated ``mid-compact`` state);
* **boundedness** — the per-node Paxos log length and the exactly-once
  commit-ack table stay bounded under a sustained retry-heavy workload with
  GC + compaction enabled;
* **round-trip property** (Hypothesis) — snapshot → truncate → recover
  yields the same versions, decisions, acks and watermarks as full-log
  replay;
* the **timing model** — snapshot + suffix state-transfer seconds calibrated
  against Section 9.6, and the sim's calibrated failover window.
"""

import pytest
from hypothesis import given, settings, strategies as st

from faults import COMPACT_CRASH_POINTS, run_crash_schedule
from repro.consensus.log import ReplicatedLog, ReplicatedLogNode
from repro.consensus.sharded import ReplicatedShardedCertifier
from repro.core.certification import CertificationRequest
from repro.core.writeset import make_writeset
from repro.errors import (
    ConfigurationError,
    ConsensusError,
    QuorumUnavailableError,
    RecoveryError,
)
from repro.recovery.sharded_recovery import recover_sharded_certifier
from repro.recovery.snapshots import (
    StateTransferPackage,
    bootstrap_group_node,
    capture_shard_snapshot,
    compact_certifier,
    plan_node_bootstrap,
)
from repro.recovery.timings import RecoveryTimingModel


# ------------------------------------------------------------------ helpers

def _request(entries, version, *, origin="client"):
    return CertificationRequest(
        writeset=make_writeset(entries),
        tx_start_version=version,
        replica_version=version,
        origin_replica=origin,
    )


def _drive(certifier, count, *, offset=0, tx_prefix="tx"):
    """Commit ``count`` non-conflicting single-item transactions."""
    results = []
    for i in range(count):
        version = certifier.core.last_version
        result = certifier.certify(
            _request([("t0", offset + i)], version), tx_id=(tx_prefix, offset + i))
        assert result.committed
        results.append(result)
    return results


def _sync_replicas(certifier, *names):
    version = certifier.core.last_version
    # ``certify`` notes the origin replica's watermark, so the "client"
    # replica participates in the low-water mark and must advance too.
    for name in names + ("client",):
        certifier.note_replica_version(name, version)


# ------------------------------------------------- log-level compaction

class _Snap:
    """Minimal snapshot stand-in with the duck-typed ``validate``."""

    def __init__(self, ok=True):
        self.ok = ok

    def validate(self):
        if not self.ok:
            raise RecoveryError("stand-in snapshot is corrupt")


def _log3():
    nodes = [ReplicatedLogNode(node_id=i) for i in range(3)]
    log = ReplicatedLog(nodes)
    for value in "abcde":
        log.append(value)
    return log, nodes


def test_node_truncate_drops_prefix_and_is_idempotent():
    log, nodes = _log3()
    snap = _Snap()
    dropped = nodes[0].truncate_to(3, snap)
    assert dropped == 3
    assert nodes[0].base_slot == 3
    assert nodes[0].entries == ["d", "e"]
    assert nodes[0].snapshot is snap
    # Absolute-slot reads survive the shift.
    assert nodes[0].entry_at(3) == "d"
    assert nodes[0].entry_at(2) is None and not nodes[0].covers(2)
    assert nodes[0].known_length() == 5
    # Idempotent at or below the base.
    assert nodes[0].truncate_to(3, snap) == 0
    assert nodes[0].truncate_to(1, snap) == 0


def test_node_truncate_beyond_known_prefix_is_refused():
    log, nodes = _log3()
    with pytest.raises(ConsensusError):
        nodes[0].truncate_to(9, _Snap())


def test_install_snapshot_validates_and_is_idempotent():
    log, nodes = _log3()
    node = nodes[2]
    with pytest.raises(RecoveryError):
        node.install_snapshot(_Snap(ok=False), 3)
    assert node.base_slot == 0  # nothing installed
    assert node.install_snapshot(_Snap(), 3)
    assert node.base_slot == 3
    assert node.snapshot_installs == 1
    # Re-offering at or below the base is a no-op (crash-retry safety).
    assert not node.install_snapshot(_Snap(), 3)
    assert node.snapshot_installs == 1


def test_group_truncate_catches_up_lagging_node_first():
    log, nodes = _log3()
    # Node 2 lags: its known prefix stops short of the truncation point.
    del nodes[2].entries[3:]
    # Nodes 0 and 1 drop four slots each; node 2's catch-up rides the
    # snapshot (its short prefix is folded in rather than dropped).
    assert log.truncate_to(4, _Snap()) == 4 * 2
    assert all(node.base_slot == 4 for node in nodes)
    assert nodes[2].snapshot_installs == 1
    assert [node.entries for node in nodes] == [["e"], ["e"], ["e"]]
    assert log.base_slot() == 4
    assert log.chosen_prefix() == ["e"]


def test_catch_up_serves_snapshot_plus_suffix_past_truncation():
    log, nodes = _log3()
    nodes[2].crash()
    for value in "fgh":
        log.append(value)
    snap = _Snap()
    log.truncate_to(6, snap)  # up nodes keep only "g", "h"
    nodes[2].recover()
    transferred = log.catch_up(nodes[2])
    assert nodes[2].snapshot_installs == 1
    assert nodes[2].snapshot is snap
    assert nodes[2].base_slot == 6
    assert transferred == 2  # just the suffix; the snapshot covers the rest
    assert nodes[2].known_length() == 8
    # The rejoined node serves slot reads like everyone else.
    assert nodes[2].entry_at(6) == "g" and nodes[2].entry_at(7) == "h"


def test_catch_up_without_truncation_is_unchanged():
    log, nodes = _log3()
    nodes[1].crash()
    for value in "fg":
        log.append(value)
    nodes[1].recover()
    assert log.catch_up(nodes[1]) == 2
    assert nodes[1].snapshot_installs == 0
    assert nodes[1].known_length() == 7


# ------------------------------------------------- certifier-level compaction

def test_compaction_truncates_all_groups_and_bounds_logs():
    certifier = ReplicatedShardedCertifier(2)
    _drive(certifier, 12)
    _sync_replicas(certifier, "r1", "r2")
    assert certifier.collect_garbage() == 12
    report = compact_certifier(certifier)
    assert report.shards_compacted == 2
    assert report.entries_truncated > 0
    assert report.shards_skipped_no_quorum == 0
    for shard_id in range(2):
        assert certifier.groups.compaction_base(shard_id) > 0
        snapshot = certifier.groups.snapshot_at(shard_id)
        snapshot.validate()
        assert snapshot.global_version == 12
    assert certifier.stats.compactions == 1
    # Nothing below the horizon survives on any up node.
    assert max(certifier.groups.node_log_lengths(0)) < 12
    # A second compaction with no new GC is a no-op.
    again = compact_certifier(certifier)
    assert again.shards_compacted == 0
    assert certifier.stats.compactions == 1


def test_compaction_skips_shards_without_quorum():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    _drive(certifier, 8)
    _sync_replicas(certifier, "r1", "r2")
    certifier.collect_garbage()
    certifier.groups.crash_node(1, 0)
    certifier.groups.crash_node(1, 1)
    report = compact_certifier(certifier)
    assert report.shards_skipped_no_quorum == 1
    assert all(snap.shard_id == 0 for snap in report.snapshots)


def test_capture_shard_snapshot_contents_and_checksum():
    certifier = ReplicatedShardedCertifier(2)
    _drive(certifier, 6)
    _sync_replicas(certifier, "r1", "r2")
    certifier.collect_garbage()
    snapshot = capture_shard_snapshot(certifier, 0)
    snapshot.validate()
    assert snapshot.global_version == certifier.core.pruned_version
    assert snapshot.local_version == certifier.core.shards[0].local_horizon(
        snapshot.global_version)
    assert dict(snapshot.replica_versions) == {"client": 6, "r1": 6, "r2": 6}
    assert snapshot.size_bytes() > 0
    with pytest.raises(RecoveryError):
        snapshot.corrupted_copy().validate()


def test_recovery_after_compaction_restores_horizon_acks_and_watermarks():
    certifier = ReplicatedShardedCertifier(2)
    _drive(certifier, 10)
    certifier.note_replica_version("r1", 7)
    certifier.note_replica_version("r2", 9)
    certifier.collect_garbage()
    horizon = certifier.core.pruned_version
    acks_before = certifier.committed_acks()
    compact_certifier(certifier)
    certifier.crash()
    report = recover_sharded_certifier(certifier)
    assert report.snapshot_version == horizon
    assert report.snapshots_validated == 2
    assert certifier.core.pruned_version == horizon
    assert certifier.core.last_version == 10
    # Watermarks came back from the snapshots: GC can resume immediately.
    assert certifier.core.low_water_mark() == 7
    # The exactly-once table equals its pre-crash state (snapshot acks for
    # compacted rounds, suffix tx_ids above the horizon).
    assert certifier.committed_acks() == acks_before
    _drive(certifier, 3, offset=100)


def test_recovery_rejects_corrupt_group_snapshot():
    certifier = ReplicatedShardedCertifier(2)
    _drive(certifier, 8)
    _sync_replicas(certifier, "r1", "r2")
    certifier.collect_garbage()
    compact_certifier(certifier)
    for node in certifier.groups.group(0).nodes:
        if node.snapshot is not None:
            object.__setattr__(node.snapshot, "complete", False)
    certifier.crash()
    with pytest.raises(RecoveryError):
        recover_sharded_certifier(certifier)


# ------------------------------------------------- anti-entropy bootstrap

def _compacted_with_down_node(*, extra=6):
    """A 2-shard certifier whose shard-0 node 2 died before GC + compaction
    truncated the group logs beneath its known prefix."""
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    _drive(certifier, 8)
    certifier.groups.crash_node(0, 2)
    _drive(certifier, extra, offset=50)
    _sync_replicas(certifier, "r1", "r2")
    certifier.collect_garbage()
    compact_certifier(certifier)
    assert certifier.groups.compaction_base(0) > \
        certifier.groups.group(0).nodes[2].known_length()
    return certifier


def test_node_crashed_past_gc_horizon_rejoins_via_snapshot_and_suffix():
    certifier = _compacted_with_down_node()
    plan = plan_node_bootstrap(certifier.groups, 0, 2)
    assert plan.needs_snapshot
    assert plan.snapshot_bytes > 0
    report = bootstrap_group_node(certifier.groups, 0, 2)
    assert report.snapshot_installed
    assert report.fetch_attempts == 1
    assert report.verified
    node = certifier.groups.group(0).nodes[2]
    assert node.snapshot_installs == 1
    assert node.base_slot == certifier.groups.compaction_base(0)
    # The rejoined node is a first-class quorum member again: kill the other
    # two and the shard keeps serving through it plus one recovered peer.
    certifier.groups.crash_node(0, 0)
    certifier.groups.ensure_leader(0)
    _drive(certifier, 3, offset=200)


def test_bootstrap_without_snapshot_is_plain_catch_up():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    _drive(certifier, 4)
    certifier.groups.crash_node(0, 2)
    _drive(certifier, 4, offset=50)
    report = bootstrap_group_node(certifier.groups, 0, 2)
    assert not report.plan.needs_snapshot
    assert not report.snapshot_installed
    assert report.fetch_attempts == 0
    assert report.verified


def test_checksum_mismatch_triggers_refetch():
    certifier = _compacted_with_down_node()

    def corrupt_first(attempt, snapshot):
        return snapshot.corrupted_copy() if attempt == 1 else None

    report = bootstrap_group_node(certifier.groups, 0, 2,
                                  fetch_hook=corrupt_first)
    assert report.fetch_attempts == 2
    assert report.snapshot_installed
    assert report.verified


def test_partial_snapshot_fails_loudly_when_refetch_exhausted():
    certifier = _compacted_with_down_node()

    def always_corrupt(_attempt, snapshot):
        return snapshot.corrupted_copy()

    with pytest.raises(RecoveryError):
        bootstrap_group_node(certifier.groups, 0, 2,
                             fetch_hook=always_corrupt, max_fetch_attempts=2)
    # The corrupt copy was never installed; a clean retry succeeds.
    node = certifier.groups.group(0).nodes[2]
    assert node.snapshot_installs == 0
    report = bootstrap_group_node(certifier.groups, 0, 2)
    assert report.verified


def test_crash_mid_install_is_repaired_by_retry():
    certifier = _compacted_with_down_node()

    class Boom(Exception):
        pass

    def crash_mid(point):
        if point == "mid-transfer":
            raise Boom()

    with pytest.raises(Boom):
        bootstrap_group_node(certifier.groups, 0, 2, crash_hook=crash_mid)
    node = certifier.groups.group(0).nodes[2]
    assert node.snapshot_installs == 1  # installed, then crashed pre-suffix
    report = bootstrap_group_node(certifier.groups, 0, 2)
    assert report.verified
    assert not report.snapshot_installed  # idempotent re-offer was a no-op
    assert node.snapshot_installs == 1


def test_bootstrap_refuses_when_no_peer_is_up():
    certifier = _compacted_with_down_node()
    certifier.groups.crash_node(0, 0)
    certifier.groups.crash_node(0, 1)
    with pytest.raises(QuorumUnavailableError):
        bootstrap_group_node(certifier.groups, 0, 2)


# ------------------------------------------------- crash-schedule coverage

#: Certify and compact operations both advance the request index, so
#: ``crash_at_request`` addresses the compactions at indices 5 and 7.
COMPACT_WORKLOAD = [
    ("certify", [(0, 1), (1, 2)], 1.0),
    ("certify", [(0, 3)], 1.0),
    ("certify", [(1, 4)], 1.0),
    ("certify", [(0, 5)], 1.0),
    ("certify", [(1, 6)], 1.0),
    ("poll",),
    ("gc",),
    ("compact",),
    ("certify", [(0, 7)], 1.0),
    ("poll",),
    ("gc",),
    ("compact",),
    ("poll",),
]
COMPACT_REQUEST_COUNT = sum(
    1 for op in COMPACT_WORKLOAD if op[0] in ("certify", "compact"))


@pytest.mark.parametrize("crash_point", COMPACT_CRASH_POINTS)
def test_grid_compaction_crash_points_recover_to_oracle(crash_point):
    fired_somewhere = False
    for crash_at in range(COMPACT_REQUEST_COUNT):
        report = run_crash_schedule(
            COMPACT_WORKLOAD, shards=2,
            crash_point=crash_point, crash_at_request=crash_at)
        fired_somewhere = fired_somewhere or report["crash_fired"]
        if report["crash_fired"]:
            assert report["crashes"] == 1
            assert report["recoveries"] >= 1
    assert fired_somewhere


def test_grid_node_rejoin_past_horizon_matches_oracle():
    # The acceptance-criteria schedule: a group node dies, the workload GCs
    # and compacts past its prefix, the node rejoins via snapshot + suffix —
    # all invisible to clients (the harness asserts oracle equivalence).
    workload = [
        ("certify", [(0, 1), (1, 2)], 1.0),
        ("crash_group_node", 0, 2),
        ("certify", [(0, 3)], 1.0),
        ("certify", [(1, 4)], 1.0),
        ("certify", [(0, 5)], 1.0),
        ("poll",),
        ("gc",),
        ("compact",),
        ("recover_group_node", 0, 2),
        ("certify", [(0, 7), (1, 8)], 1.0),
        ("poll",),
    ]
    report = run_crash_schedule(workload, shards=2, crash_point=None)
    assert report["crashes"] == 0
    assert report["commits"] == 5


def test_fault_free_compact_workload_matches_oracle():
    report = run_crash_schedule(COMPACT_WORKLOAD, shards=2, crash_point=None)
    assert report["crashes"] == 0
    assert report["commits"] == 6


# ------------------------------------------------- boundedness under GC

def test_ack_table_and_node_logs_stay_bounded_under_sustained_workload():
    certifier = ReplicatedShardedCertifier(2, gc_headroom=4)
    max_acks = max_log = 0
    for i in range(240):
        version = certifier.core.last_version
        result = certifier.certify(_request([("t0", i)], version),
                                   tx_id=("tx", i))
        assert result.committed
        # Retry-heavy: every transaction is immediately retried once and
        # must be answered from the ack table, not re-certified.
        retry = certifier.certify(_request([("t0", i)], version),
                                  tx_id=("tx", i))
        assert retry.tx_commit_version == result.tx_commit_version
        if i % 5 == 4:
            _sync_replicas(certifier, "r1", "r2")
            certifier.collect_garbage()
        if i % 20 == 19:
            compact_certifier(certifier)
        max_acks = max(max_acks, certifier.committed_tx_count)
        max_log = max(max_log, *certifier.groups.node_log_lengths(0),
                      *certifier.groups.node_log_lengths(1))
    assert certifier.core.last_version == 240
    assert certifier.stats.replayed_acks == 240
    assert certifier.stats.ack_entries_dropped > 200
    assert certifier.stats.compactions == 12
    # Horizon-bound: far below the 240 committed transactions.
    assert max_acks <= 30
    assert max_log <= 60


def test_gc_headroom_knob_defaults_and_validation():
    certifier = ReplicatedShardedCertifier(2, gc_headroom=6)
    _drive(certifier, 10)
    _sync_replicas(certifier, "r1", "r2")
    # collect_garbage() with no argument honours the configured headroom.
    assert certifier.collect_garbage() == 4
    assert certifier.core.pruned_version == 4
    # An explicit headroom still overrides per call.
    assert certifier.collect_garbage(headroom=2) == 4
    assert certifier.core.pruned_version == 8
    with pytest.raises(ConfigurationError):
        ReplicatedShardedCertifier(2, gc_headroom=-1)
    from repro.core.config import ReplicationConfig
    with pytest.raises(ConfigurationError):
        ReplicationConfig(certifier_gc_headroom=-1)
    assert ReplicationConfig(certifier_gc_headroom=0).certifier_gc_headroom == 0


def test_sim_config_threads_gc_headroom_to_node():
    from repro.cluster.nodes import SimCertifierNode
    from repro.core.config import ReplicationConfig
    from repro.sim.kernel import Environment
    from repro.sim.rng import RandomStreams

    for shards, headroom in ((1, 9), (2, 7)):
        config = ReplicationConfig(certifier_shards=shards,
                                   certifier_gc_headroom=headroom)
        node = SimCertifierNode(Environment(), config, RandomStreams(1))
        assert node.gc_headroom_versions == headroom
    assert SimCertifierNode.gc_headroom_versions == 512  # class default intact


def test_calibrated_failover_window_tracks_retained_suffix():
    from repro.cluster.nodes import SimCertifierNode
    from repro.core.config import ReplicationConfig
    from repro.sim.kernel import Environment
    from repro.sim.rng import RandomStreams

    node = SimCertifierNode(Environment(), ReplicationConfig(
        certifier_shards=2), RandomStreams(1))
    assert node.calibrated_failover_window_ms(0) == 0.0
    model = RecoveryTimingModel()
    shard = node.core.shards[0]
    for version in range(1, 41):
        shard.admit_at(make_writeset([("t0", version)]), version - 1, version, "r")
    expected = model.certifier_bootstrap_seconds(0, 40) * 1000.0
    assert node.calibrated_failover_window_ms(0) == pytest.approx(expected)
    assert expected > 0


# ------------------------------------------------- round-trip property

_roundtrip_ops = st.lists(
    st.one_of(
        st.tuples(st.just("certify"),
                  st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9)),
                           min_size=1, max_size=3),
                  st.floats(0.0, 1.0)),
        st.just(("poll",)),
        st.just(("gc",)),
        st.just(("compact",)),
    ),
    min_size=1, max_size=20)


@given(operations=_roundtrip_ops, shards=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_property_compacted_runs_equal_shards1_oracle(operations, shards):
    """Snapshot → truncate → crash → recover ≡ full-log replay: any workload
    interleaved with compactions stays equivalent to the fault-free shards=1
    oracle (decisions, versions, streams, GC horizon — asserted inline by
    the harness), including through a post-flush coordinator crash."""
    run_crash_schedule(operations, shards=shards, crash_point=None)
    run_crash_schedule(operations, shards=shards,
                       crash_point="post-flush", crash_at_request=0)


@given(count=st.integers(2, 12), low_water=st.integers(0, 12),
       headroom=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_property_bootstrap_equals_full_replay(count, low_water, headroom):
    """A fresh node joining a compacted group ends byte-identical (entries,
    base, snapshot horizon) to a node that lived through the full history."""
    compacted = ReplicatedShardedCertifier(2, nodes_per_shard=3,
                                           gc_headroom=headroom)
    replayed = ReplicatedShardedCertifier(2, nodes_per_shard=3,
                                          gc_headroom=headroom)
    low_water = min(low_water, count)
    for certifier in (compacted, replayed):
        _drive(certifier, count)
        certifier.note_replica_version("r1", low_water)
        certifier.note_replica_version("r2", low_water)
        certifier.collect_garbage()
    compact_certifier(compacted)
    # Both coordinators crash and recover from what their groups retain.
    for certifier in (compacted, replayed):
        certifier.crash()
        recover_sharded_certifier(certifier)
    assert compacted.core.last_version == replayed.core.last_version
    assert compacted.core.pruned_version == replayed.core.pruned_version
    assert compacted.committed_acks() == replayed.committed_acks()
    # Snapshots carry replica watermarks across the crash; full-log replay
    # must wait for replicas to reconnect.  Once both have heard from the
    # replicas again, GC behaves identically.
    for certifier in (compacted, replayed):
        certifier.note_replica_version("r1", low_water)
        certifier.note_replica_version("r2", low_water)
        certifier.note_replica_version("client", low_water)
        certifier.collect_garbage()
    assert compacted.core.low_water_mark() == replayed.core.low_water_mark()
    assert compacted.core.pruned_version == replayed.core.pruned_version
    for shard_id in range(2):
        assert (compacted.core.shards[shard_id].global_map()
                == replayed.core.shards[shard_id].global_map())
    # And both answer identical refresh streams (from the shared horizon —
    # anything below it is pruned on both sides).
    horizon = compacted.core.pruned_version
    assert ([i.commit_version
             for i in compacted.fetch_remote_writesets(horizon, replica="obs")]
            == [i.commit_version
                for i in replayed.fetch_remote_writesets(horizon, replica="obs")])


# ------------------------------------------------- state-transfer package

def test_state_transfer_package_round_trip():
    from repro.core.config import ReplicationConfig
    from repro.middleware.sharded_certifier import ShardedCertifierService

    service = ShardedCertifierService(ReplicationConfig(certifier_shards=2))
    service.register_replica("r1")
    for i in range(8):
        version = service.system_version
        service.certify(_request([("t0", i)], version, origin="r1"))
    service.core.note_replica_version("r1", 6)
    service.core.collect_garbage(headroom=2)
    package = service.export_state_transfer()
    package.validate()
    assert package.horizon == service.core.pruned_version
    assert package.size_bytes() > 0
    standby = ShardedCertifierService.from_state_transfer(package)
    assert standby.system_version == service.system_version
    assert standby.core.pruned_version == service.core.pruned_version
    assert standby.core.low_water_mark() == service.core.low_water_mark()
    # The standby certifies where the live service left off.
    result = standby.certify(_request([("t0", 99)], standby.system_version))
    assert result.committed
    with pytest.raises(RecoveryError):
        ShardedCertifierService.from_state_transfer(package.corrupted_copy())


def test_state_transfer_package_direct_capture():
    certifier = ReplicatedShardedCertifier(2)
    _drive(certifier, 5)
    package = StateTransferPackage.capture(certifier.core)
    package.validate()
    assert package.num_shards == 2
    assert len(package.rounds) == 5
    with pytest.raises(RecoveryError):
        package.corrupted_copy().validate()


# ------------------------------------------------- the timing model

def test_bootstrap_timing_matches_section_9_6_calibration():
    model = RecoveryTimingModel()
    # With no snapshot, one hour's worth of suffix is the paper's "about 1
    # second ... for each hour of down time".
    one_hour_entries = model.writesets_missed(1.0)
    assert model.certifier_bootstrap_seconds(0, one_hour_entries) == \
        pytest.approx(model.certifier_transfer_seconds(1.0))
    assert model.certifier_transfer_seconds(1.0) == pytest.approx(0.88, abs=0.05)
    # Components add, and both scale linearly.
    assert model.certifier_bootstrap_seconds(60 * 1024 * 1024, 0) == \
        pytest.approx(1.0)
    assert model.snapshot_transfer_seconds(2 * 60 * 1024 * 1024) == \
        pytest.approx(2 * model.snapshot_transfer_seconds(60 * 1024 * 1024))
    assert model.log_suffix_transfer_seconds(2000) == \
        pytest.approx(2 * model.log_suffix_transfer_seconds(1000))
    # Custom entry size overrides the TPC-W 275 B default.
    assert model.log_suffix_transfer_seconds(100, entry_bytes=550) == \
        pytest.approx(2 * model.log_suffix_transfer_seconds(100))


def test_bootstrap_plan_estimates_scale_with_state():
    small = _compacted_with_down_node(extra=2)
    large = _compacted_with_down_node(extra=14)
    plan_small = plan_node_bootstrap(small.groups, 0, 2)
    plan_large = plan_node_bootstrap(large.groups, 0, 2)
    assert plan_large.suffix_entries >= plan_small.suffix_entries
    assert plan_large.estimated_seconds >= plan_small.estimated_seconds
    report = bootstrap_group_node(small.groups, 0, 2)
    assert report.plan.estimated_seconds == plan_small.estimated_seconds
