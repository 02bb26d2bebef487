"""Invariants of the rebuilt sharded-certifier coordinator.

The recovery contract (``docs/recovery.md``): after any coordinator crash,
the directory rebuilt from the per-shard Paxos groups is *dense* over global
commit versions, every shard's local↔global map agrees with the directory,
the GC low-water horizon survives the restart, and an interrupted cross-
shard round resolves deterministically (completed from a surviving fragment
or aborted wholesale).  Plus the middleware failover hooks: a standby
:class:`ShardedCertifierService` rebuilt from an exported directory serves
re-subscribing replicas from their watermarks.
"""

import pytest

from faults import CertifierCrashed, CrashInjector
from repro.consensus.sharded import (
    ENTRY_COMMIT,
    ReplicatedShardedCertifier,
    ShardPaxosGroups,
)
from repro.core.certification import CertificationRequest
from repro.core.config import ReplicationConfig
from repro.core.sharding import CertifierShard, ShardedCertifier
from repro.core.writeset import make_writeset
from repro.errors import RecoveryError
from repro.middleware.sharded_certifier import ShardedCertifierService
from repro.recovery.sharded_recovery import recover_sharded_certifier


def _request(entries, version, *, start=None, origin="replica-0"):
    return CertificationRequest(
        tx_start_version=version if start is None else start,
        writeset=make_writeset(entries),
        replica_version=version,
        origin_replica=origin,
    )


def _run_history(certifier: ReplicatedShardedCertifier, n: int = 12) -> None:
    """Commit ``n`` transactions spanning two tables (so fragments straddle
    shards), interleaving keys so re-writes are common."""
    for i in range(n):
        entries = [("t0", i % 5), ("t1", (i * 3) % 7)]
        result = certifier.certify(_request(entries, certifier.core.last_version))
        assert result.committed


# ----------------------------------------------------------------- rebuilt directory

def test_rebuilt_directory_is_dense_and_maps_agree():
    certifier = ReplicatedShardedCertifier(3, nodes_per_shard=3)
    _run_history(certifier, 15)
    before = [
        sorted(certifier.core.record_at(v).writeset.iter_item_ids())
        for v in range(1, certifier.core.last_version + 1)
    ]
    certifier.crash()
    report = recover_sharded_certifier(certifier)
    core = certifier.core

    assert report.rounds_recovered == 15
    assert core.last_version == 15
    assert core.durable_version == 15
    assert core.system_version.version == 15
    # Density: every version between the horizon and the head resolves.
    for version in range(core.pruned_version + 1, core.last_version + 1):
        record = core.record_at(version)
        assert record.commit_version == version
        assert sorted(record.writeset.iter_item_ids()) == before[version - 1]
        # Local↔global agreement, both directions, for every fragment.
        for shard_id, local in record.shard_locals:
            shard = core.shards[shard_id]
            assert shard.global_of(local) == version
            assert shard.local_horizon(version) >= local
    # The per-shard maps jointly cover exactly the directory.
    fragments = sum(len(core.record_at(v).shard_locals)
                    for v in range(1, core.last_version + 1))
    assert fragments == sum(len(shard.global_map()) for shard in core.shards)


def test_gc_low_water_survives_coordinator_restart():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    _run_history(certifier, 10)
    certifier.note_replica_version("lagging-replica", 8)
    dropped = certifier.collect_garbage()
    assert dropped == 8
    assert certifier.core.pruned_version == 8

    certifier.crash()
    report = recover_sharded_certifier(certifier)
    assert report.pruned_version == 8
    assert certifier.core.pruned_version == 8
    assert certifier.core.last_version == 10
    # Below-horizon snapshots still get the conservative answer.
    result = certifier.certify(_request([("t0", 0)], 10, start=3))
    assert not result.committed
    assert result.conflicting_version == 8
    # Above-horizon certification proceeds with dense versions.
    result = certifier.certify(_request([("t0", 99)], 10))
    assert result.committed
    assert result.tx_commit_version == 11


def test_interrupted_cross_shard_round_is_completed_from_surviving_fragment():
    injector = CrashInjector("mid-flush", 3)
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3,
                                           crash_hook=injector)
    # One key per shard, found through the deployment's own stable
    # partitioner, so the 4th request genuinely straddles both shards.
    shard0_keys = [k for k in range(100)
                   if certifier.partitioner.shard_of(("t0", k)) == 0]
    shard1_keys = [k for k in range(100)
                   if certifier.partitioner.shard_of(("t0", k)) == 1]
    cross_entries = None
    for i in range(4):
        entries = [("t0", shard0_keys[i]), ("t0", shard1_keys[i])]
        request = _request(entries, certifier.core.last_version)
        assert len(certifier.partitioner.split(request.writeset)) == 2
        if i == 3:
            cross_entries = entries
        injector.begin_request()
        try:
            certifier.certify(request, tx_id=i)
        except CertifierCrashed:
            break
    else:  # pragma: no cover - the injector must fire
        raise AssertionError("mid-flush crash did not fire")

    certifier.crash()
    report = recover_sharded_certifier(certifier)
    assert report.rounds_completed == 1
    assert report.fragments_replayed == 1
    assert report.rounds_recovered == 4
    # The exactly-once table answers the client's retry with the same
    # commit version the interrupted round was allocated.
    retry = certifier.certify(
        _request(cross_entries, certifier.core.last_version), tx_id=3)
    assert retry.committed
    assert retry.tx_commit_version == 4
    assert certifier.stats.replayed_acks == 1


def test_exactly_once_retry_carries_only_the_original_window():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    assert certifier.certify(_request([("t0", 1)], 0)).tx_commit_version == 1
    original = certifier.certify(_request([("t0", 2)], 0), tx_id="A")
    assert original.tx_commit_version == 2
    assert [i.commit_version for i in original.remote_writesets] == [1]
    # A disjoint transaction commits after A's decision...
    later = certifier.certify(_request([("t1", 3)], 2, origin="replica-1"))
    assert later.tx_commit_version == 3
    # ... so the retry of A must not carry it: a serial applier would
    # install version 3 before A's own version 2.
    retry = certifier.certify(_request([("t0", 2)], 0), tx_id="A")
    assert retry.tx_commit_version == 2
    assert certifier.stats.replayed_acks == 1
    assert ([i.commit_version for i in retry.remote_writesets]
            == [i.commit_version for i in original.remote_writesets] == [1])


def test_repeated_recovery_is_idempotent():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    _run_history(certifier, 6)
    certifier.crash()
    first = recover_sharded_certifier(certifier)
    certifier.crash()
    second = recover_sharded_certifier(certifier)
    assert second.rounds_recovered == first.rounds_recovered == 6
    assert second.rounds_completed == 0
    assert second.system_version == first.system_version


# ----------------------------------------------------------------- admit idempotence

def test_admit_at_is_idempotent_and_rejects_gaps():
    shard = CertifierShard(0)
    fragment = make_writeset([("t", 1)])
    local = shard.admit(fragment, 0, global_version=5, origin_replica="r")
    assert shard.admit_at(fragment, 0, global_version=5, origin_replica="r") == local
    # The next global version installs normally through admit_at.
    second = shard.admit_at(make_writeset([("t", 2)]), 0, global_version=9,
                            origin_replica="r")
    assert second == local + 1
    assert shard.global_map() == (5, 9)
    # An already-installed middle version is answered idempotently too.
    assert shard.admit_at(fragment, 0, global_version=5, origin_replica="r") == local
    # A version that is neither installed nor next is a replay violation.
    with pytest.raises(RecoveryError):
        shard.admit_at(fragment, 0, global_version=7, origin_replica="r")


def test_rebuild_rejects_non_dense_versions():
    rounds = [
        (1, make_writeset([("t", 1)]), "r", 0),
        (3, make_writeset([("t", 2)]), "r", 0),
    ]
    with pytest.raises(RecoveryError):
        ShardedCertifier.rebuild(2, rounds)


# ----------------------------------------------------------------- shard groups

def test_shard_groups_fail_independently():
    groups = ShardPaxosGroups(2, nodes_per_shard=3)
    groups.crash_node(1, 0)
    groups.crash_node(1, 1)
    assert groups.has_quorum(0)
    assert not groups.has_quorum(1)
    assert not groups.all_have_quorum()
    assert groups.all_have_quorum([0])


def test_chosen_entries_union_read_survives_leader_holes():
    from repro.consensus.sharded import ShardLogEntry

    groups = ShardPaxosGroups(1, nodes_per_shard=3)
    entry_a = ShardLogEntry(kind=ENTRY_COMMIT, global_version=1,
                            writeset=make_writeset([("t", 1)]), touched=(0,))
    groups.append(0, entry_a)
    # Node 0 (the leader) misses the second append while down, then comes
    # back without a state transfer: its log has a hole.
    groups.crash_node(0, 0)
    entry_b = ShardLogEntry(kind=ENTRY_COMMIT, global_version=2,
                            writeset=make_writeset([("t", 2)]), touched=(0,))
    groups.append(0, entry_b)
    groups.group(0).nodes[0].up = True  # recover WITHOUT catch-up
    entries = groups.chosen_entries(0)
    assert [e.global_version for e in entries] == [1, 2]


# ----------------------------------------------------------------- middleware failover

def test_service_failover_rebuilds_from_exported_rounds():
    config = ReplicationConfig(certifier_shards=2, certifier_gc_headroom=0)
    primary = ShardedCertifierService(config)
    subscription = primary.subscribe_replica("replica-0", 0)
    state: dict = {}
    seen = 0
    for i in range(8):
        result = primary.certify(CertificationRequest(
            tx_start_version=primary.system_version,
            writeset=make_writeset([("t0", i % 3), ("t1", i % 5)]),
            replica_version=primary.system_version,
            origin_replica="replica-0",
        ))
        assert result.committed
    for info in subscription.poll_flat():
        seen = info.commit_version
        for item_id in info.writeset.iter_item_ids():
            state[item_id] = info.commit_version
    # GC some prefix so the export starts above version 1.
    primary.register_replica("replica-0", 5)
    assert primary.collect_garbage() > 0
    base = primary.core.pruned_version
    rounds = primary.export_rounds()
    assert rounds[0][0] == base + 1

    # The primary dies; a standby is rebuilt from the exported directory.
    core = ShardedCertifier.rebuild(2, rounds, base_version=base)
    standby = ShardedCertifierService.from_recovered_core(core, config=config)
    assert standby.system_version == primary.system_version
    assert standby.core.pruned_version == base

    # The replica re-subscribes from its watermark and is backfilled.
    resubscription = standby.subscribe_replica("replica-0", seen)
    for info in resubscription.poll_flat():
        assert info.commit_version > seen
        seen = info.commit_version
        for item_id in info.writeset.iter_item_ids():
            state[item_id] = info.commit_version
    assert seen == standby.system_version

    # And the standby keeps certifying with dense global versions.
    result = standby.certify(CertificationRequest(
        tx_start_version=standby.system_version,
        writeset=make_writeset([("t0", 42)]),
        replica_version=standby.system_version,
        origin_replica="replica-0",
    ))
    assert result.committed
    assert result.tx_commit_version == 9
    tail = resubscription.poll_flat()
    assert [info.commit_version for info in tail] == [9]
