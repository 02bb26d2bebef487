"""Unit tests for the sharded certification core (repro.core.sharding)."""

import pytest

from repro.core.certification import CertificationRequest
from repro.core.sharding import (
    GlobalRecord,
    HashPartitioner,
    ShardedCertifier,
)
from repro.core.writeset import WriteSet, make_writeset
from repro.errors import ConfigurationError, LogPrunedError, ReproError


def certify_one(certifier, request):
    """Certify a lone request: a round of one, its failure re-raised."""
    outcome = certifier.certify_batch([request])[0]
    if isinstance(outcome, ReproError):
        raise outcome
    return outcome


def request(entries, start=None, replica_version=None, origin="r0", *, certifier=None):
    current = certifier.system_version.version if certifier is not None else 0
    return CertificationRequest(
        tx_start_version=current if start is None else start,
        writeset=make_writeset(entries),
        replica_version=current if replica_version is None else replica_version,
        origin_replica=origin,
    )


# ---------------------------------------------------------------------------- partitioner


def test_hash_partitioner_is_stable_and_total():
    partitioner = HashPartitioner(4)
    items = [("accounts", i) for i in range(200)] + [("tellers", f"k{i}") for i in range(50)]
    first = [partitioner.shard_of(item) for item in items]
    second = [partitioner.shard_of(item) for item in items]
    assert first == second
    assert set(first) == {0, 1, 2, 3}  # every shard gets traffic
    # A fresh partitioner (fresh cache) maps identically: the map must be
    # stable across certifier restarts.
    assert [HashPartitioner(4).shard_of(item) for item in items] == first


def test_partitioner_single_shard_is_identity():
    partitioner = HashPartitioner(1)
    assert partitioner.shard_of(("t", 123)) == 0
    ws = make_writeset([("t", 1), ("u", 2)])
    assert partitioner.split(ws) == {0: ws}


def test_split_preserves_items_and_order():
    partitioner = HashPartitioner(3)
    ws = make_writeset([("t", k) for k in range(20)])
    fragments = partitioner.split(ws)
    assert sum(len(frag) for frag in fragments.values()) == len(ws)
    for shard_id, frag in fragments.items():
        for item in frag:
            assert partitioner.shard_of(item.item_id) == shard_id
        versions = [item.key for item in frag]
        assert versions == sorted(versions)  # original order preserved


def test_split_single_shard_writeset_is_not_copied():
    partitioner = HashPartitioner(4)
    key = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 2)
    ws = make_writeset([("t", key), ("t", key)])
    assert partitioner.split(ws) == {2: ws}
    assert partitioner.split(WriteSet()) == {}


def test_hash_partitioner_rejects_zero_shards():
    with pytest.raises(ConfigurationError):
        HashPartitioner(0)


# ---------------------------------------------------------------------------- certification


def test_single_shard_transaction_touches_one_shard_only():
    certifier = ShardedCertifier(4)
    partitioner = certifier.partitioner
    key = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    result = certify_one(certifier, request([("t", key)], certifier=certifier))
    assert result.committed and result.tx_commit_version == 1
    record = certifier.record_at(1)
    assert record.shard_locals == ((1, 1),)
    assert record.home_shard == 1
    for shard in certifier.shards:
        expected = 1 if shard.shard_id == 1 else 0
        assert shard.log.last_version == expected


def test_cross_shard_commit_installs_every_fragment():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    result = certify_one(certifier, request([("t", k0), ("t", k1)], certifier=certifier))
    assert result.committed
    record = certifier.record_at(result.tx_commit_version)
    assert [shard_id for shard_id, _ in record.shard_locals] == [0, 1]
    assert certifier.shards[0].log.last_version == 1
    assert certifier.shards[1].log.last_version == 1
    # Each shard logged only its fragment.
    assert certifier.shards[0].log.record_at(1).writeset.touches("t", k0)
    assert not certifier.shards[0].log.record_at(1).writeset.touches("t", k1)


def test_cross_shard_abort_leaves_no_partial_append():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    assert certify_one(certifier, request([("t", k1)], certifier=certifier)).committed

    # A cross-shard writeset whose shard-1 fragment conflicts: the clean
    # shard-0 fragment must not be appended anywhere (any-shard-aborts).
    lengths_before = [shard.log.last_version for shard in certifier.shards]
    result = certify_one(certifier, request([("t", k0), ("t", k1)], start=0,
                                            certifier=certifier))
    assert not result.committed
    assert result.conflicting_version == 1
    assert [s.log.last_version for s in certifier.shards] == lengths_before
    assert certifier.system_version.version == 1  # no version burned


def test_conflicting_version_is_earliest_across_shards():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    assert certify_one(certifier, request([("t", k1)], certifier=certifier)).committed  # v1
    assert certify_one(certifier, request([("t", k0)], certifier=certifier)).committed  # v2
    result = certify_one(certifier, request([("t", k0), ("t", k1)], start=0,
                                            certifier=certifier))
    assert not result.committed
    assert result.conflicting_version == 1


def test_commit_versions_are_dense_over_commits():
    certifier = ShardedCertifier(3)
    committed = []
    for k in range(30):
        result = certify_one(certifier, request([("t", k), ("u", k)], certifier=certifier))
        assert result.committed
        committed.append(result.tx_commit_version)
    assert committed == list(range(1, 31))
    assert certifier.last_version == 30


def recording_hook(certifier, calls):
    """A phase hook noting each phase with the state it fired against:
    (phase, allocated version, directory tip, per-shard log tips)."""
    def hook(phase):
        calls.append((phase, certifier.system_version.version, certifier.last_version,
                      tuple(shard.log.last_version for shard in certifier.shards)))
    return hook


def test_phase_hook_fires_per_committing_request_in_a_round():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0, k0b = [k for k in range(100) if partitioner.shard_of(("t", k)) == 0][:2]
    k1, k1b = [k for k in range(100) if partitioner.shard_of(("t", k)) == 1][:2]
    assert certify_one(certifier, request([("t", k1)], certifier=certifier)).committed  # v1
    calls = []
    clean_single = request([("t", k0)], certifier=certifier)
    conflicting = request([("t", k1)], start=0, certifier=certifier)
    clean_cross = request([("t", k0b), ("t", k1b)], certifier=certifier)
    outcomes = certifier.certify_batch([clean_single, conflicting, clean_cross],
                                       phase_hook=recording_hook(certifier, calls))
    assert [o.tx_commit_version for o in outcomes] == [2, None, 3]
    assert outcomes[1].conflicting_version == 1
    assert calls == [
        # decide: each clean request, just before its version is allocated;
        # the conflicting one fires nothing.
        ("post-probe", 1, 1, (0, 1)),
        ("post-probe", 2, 1, (0, 1)),
        # admit: each committing request around its own installs.
        ("pre-admit", 3, 1, (0, 1)),
        ("mid-admit", 3, 1, (1, 1)),
        ("post-admit", 3, 2, (1, 1)),
        ("pre-admit", 3, 2, (1, 1)),
        ("mid-admit", 3, 2, (2, 1)),
        ("post-admit", 3, 3, (2, 2)),
    ]


def test_phase_hook_on_a_round_of_one_fires_the_per_request_sequence():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    calls = []
    hook = recording_hook(certifier, calls)
    certifier.certify_batch([request([("t", k0), ("t", k1)], certifier=certifier)],
                            phase_hook=hook)
    assert calls == [
        ("post-probe", 0, 0, (0, 0)),  # probes clean, nothing allocated
        ("pre-admit", 1, 0, (0, 0)),   # version allocated, nothing installed
        ("mid-admit", 1, 0, (1, 0)),   # first touched shard installed
        ("post-admit", 1, 1, (1, 1)),  # every shard + the directory record
    ]
    # An aborting or read-only round of one fires nothing.
    calls.clear()
    certifier.certify_batch([request([("t", k0)], start=0, certifier=certifier)],
                            phase_hook=hook)
    certifier.certify_batch([request([], certifier=certifier)], phase_hook=hook)
    assert calls == []


# ---------------------------------------------------------------------------- versions / horizons


def test_local_horizon_and_global_of_roundtrip():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    # Commit order: shard1, shard0, shard1 -> globals 1, 2, 3.
    for key in (k1, k0, k1):
        assert certify_one(certifier, request([("t", key)], certifier=certifier)).committed
    shard1 = certifier.shards[1]
    assert shard1._globals == [1, 3]
    assert shard1.local_horizon(0) == 0
    assert shard1.local_horizon(1) == 1
    assert shard1.local_horizon(2) == 1  # global 2 lives on shard 0
    assert shard1.local_horizon(3) == 2
    assert shard1.global_of(1) == 1
    assert shard1.global_of(2) == 3


def test_remote_writesets_are_merged_in_global_order():
    certifier = ShardedCertifier(3)
    for k in range(12):
        assert certify_one(certifier, request([("t", k)], certifier=certifier)).committed
    remote = certifier.fetch_remote_writesets(3, replica="r1")
    assert [info.commit_version for info in remote] == list(range(4, 13))


def test_extend_remote_horizons_cross_shard():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    assert certify_one(certifier, request([("t", k0)], certifier=certifier)).committed  # v1
    # v2 starts at snapshot 1, touches both shards.
    assert certify_one(certifier, request([("t", k0 + 100), ("t", k1)], start=1,
                                          certifier=certifier)).committed
    infos = certifier.fetch_remote_writesets(1)
    assert infos[0].conflict_free_back_to == 1
    extended = certifier.extend_remote_horizons(infos, 0)
    # No conflicts with v1 (different keys): both fragments extend to 0.
    assert extended[0].conflict_free_back_to == 0

    # A fragment that genuinely conflicts further back does not extend.
    assert certify_one(certifier, request([("t", k0)], start=2,
                                          certifier=certifier)).committed  # v3
    infos = certifier.fetch_remote_writesets(2)
    blocked = certifier.extend_remote_horizons(infos, 0)
    assert blocked[0].conflict_free_back_to == 2  # v1 wrote ("t", k0)


# ---------------------------------------------------------------------------- durability / GC


def test_durable_frontier_requires_all_touched_shards():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    assert certify_one(certifier, request([("t", k0), ("t", k1)], certifier=certifier)).committed
    assert certifier.durable_version == 0
    certifier.shards[0].log.mark_durable(1)
    assert certifier.advance_durable_frontier() == []
    assert not certifier.is_record_durable(1)
    certifier.shards[1].log.mark_durable(1)
    newly = certifier.advance_durable_frontier()
    assert [r.commit_version for r in newly] == [1]
    assert certifier.durable_version == 1


def test_frontier_is_contiguous_across_shards():
    certifier = ShardedCertifier(2)
    partitioner = certifier.partitioner
    k0 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 0)
    k1 = next(k for k in range(100) if partitioner.shard_of(("t", k)) == 1)
    assert certify_one(certifier, request([("t", k0)], certifier=certifier)).committed  # v1 shard0
    assert certify_one(certifier, request([("t", k1)], certifier=certifier)).committed  # v2 shard1
    certifier.shards[1].log.mark_durable(1)  # v2 durable, v1 not
    assert certifier.advance_durable_frontier() == []
    certifier.shards[0].log.mark_durable(1)
    assert [r.commit_version for r in certifier.advance_durable_frontier()] == [1, 2]


def test_gc_prunes_directory_and_shard_logs_and_aborts_conservatively():
    certifier = ShardedCertifier(2)
    for k in range(10):
        assert certify_one(certifier, request([("t", k)], origin="r0",
                                              certifier=certifier)).committed
    for shard in certifier.shards:
        shard.log.mark_durable(shard.log.last_version)
    certifier.advance_durable_frontier()
    certifier.note_replica_version("r0", 10)
    pruned = certifier.collect_garbage(headroom=2)
    assert pruned == 8
    assert certifier.pruned_version == 8
    assert sum(s.log.retained_count for s in certifier.shards) == 2
    # A below-horizon snapshot from a fresh key conservatively aborts.
    result = certify_one(certifier, request([("t", 999)], start=3, certifier=certifier))
    assert not result.committed
    assert result.conflicting_version == 8
    assert certifier.snapshot_too_old_aborts == 1
    # An unknown, never-caught-up replica below the horizon is refused.
    with pytest.raises(LogPrunedError):
        certify_one(certifier, request([("t", 1000)], replica_version=2,
                                       origin="stranger", certifier=certifier))


def test_stats_snapshot_sums_shard_contributions():
    certifier = ShardedCertifier(4)
    for k in range(20):
        assert certify_one(certifier, request([("t", k)], certifier=certifier)).committed
    snap = certifier.stats_snapshot()
    assert snap.commits == 20
    assert snap.system_version == 20
    assert snap.log_length == 20
    assert snap.log_retained_records == 20  # across all shard logs
    assert snap.intersection_tests == sum(
        shard.certifier.intersection_tests for shard in certifier.shards
    )
    assert snap.as_dict()["commits"] == 20
    assert len(certifier.per_shard_stats()) == 4
    assert isinstance(certifier.record_at(1), GlobalRecord)
