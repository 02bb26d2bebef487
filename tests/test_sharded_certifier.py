"""Tests for the sharded certifier front-ends in both stacks.

Covers the functional :class:`ShardedCertifierService` (per-shard fsync
pipelines, merged propagation, disconnect hygiene), the transport-layer
:class:`MergedSubscription` (deterministic version-ordered merge, held-gap
release, out-of-band advances) and the simulated
:class:`SimCertifierNode` (per-shard log devices, release once all touched
shards flushed, full-cluster runs on every system kind).
"""

import time

import pytest

from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.core.certification import CertificationRequest, RemoteWriteSetInfo
from repro.core.config import ReplicationConfig, SystemKind, WorkloadName
from repro.core.writeset import make_writeset
from repro.engine.log_device import CountingLogDevice, ship
from repro.errors import ConfigurationError
from repro.middleware.certifier import GC_INTERVAL_REQUESTS, CertifierService
from repro.middleware.sharded_certifier import (
    ShardedCertifierService,
    make_certifier_service,
)
from repro.middleware.systems import build_replicated_system
from repro.transport import MergedSubscription, WritesetStream

from faults import SplitPhaseDevice


def request(service, entries, *, start=None, origin="r0"):
    current = service.system_version
    return CertificationRequest(
        tx_start_version=current if start is None else start,
        writeset=make_writeset(entries),
        replica_version=current,
        origin_replica=origin,
    )


def shard_key(partitioner, shard_id, table="t"):
    return next(k for k in range(10_000)
                if partitioner.shard_of((table, k)) == shard_id)


# ---------------------------------------------------------------------------- factory


def test_make_certifier_service_picks_implementation():
    assert isinstance(make_certifier_service(ReplicationConfig()), CertifierService)
    assert isinstance(make_certifier_service(ReplicationConfig(certifier_shards=1)), CertifierService)
    sharded = make_certifier_service(ReplicationConfig(certifier_shards=3))
    assert isinstance(sharded, ShardedCertifierService)
    with pytest.raises(ConfigurationError):
        CertifierService(ReplicationConfig(certifier_shards=2))


# ---------------------------------------------------------------------------- functional service


def test_single_shard_commit_costs_one_shard_fsync():
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=4))
    key = shard_key(service.core.partitioner, 2)
    result = service.certify(request(service, [("t", key)]))
    assert result.committed
    assert [d.sync_count for d in service.devices] == [0, 0, 1, 0]
    assert service.core.durable_version == 1


def test_cross_shard_commit_is_durable_on_every_touched_shard():
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=2))
    k0 = shard_key(service.core.partitioner, 0)
    k1 = shard_key(service.core.partitioner, 1)
    result = service.certify(request(service, [("t", k0), ("t", k1)]))
    assert result.committed
    assert [d.sync_count for d in service.devices] == [1, 1]
    assert service.core.is_record_durable(result.tx_commit_version)
    assert service.fsync_count == 2
    assert service.writesets_per_fsync == 1.0


def test_subscriber_sees_version_ordered_merged_stream():
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=3))
    subscription = service.subscribe_replica("replica-A", 0)
    for k in range(25):
        assert service.certify(request(service, [("t", k)])).committed
    delivered = subscription.poll_flat()
    assert [info.commit_version for info in delivered] == list(range(1, 26))
    # Late joiner backfills the full history through the merged view.
    late = service.subscribe_replica("replica-B", 10)
    assert [i.commit_version for i in late.poll_flat()] == list(range(11, 26))


def test_disconnect_closes_every_shard_subscription():
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=3))
    service.subscribe_replica("replica-A", 0)
    assert sum(len(list(s.subscriptions())) for s in service.streams) == 3
    service.disconnect_replica("replica-A")
    assert sum(len(list(s.subscriptions())) for s in service.streams) == 0
    assert service.core.low_water_mark() is None


def test_sharded_gc_runs_on_the_request_interval():
    service = ShardedCertifierService(ReplicationConfig(
        certifier_shards=2, certifier_gc_headroom=2))
    service.register_replica("r0", 0)
    for k in range(GC_INTERVAL_REQUESTS):
        result = service.certify(request(service, [("t", k)]))
        assert result.committed
    assert service.core.pruned_version > 0
    assert service.stats()["gc_runs"] >= 1


def test_stats_dict_matches_single_service_shape():
    single = CertifierService()
    sharded = ShardedCertifierService(ReplicationConfig(certifier_shards=2))
    assert set(sharded.stats()) == set(single.stats())
    assert sharded.stats()["shards"] == 2.0
    assert single.stats()["shards"] == 1.0


def test_non_durable_sharded_service_propagates_before_flush():
    service = ShardedCertifierService(ReplicationConfig(
        certifier_shards=2, system=SystemKind.TASHKENT_API_NO_CERT))
    subscription = service.subscribe_replica("replica-A", 0)
    assert service.certify(request(service, [("t", 1)])).committed
    assert service.fsync_count == 0
    assert [i.commit_version for i in subscription.poll_flat()] == [1]


# ---------------------------------------------------------------------------- streaming durability


def test_cross_shard_flush_overlaps_the_shard_syncs():
    devices = [SplitPhaseDevice(0.05), SplitPhaseDevice(0.05)]
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=2), log_devices=devices)
    keys = [shard_key(service.core.partitioner, shard) for shard in (0, 1)]
    started = time.perf_counter()
    result = service.certify(request(service, [("t", keys[0]), ("t", keys[1])]))
    elapsed = time.perf_counter() - started
    assert result.committed
    assert [d.sync_count for d in devices] == [1, 1]
    assert elapsed < 0.08, f"two 50 ms syncs took {elapsed * 1e3:.1f} ms: not overlapped"
    (begin0, end0), (begin1, end1) = devices[0].waits[0], devices[1].waits[0]
    assert max(begin0, begin1) < min(end0, end1), "wait intervals do not overlap"
    assert service.core.durable_version == 1


def test_flush_never_syncs_an_untouched_shard():
    devices = [SplitPhaseDevice(0.0) for _ in range(3)]
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=3), log_devices=devices)
    keys = [shard_key(service.core.partitioner, shard) for shard in (0, 2)]
    outcomes = service.certify_batch([
        request(service, [("t", keys[0])]), request(service, [("t", keys[1])])])
    assert all(outcome.committed for outcome in outcomes)
    assert [d.sync_count for d in devices] == [1, 0, 1]
    assert devices[1].journal == [] and devices[1].durable_payloads == []
    assert service.flush() == 0  # nothing pending: no device is touched at all
    assert [d.sync_count for d in devices] == [1, 0, 1]


def test_ship_syncs_a_plain_device_and_streams_to_a_shipping_one():
    plain, streaming = CountingLogDevice(), SplitPhaseDevice(manual=True)
    done: list[str] = []
    for name, device in (("plain", plain), ("streaming", streaming)):
        device.append(b"x")
        ship(device, lambda name=name: done.append(name))
    # The plain device synced inside ship(); the streaming one only sent.
    assert done == ["plain"] and plain.sync_count == 1
    assert streaming.sync_count == 0 and streaming.durable_payloads == []
    streaming.ack()
    assert done == ["plain", "streaming"] and streaming.durable_payloads == [b"x"]


def test_admit_never_waits_and_several_batches_ride_one_shard():
    device = SplitPhaseDevice(manual=True)
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=1), log_devices=[device])
    subscription = service.subscribe_replica("replica-A", 0)
    frontiers: list[int] = []
    service.on_frontier = frontiers.append
    for k in range(3):  # three rounds admitted back to back, none acknowledged
        (outcome,) = service.admit_batch([request(service, [("t", k)])])
        assert outcome.committed and outcome.tx_commit_version == k + 1
    assert len(device.in_flight) == 3 and service.core.durable_version == 0
    assert frontiers == [] and subscription.poll_flat() == []
    device.ack(2)
    assert frontiers == [1, 2] and service.core.durable_version == 2
    assert [i.commit_version for i in subscription.poll_flat()] == [1, 2]
    device.ack()
    assert service.core.durable_version == 3
    assert service.stats()["writesets_per_fsync"] == 1.0


def test_frontier_waits_for_the_slower_shard_of_an_earlier_version():
    # Shard A acknowledges v2 before shard B acknowledges v1: nothing may be
    # released (v2's remote window can name v1) until B's write lands.
    devices = [SplitPhaseDevice(manual=True, name="A"),
               SplitPhaseDevice(manual=True, name="B")]
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=2), log_devices=devices)
    subscription = service.subscribe_replica("replica-A", 0)
    frontiers: list[int] = []
    service.on_frontier = frontiers.append
    key_a, key_b = (shard_key(service.core.partitioner, shard) for shard in (0, 1))
    outcomes = service.admit_batch([request(service, [("t", key_b)]),
                                    request(service, [("t", key_a)])])
    assert [o.tx_commit_version for o in outcomes] == [1, 2]
    devices[0].ack()  # A: v2 durable on its only shard
    assert frontiers == [0] and service.core.durable_version == 0
    assert service.core.is_record_durable(2) and subscription.poll_flat() == []
    devices[1].ack()  # B: v1 lands, the frontier jumps over both
    assert frontiers == [0, 2]
    assert [i.commit_version for i in subscription.poll_flat()] == [1, 2]


def test_failed_ship_leaves_the_round_taken_and_unreleased():
    devices = [SplitPhaseDevice(0.0), SplitPhaseDevice(0.0, error=RuntimeError("disk full"))]
    service = ShardedCertifierService(ReplicationConfig(certifier_shards=2), log_devices=devices)
    subscription = service.subscribe_replica("replica-A", 0)
    keys = [shard_key(service.core.partitioner, shard) for shard in (0, 1)]
    with pytest.raises(RuntimeError):
        service.certify(request(service, [("t", keys[0]), ("t", keys[1])]))
    # Nothing of the round is released: not durable, not propagated, and the
    # failing shard's batch is taken — a later flush does not resurrect it.
    assert service.core.durable_version == 0
    assert subscription.poll_flat() == []
    assert service._unshipped == [[], []]


# ---------------------------------------------------------------------------- merged subscription


def _info(version, key=0):
    return RemoteWriteSetInfo(
        commit_version=version,
        writeset=make_writeset([("t", key)]),
        origin_replica="origin",
        conflict_free_back_to=0,
    )


def test_merged_subscription_holds_gaps_until_the_owing_shard_delivers():
    streams = [WritesetStream(), WritesetStream()]
    merged = MergedSubscription(
        [stream.subscribe("r") for stream in streams], name="r")
    # Shard 1 delivers versions 2,3 before shard 0 has flushed version 1.
    streams[1].offer(_info(2))
    streams[1].offer(_info(3))
    streams[1].flush()
    assert merged.poll() == []
    assert merged.held_count == 2
    assert merged.pending_writesets == 2
    streams[0].offer(_info(1))
    streams[0].flush()
    released = merged.poll()
    assert [i.commit_version for batch in released for i in batch] == [1, 2, 3]
    assert merged.held_count == 0
    assert merged.version == 3


def test_merged_subscription_advance_to_drops_held_and_trims_parts():
    streams = [WritesetStream(), WritesetStream()]
    merged = MergedSubscription([s.subscribe("r") for s in streams], name="r")
    streams[1].offer(_info(3))
    streams[1].flush()
    merged.advance_to(4)  # versions 1-4 arrived in-band with commits
    assert merged.poll() == []
    assert merged.held_count == 0
    streams[0].offer(_info(5))
    streams[0].flush()
    assert [i.commit_version for i in merged.poll_flat()] == [5]


def test_merged_subscription_backfill_counts_as_held_until_polled():
    stream = WritesetStream()
    merged = MergedSubscription([stream.subscribe("r")], from_version=2,
                                backfill=[_info(2), _info(3), _info(4)])
    assert merged.pending_writesets == 2  # version 2 is below the cursor
    assert [i.commit_version for i in merged.poll_flat()] == [3, 4]


# ---------------------------------------------------------------------------- simulated cluster


def _sim(system, shards, *, replicas=2, measure_ms=500, **overrides):
    return run_experiment(ExperimentConfig(
        system=system,
        workload=WorkloadName.ALL_UPDATES,
        num_replicas=replicas,
        certifier_shards=shards,
        warmup_ms=200.0,
        measure_ms=measure_ms,
        **overrides,
    ))


@pytest.mark.parametrize("system", [
    SystemKind.TASHKENT_MW,
    SystemKind.BASE,
    SystemKind.TASHKENT_API,
    SystemKind.TASHKENT_API_NO_CERT,
])
def test_sim_sharded_certifier_runs_every_system_kind(system):
    result = _sim(system, shards=3)
    assert result.throughput_tps > 0
    assert result.utilization["certifier_shards"] == 3.0
    assert result.utilization["certifier_fsyncs"] >= (
        0 if system is SystemKind.TASHKENT_API_NO_CERT else 1
    )


def test_sim_sharded_run_is_deterministic():
    first = _sim(SystemKind.TASHKENT_MW, shards=4)
    second = _sim(SystemKind.TASHKENT_MW, shards=4)
    assert first.throughput_tps == second.throughput_tps
    assert first.utilization["certifier_commits"] == second.utilization["certifier_commits"]


def test_sim_bounded_flush_batch_caps_the_fsync_group():
    result = _sim(SystemKind.TASHKENT_MW, shards=1, certifier_max_flush_batch=2,
                  replicas=4)
    per_fsync = result.utilization["certifier_writesets_per_fsync"]
    assert 0 < per_fsync <= 2.0


def test_sim_sharded_node_merges_in_version_order():
    """Drive the sharded node directly and check the replica-side stream."""
    from repro.cluster.nodes import SimCertifierNode
    from repro.sim.kernel import Environment
    from repro.sim.rng import RandomStreams

    env = Environment()
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1,
                               certifier_shards=3)
    node = SimCertifierNode(env, config, RandomStreams(1))
    node.register_replica("replica-0")
    results = []

    def one_client(index):
        for round_number in range(10):
            request = CertificationRequest(
                tx_start_version=node.core.system_version.version,
                writeset=make_writeset([("t", index * 1000 + round_number)]),
                replica_version=node.core.system_version.version,
                origin_replica="replica-0",
            )
            result = yield from node.certify(request)
            results.append(result)

    for index in range(4):
        env.process(one_client(index), name=f"client-{index}")
    env.run_until(10_000)
    assert not env.failed_processes
    assert sum(1 for r in results if r.committed) == 40

    subscription = node.subscription("replica-0")
    delivered = subscription.poll_flat()
    assert [i.commit_version for i in delivered] == list(range(1, 41))


def test_sim_replica_registered_mid_flush_sees_nothing_above_the_frontier():
    """A replica that subscribes while a commit is admitted but its log
    write is still in flight must not be backfilled with it: the writeset
    reaches the subscription through its stream, once durable."""
    from repro.cluster.nodes import SimCertifierNode
    from repro.sim.kernel import Environment
    from repro.sim.rng import RandomStreams

    env = Environment()
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=2)
    node = SimCertifierNode(env, config, RandomStreams(1))
    request = CertificationRequest(
        tx_start_version=0, writeset=make_writeset([("t", 1)]),
        replica_version=0, origin_replica="replica-0")
    commit = env.process(node.certify(request))
    while node.core.last_version == 0:
        env.run_until(env.peek())
    assert node.core.propagated_version == 0 and node.fsync_count == 0
    node.register_replica("late-joiner")
    late = node.subscription("late-joiner")
    assert late.poll_flat() == [] and late.held_count == 0
    assert env.run_until_complete(commit).committed
    assert node.core.propagated_version == 1
    assert [info.commit_version for info in late.poll_flat()] == [1]
    assert late.poll_flat() == []


def test_functional_sharded_system_replicas_stay_consistent():
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=3,
                               certifier_shards=4)
    system = build_replicated_system(config)
    system.create_table("acct", ["id", "bal"])
    sessions = [system.session(i, client_name=f"c{i}") for i in range(3)]
    for i in range(9):
        session = sessions[i % 3]
        session.begin()
        session.insert("acct", i, id=i, bal=i)
        assert session.commit().committed
    assert system.replicas_consistent()
    assert system.certifier.stats()["shards"] == 4.0
    assert system.total_fsyncs()["certifier"] == system.certifier.fsync_count
