"""Tests for the transport layer: the writeset stream, its one propagation
rule (a propagation batch is one fsync group) on every certifier front end,
and the group-apply path that consumes its batches — in both stacks."""

import pytest

from repro.core.certification import CertificationRequest, RemoteWriteSetInfo
from repro.core.config import ReplicationConfig, SystemKind, WorkloadName
from repro.core.group_commit import GroupCommitStats
from repro.core.writeset import make_writeset
from repro.cluster.experiment import ExperimentConfig, build_model
from repro.cluster.nodes import SimCertifierNode
from repro.cluster.tashkent_mw import TashkentMWModel
from repro.engine.database import Database
from repro.middleware.certifier import CertifierService
from repro.middleware.replica import Replica
from repro.middleware.sharded_certifier import ShardedCertifierService
from repro.sim.kernel import Environment
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import RandomStreams
from repro.transport import WritesetStream
from repro.workloads.allupdates import AllUpdatesWorkload


def info(version, *keys, table="t"):
    return RemoteWriteSetInfo(
        commit_version=version,
        writeset=make_writeset([(table, key) for key in keys]),
        origin_replica="origin",
        conflict_free_back_to=version - 1,
    )


# ------------------------------------------------------------------- stream

def test_subscription_cursor_filters_redelivery_and_backfill():
    stream = WritesetStream()
    early = stream.subscribe("early")
    stream.offer(info(1, "a"))
    stream.offer(info(2, "b"))
    stream.flush()
    # A late joiner is backfilled with what it missed, once.
    late = stream.subscribe("late", from_version=1,
                            backfill=[info(1, "a"), info(2, "b")])
    stream.offer(info(3, "c"))
    stream.flush()
    assert [i.commit_version for b in late.poll() for i in b] == [2, 3]
    # The cursor makes polling idempotent even if versions were seen
    # out-of-band.
    early.advance_to(2)
    assert [i.commit_version for b in early.poll() for i in b] == [3]


# ------------------------------------------------------------------- the one rule

def _disjoint_requests(count):
    return [
        CertificationRequest(
            tx_start_version=0,
            writeset=make_writeset([("t", key)]),
            replica_version=0,
            origin_replica="writer",
        )
        for key in range(count)
    ]


def _functional_round(service):
    """Certify 5 disjoint requests as one round; return (fsyncs, polled)."""
    observer = service.subscribe_replica("observer")
    outcomes = service.certify_batch(_disjoint_requests(5))
    assert all(outcome.committed for outcome in outcomes)
    batches = observer.poll()
    return service.fsync_count, [[i.commit_version for i in b] for b in batches]


def _sim_clients(clients=4, certifications=10):
    env, node = make_sim_certifier(num_replicas=clients)

    def client_loop(client):
        for step in range(certifications):
            version = node.core.system_version.version
            result = yield from node.certify(CertificationRequest(
                tx_start_version=version,
                writeset=make_writeset([("t", (client, step))]),
                replica_version=version,
                origin_replica=f"replica-{client}",
            ))
            assert result.committed

    procs = [env.process(client_loop(client)) for client in range(clients)]
    for proc in procs:
        env.run_until_complete(proc)
    return node


@pytest.mark.parametrize("front_end", ["service", "sharded", "sim"])
def test_a_propagation_batch_is_one_fsync_group(front_end):
    if front_end == "service":
        fsyncs, polled = _functional_round(CertifierService())
        assert fsyncs == 1
        assert polled == [[1, 2, 3, 4, 5]]
    elif front_end == "sharded":
        service = ShardedCertifierService(ReplicationConfig(certifier_shards=2))
        fsyncs, polled = _functional_round(service)
        # One fsync per touched shard; the replica's merged view sees the
        # round as one batch.
        assert fsyncs == 2
        assert polled == [[1, 2, 3, 4, 5]]
    else:
        node = _sim_clients()
        assert node.core.last_version == 40
        flushes = node.streams[0].stats.flushes
        assert flushes == node.batch_stats.flushes == node.fsync_count
        assert flushes < 40  # concurrent clients shared fsyncs


def test_group_commit_stats_histogram_is_bounded():
    stats = GroupCommitStats()
    for size in (1, 1, 2, 3, 5, 300):
        stats.record_flush(size)
    assert stats.flushes == 6
    assert stats.largest_batch == 300
    assert stats.average_batch_size == pytest.approx(312 / 6)
    assert stats.batch_size_histogram == {1: 2, 2: 1, 4: 1, 8: 1, 512: 1}
    other = GroupCommitStats()
    other.record_flush(300)
    stats.merge(other)
    assert stats.batch_size_histogram[512] == 2
    # The per-flush state stays O(1): buckets, not an entry per flush.
    for _ in range(10_000):
        stats.record_flush(7)
    assert len(stats.batch_size_histogram) <= 64


# ------------------------------------------------------------------- group apply

def test_apply_writeset_batch_one_wal_append_per_batch(accounts_db):
    base_version = accounts_db.current_version
    appended_before = accounts_db.wal.stats.records_appended
    fsyncs_before = accounts_db.fsync_count
    writesets = [
        (base_version + i, make_writeset([("accounts", i % 10)]))
        for i in range(1, 9)
    ]
    applied = accounts_db.apply_writeset_batch(writesets)
    assert applied == 8
    assert accounts_db.current_version == base_version + 8
    assert accounts_db.wal.stats.records_appended == appended_before + 1
    assert accounts_db.fsync_count == fsyncs_before + 1
    assert accounts_db.remote_batches_applied == 1
    assert accounts_db.remote_writesets_applied == 8


def test_apply_writeset_batch_preserves_per_version_visibility(empty_db):
    empty_db.apply_writeset_batch([
        (5, make_writeset([("items", 1)])),
        (9, make_writeset([("items", 2)])),
    ])
    table = empty_db.table("items")
    assert table.exists(1, 5) and not table.exists(2, 5)
    assert table.exists(2, 9)


def test_apply_writeset_batch_aborts_conflicting_local_transactions(accounts_db):
    txn = accounts_db.begin()
    accounts_db.update(txn, "accounts", 3, balance=1)
    accounts_db.apply_writeset_batch(
        [(accounts_db.current_version + 1, make_writeset([("accounts", 3)]))]
    )
    assert txn.status.value == "aborted"
    assert txn.abort_reason == "remote-writeset-priority"


# ------------------------------------------------------------------- functional stack

def build_replica(certifier, name, system=SystemKind.TASHKENT_MW):
    db = Database(name)
    db.create_table("accounts", ["id", "balance"])
    return Replica(name, db, certifier, system=system)


def test_certifier_service_pushes_batches_to_subscribers():
    service = CertifierService()
    replica_a = build_replica(service, "replica-A")
    replica_b = build_replica(service, "replica-B")
    session = replica_a.proxy
    txn = session.begin()
    session.insert(txn, "accounts", 1, id=1, balance=10)
    assert session.commit(txn).committed
    # The writeset was propagated at durability-flush time: B's subscription
    # holds one pushed batch, no pull request was made.
    assert replica_b.proxy.subscription.pending_batches == 1
    applied = replica_b.refresh()
    assert applied == 1
    assert replica_b.database.table("accounts").exists(1, replica_b.replica_version)
    assert replica_b.stats.refreshes == 1


def test_busy_replica_subscription_stays_bounded_without_refreshing():
    """A replica that receives writesets in-band with every commit must not
    accumulate the same batches unread in its subscription queue."""
    service = CertifierService()
    replica_a = build_replica(service, "replica-A")
    replica_b = build_replica(service, "replica-B")
    for i in range(20):  # both replicas commit; neither ever refreshes
        for replica in (replica_a, replica_b):
            txn = replica.proxy.begin()
            key = f"{replica.name}-{i}"
            replica.proxy.insert(txn, "accounts", key, id=key, balance=i)
            assert replica.proxy.commit(txn).committed
    assert replica_a.proxy.subscription.pending_batches <= 1
    assert replica_b.proxy.subscription.pending_batches <= 1


def test_replica_counts_noop_refreshes_separately():
    service = CertifierService()
    replica = build_replica(service, "replica-A")
    assert replica.refresh() == 0
    assert replica.stats.refreshes == 0
    assert replica.stats.noop_refreshes == 1
    txn = replica.proxy.begin()
    replica.proxy.insert(txn, "accounts", 1, id=1, balance=1)
    replica.proxy.commit(txn)
    # Own writeset only: already applied locally, so the refresh is a no-op.
    assert replica.refresh() == 0
    assert replica.stats.noop_refreshes == 2


def test_ordered_refresh_extends_horizons_and_shares_one_flush():
    """A Tashkent-API refresh batch of conflict-free writesets must share one
    submission group (one flush), not serialize on propagation-time horizons."""
    service = CertifierService()
    replica_a = build_replica(service, "replica-A", system=SystemKind.TASHKENT_API)
    replica_b = build_replica(service, "replica-B", system=SystemKind.TASHKENT_API)
    for i in range(3):  # disjoint rows: no genuine conflicts
        txn = replica_a.proxy.begin()
        replica_a.proxy.insert(txn, "accounts", i, id=i, balance=i)
        assert replica_a.proxy.commit(txn).committed
    fsyncs_before = replica_b.database.fsync_count
    assert replica_b.refresh() == 3
    assert replica_b.database.fsync_count - fsyncs_before == 1
    assert replica_b.proxy.stats.artificial_conflicts == 0


def test_disconnect_replica_closes_stream_subscription():
    service = CertifierService()
    replica_a = build_replica(service, "replica-A")
    build_replica(service, "replica-B")
    assert len(list(service.stream.subscriptions())) == 2
    service.disconnect_replica("replica-B")
    assert len(list(service.stream.subscriptions())) == 1
    # Batches published after the disconnect are not retained for B.
    txn = replica_a.proxy.begin()
    replica_a.proxy.insert(txn, "accounts", 1, id=1, balance=1)
    replica_a.proxy.commit(txn)
    assert all(s.name != "replica-B" for s in service.stream.subscriptions())


# ------------------------------------------------------------------- simulated stack

def make_sim_certifier(num_replicas=2):
    env = Environment()
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW,
                               num_replicas=num_replicas)
    node = SimCertifierNode(env, config, RandomStreams(7))
    for i in range(num_replicas):
        node.register_replica(f"replica-{i}")
    return env, node


def test_sim_certifier_releases_the_decision_after_the_flush():
    env, node = make_sim_certifier()
    request = CertificationRequest(
        tx_start_version=0,
        writeset=make_writeset([("t", 1)]),
        replica_version=0,
        origin_replica="replica-0",
    )
    proc = env.process(node.certify(request))
    result = env.run_until_complete(proc)
    assert result.committed
    # The decision was only released after the log-writer's flush, which
    # also cut the propagation batch.
    assert node.core.durable_version == 1
    assert node.fsync_count == 1
    assert node.streams[0].stats.flushes == 1


def test_sim_propagate_delivers_batches_with_network_delay():
    env, node = make_sim_certifier()
    request = CertificationRequest(
        tx_start_version=0,
        writeset=make_writeset([("t", 1)]),
        replica_version=0,
        origin_replica="replica-0",
    )
    env.run_until_complete(env.process(node.certify(request)))
    messages_before = node.network.messages
    remote = env.run_until_complete(env.process(node.propagate("replica-1")))
    assert [i.commit_version for i in remote] == [1]
    assert node.network.messages > messages_before  # delivery crossed the LAN
    # Draining again finds nothing new (the cursor advanced).
    assert env.run_until_complete(env.process(node.propagate("replica-1"))) == []


def test_sim_propagate_skips_writesets_already_applied_in_band():
    """Writesets a replica received with a certification response must not
    cross the modeled LAN a second time on the staleness path."""
    env, node = make_sim_certifier()
    request = CertificationRequest(
        tx_start_version=0,
        writeset=make_writeset([("t", 1)]),
        replica_version=0,
        origin_replica="replica-0",
    )
    env.run_until_complete(env.process(node.certify(request)))
    bytes_before = node.network.bytes_sent
    remote = env.run_until_complete(
        env.process(node.propagate("replica-1", applied_version=1))
    )
    assert remote == []
    # Only the heartbeat-sized poll/ack pair crossed the LAN.
    assert node.network.bytes_sent - bytes_before == 32


def test_sim_staleness_refresh_updates_idle_replica():
    """An idle replica catches up purely through the transport stream."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               clients_per_replica=1, staleness_bound_ms=50.0)
    workload = AllUpdatesWorkload(num_replicas=2)
    env = Environment()
    rng = RandomStreams(3)
    metrics = MetricsCollector(warmup_ms=0.0, measure_ms=1_000.0)
    model = TashkentMWModel(env, config, workload, rng, metrics)
    replica_0, replica_1 = model.replicas
    profile = workload.next_transaction(rng, replica_index=0, client_index=0,
                                        sequence=0)
    commit = env.process(model.commit_update(replica_0, profile, 0))
    env.run_until_complete(commit)
    assert replica_0.replica_version == 1
    assert replica_1.replica_version == 0  # not yet delivered
    env.run_until(200.0)  # a few staleness periods
    assert replica_1.replica_version == 1
    # The refresh also fed the log-GC low-water mark for the idle replica.
    assert model.certifier_node.core.low_water_mark() == 1


def test_experiment_still_runs_end_to_end():
    config = ExperimentConfig(system=SystemKind.TASHKENT_MW,
                              workload=WorkloadName.ALL_UPDATES,
                              num_replicas=2, warmup_ms=100.0, measure_ms=300.0)
    model, metrics, env = build_model(config)
    model.start_clients(metrics.window_end_ms)
    env.run_until(metrics.window_end_ms)
    assert not env.failed_processes
    assert metrics.goodput_tps() > 0
