"""kill -9 crash schedules against real node processes, oracle-checked.

Each test arms a deterministic *wedge* (the node freezes at an exact
protocol point), drives the workload until a commit hangs there, lands a
real SIGKILL, restarts the node via the harness on its original port, and
resolves the in-doubt commit through the exactly-once protocol.  The final
state must equal a fault-free functional run of the same logical
transaction sequence — proving recovery converged AND every transaction
took effect exactly once.

The four schedules map the in-process crash points of ``tests/faults.py``
onto processes:

==============================  ============================================
schedule                        crash point analogue
==============================  ============================================
shard killed while idle         pre-flush (nothing durable; batch resent)
shard wedge-after-sync + kill   mid-flush (durable, unacknowledged; the
                                resend must be deduplicated by batch seq)
replica wedge-before-commit     pre-certify (nothing admitted; the client
+ kill                          re-executes, exactly once)
replica wedge-after-commit      post-flush (admitted + durable + applied;
+ kill                          only the ack was lost — the client must NOT
                                re-execute)
==============================  ============================================

Two more run the shard schedules at ``certifier_shards=2`` with cross-shard
transactions, where the fault lands on ONE shard of a round while the other
acknowledges it.  Three exercise the durability *stream*: a shard killed
before / after the fsync of group N with further shipped batches queued
behind it, and the primary scheduler killed with groups in flight on both
shards.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import ReplicationConfig, SystemKind
from repro.core.sharding import HashPartitioner
from repro.live.client import CommitInDoubt
from repro.live.cluster import LiveCluster
from repro.live.wal import read_wal_batches
from repro.middleware.systems import build_replicated_system
from repro.sim.rng import RandomStreams
from repro.workloads import workload_by_name

pytestmark = pytest.mark.live

SEED = 11
TRANSACTIONS = 8
#: Short per-attempt socket timeout so a wedged node turns into
#: ``CommitInDoubt`` quickly; the kill is delivered afterwards, which is
#: fine — a wedged node is frozen at its crash point until then.
CLIENT_TIMEOUT_S = 3.0

CONFIG = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                           certifier_shards=1, rng_seed=SEED)


def make_workload():
    return workload_by_name("allupdates", num_replicas=2)


def functional_oracle(config: ReplicationConfig = CONFIG):
    """Fault-free oracle: the same TRANSACTIONS sequence, no crashes."""
    workload = make_workload()
    system = build_replicated_system(config)
    system.create_tables_from_schemas(workload.schemas())
    system.load_initial_data(workload.setup)
    sessions = system.sessions_round_robin(len(system.replicas))
    rng = RandomStreams(SEED)
    for sequence in range(TRANSACTIONS):
        index = sequence % len(sessions)
        assert workload.run_transaction(sessions[index], rng,
                                        client_index=index, sequence=sequence)
    system.refresh_all()
    return {
        replica.name: replica.database.table("counters").snapshot_state(
            replica.database.current_version)
        for replica in system.replicas
    }


def assert_matches_oracle(cluster: LiveCluster) -> None:
    """Final counters on every live replica == the fault-free oracle's."""
    cluster.refresh_all()
    oracle = functional_oracle(cluster.config)
    for name in cluster.replicas:
        assert cluster.dump_table(name, "counters") == oracle[name], (
            f"replica {name} diverged from the fault-free oracle"
        )


def assert_exactly_once(cluster: LiveCluster, *, admits: int) -> None:
    """Every admitted transaction appears once in the tx table and the WAL."""
    stats = cluster.scheduler_stats()
    assert stats["tx_admits"] == admits, stats
    # The WAL holds each batch seq exactly once, strictly increasing — a
    # duplicate admit would show up as a repeated or out-of-order seq.
    batches = read_wal_batches(cluster.harness.run_dir / "shard-0.wal")
    seqs = [batch["seq"] for batch in batches]
    assert seqs == sorted(set(seqs)), f"duplicate/reordered WAL batches: {seqs}"


def run_sequence(cluster, workload, sessions, rng, sequences):
    for sequence in sequences:
        index = sequence % len(sessions)
        assert workload.run_transaction(sessions[index], rng,
                                        client_index=index, sequence=sequence)


def boot(tmp_path, config: ReplicationConfig = CONFIG,
         **cluster_kwargs) -> tuple[LiveCluster, object, list, RandomStreams]:
    workload = make_workload()
    cluster = LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                          keep_dir=True, **cluster_kwargs)
    cluster.__enter__()
    cluster.load_initial_data(workload)
    sessions = [cluster.session(name, attempt_timeout_s=CLIENT_TIMEOUT_S)
                for name in cluster.replicas]
    return cluster, workload, sessions, RandomStreams(SEED)


def test_shard_sigkill_between_transactions_stalls_then_recovers(tmp_path):
    """Kill the only certifier shard while idle: the next commit stalls in
    the scheduler's resend loop, and completes once the shard is restarted —
    commit durability really is gated on the shard process."""
    cluster, workload, sessions, rng = boot(tmp_path)
    try:
        run_sequence(cluster, workload, sessions, rng, range(3))
        cluster.kill_shard(0)

        # Transaction 3 wedges inside certify (its WAL flush can't complete).
        with pytest.raises(CommitInDoubt) as caught:
            workload.run_transaction(sessions[3 % 2], rng,
                                     client_index=3 % 2, sequence=3)
        cluster.restart_shard(0)

        # The stalled certification drains through the restarted shard; the
        # tx table then knows the verdict.  The executing replica is alive,
        # so "unknown" would only mean "still in flight" — wait it out.
        outcome = sessions[3 % 2].resolve_commit(caught.value.tx_id,
                                                 wait_known_s=20.0)
        assert outcome is not None and outcome.committed
        sessions[3 % 2].reconnect()

        run_sequence(cluster, workload, sessions, rng, range(4, TRANSACTIONS))
        assert_matches_oracle(cluster)
        assert_exactly_once(cluster, admits=TRANSACTIONS + 1)  # +1 loader
    finally:
        cluster.__exit__(None, None, None)


def test_shard_sigkill_mid_flush_resend_is_deduplicated(tmp_path):
    """Wedge the shard right AFTER its fsync (ack lost), then kill it: the
    batch is durable, the scheduler resends it, and the restarted shard must
    acknowledge without re-appending — seq-based idempotence."""
    # Appends so far: loader=1, txns 0..2 = 3 → the 5th wal_append (txn 3)
    # fsyncs and then freezes before acknowledging.
    cluster, workload, sessions, rng = boot(
        tmp_path, shard_args={0: ["--wedge-after-sync", "5"]})
    try:
        run_sequence(cluster, workload, sessions, rng, range(3))
        with pytest.raises(CommitInDoubt) as caught:
            workload.run_transaction(sessions[3 % 2], rng,
                                     client_index=3 % 2, sequence=3)
        cluster.kill_shard(0)
        cluster.restart_shard(0, drop_args=("--wedge-after-sync",))

        outcome = sessions[3 % 2].resolve_commit(caught.value.tx_id,
                                                 wait_known_s=20.0)
        assert outcome is not None and outcome.committed
        sessions[3 % 2].reconnect()

        run_sequence(cluster, workload, sessions, rng, range(4, TRANSACTIONS))
        # The durable-but-unacknowledged batch was resent and skipped.
        assert cluster.shard_wal_stats(0)["duplicate_batches_skipped"] >= 1
        assert cluster.scheduler_stats()["wal_resent_batches"] >= 1
        assert_matches_oracle(cluster)
        assert_exactly_once(cluster, admits=TRANSACTIONS + 1)
    finally:
        cluster.__exit__(None, None, None)


def test_replica_sigkill_before_certification_client_reexecutes(tmp_path):
    """Wedge replica-1 BEFORE executing a commit, kill it: nothing was
    admitted, the status query says unknown, and the client re-executes the
    transaction — exactly once ends at one admit."""
    # Commit ops on replica-1: txns 1, 3, 5, 7 → wedge its 2nd commit (txn 3).
    cluster, workload, sessions, rng = boot(
        tmp_path, replica_args={"replica-1": ["--wedge-before-commit-op", "2"]})
    try:
        run_sequence(cluster, workload, sessions, rng, range(3))
        with pytest.raises(CommitInDoubt) as caught:
            workload.run_transaction(sessions[1], rng,
                                     client_index=1, sequence=3)
        cluster.kill_replica("replica-1")
        cluster.restart_replica("replica-1",
                                drop_args=("--wedge-before-commit-op",))
        # The reborn replica starts from an empty engine and resubscribes
        # from version 0; one refresh replays the full backfill (setup data
        # included) before it serves transactions again.
        cluster.refresh_all()
        sessions[1].reconnect()

        # The executing replica died before certifying: the scheduler never
        # saw the transaction, so re-executing is the exactly-once move.
        assert sessions[1].resolve_commit(caught.value.tx_id,
                                          wait_known_s=2.0) is None
        assert workload.run_transaction(sessions[1], rng_replay(rng, 3),
                                        client_index=1, sequence=3)

        run_sequence(cluster, workload, sessions, rng, range(4, TRANSACTIONS))
        stats = cluster.scheduler_stats()
        assert stats["status_queries"] >= 1
        assert_matches_oracle(cluster)
        assert_exactly_once(cluster, admits=TRANSACTIONS + 1)
    finally:
        cluster.__exit__(None, None, None)


def test_replica_sigkill_after_commit_ack_lost_client_must_not_reexecute(tmp_path):
    """Wedge replica-1 AFTER fully executing a commit (admitted, durable,
    propagated — only the client ack lost), kill it: the status query says
    committed and the client records the outcome WITHOUT re-executing."""
    cluster, workload, sessions, rng = boot(
        tmp_path, replica_args={"replica-1": ["--wedge-after-commit-op", "2"]})
    try:
        run_sequence(cluster, workload, sessions, rng, range(3))
        with pytest.raises(CommitInDoubt) as caught:
            workload.run_transaction(sessions[1], rng,
                                     client_index=1, sequence=3)
        cluster.kill_replica("replica-1")
        cluster.restart_replica("replica-1",
                                drop_args=("--wedge-after-commit-op",))
        cluster.refresh_all()  # replay the backfill into the fresh engine
        sessions[1].reconnect()

        outcome = sessions[1].resolve_commit(caught.value.tx_id,
                                             wait_known_s=2.0)
        assert outcome is not None and outcome.committed
        # NOT re-executed: txn 3's increment must appear exactly once, which
        # the oracle comparison below proves (a double increment would
        # diverge on its counter row).

        run_sequence(cluster, workload, sessions, rng, range(4, TRANSACTIONS))
        stats = cluster.scheduler_stats()
        assert stats["duplicate_tx_hits"] == 0  # status path, never re-certify
        assert_matches_oracle(cluster)
        assert_exactly_once(cluster, admits=TRANSACTIONS + 1)
    finally:
        cluster.__exit__(None, None, None)


def test_shard_sigkill_mid_batch_both_grouped_commits_resolve(tmp_path):
    """Two concurrent commits share ONE grouped WAL batch; the shard fsyncs
    that batch and freezes before acknowledging; kill -9 + restart: the
    scheduler's resend is deduplicated by seq and BOTH transactions resolve
    committed — group certification does not weaken exactly-once."""
    import threading

    # A wide batch window forces the two in-flight certifies into the same
    # round (one wal_append), rather than relying on scheduling luck.
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=1, rng_seed=SEED,
                               live_certify_batch_window_ms=150.0)
    workload = make_workload()
    # Appends: loader=1 → the grouped round is wal_append #2; it fsyncs,
    # then the shard freezes before acknowledging.
    cluster = LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                          keep_dir=True,
                          shard_args={0: ["--wedge-after-sync", "2"]})
    cluster.__enter__()
    try:
        cluster.load_initial_data(workload)
        sessions = [cluster.session(name, attempt_timeout_s=CLIENT_TIMEOUT_S)
                    for name in cluster.replicas]
        rng = RandomStreams(SEED)

        caught: list[CommitInDoubt | None] = [None, None]
        barrier = threading.Barrier(2)

        def commit_one(index: int) -> None:
            barrier.wait()
            try:
                workload.run_transaction(sessions[index], rng,
                                         client_index=index, sequence=index)
            except CommitInDoubt as exc:
                caught[index] = exc

        threads = [threading.Thread(target=commit_one, args=(index,))
                   for index in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(caught), f"both commits must wedge in doubt, got {caught}"

        cluster.kill_shard(0)
        cluster.restart_shard(0, drop_args=("--wedge-after-sync",))

        for index in (0, 1):
            outcome = sessions[index].resolve_commit(caught[index].tx_id,
                                                     wait_known_s=20.0)
            assert outcome is not None and outcome.committed, (index, outcome)
            sessions[index].reconnect()

        # The grouped round landed as ONE batch holding both records, was
        # durable before the kill, and the resend was skipped by seq.
        batches = read_wal_batches(cluster.harness.run_dir / "shard-0.wal")
        assert any(len(batch["payloads"]) >= 2 for batch in batches), (
            f"no grouped batch in the WAL: {[len(b['payloads']) for b in batches]}"
        )
        assert cluster.shard_wal_stats(0)["duplicate_batches_skipped"] >= 1
        assert cluster.scheduler_stats()["wal_resent_batches"] >= 1
        assert_exactly_once(cluster, admits=3)  # loader + the two commits

        # Both increments took effect exactly once (initial value is 0).
        cluster.refresh_all()
        probe = cluster.session("replica-0", attempt_timeout_s=CLIENT_TIMEOUT_S)
        probe.begin()
        for index, key in ((0, "r0-c0-0"), (1, "r1-c1-1")):
            row = probe.read("counters", key)
            assert row is not None and int(row["value"]) == 1, (key, row)
            assert row["note"] == f"seq-{index}"
        probe.abort()
        probe.close()
    finally:
        cluster.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# two certifier shards: one shard fails inside a scatter-gather round
# ---------------------------------------------------------------------------

TWO_SHARD_CONFIG = ReplicationConfig(system=SystemKind.TASHKENT_MW,
                                     num_replicas=2, certifier_shards=2,
                                     rng_seed=SEED)


def cross_shard_pairs() -> list[tuple[str, str]]:
    """Per client, one counter row on each certifier shard (rows private to
    the client's replica, so the two clients never conflict)."""
    partitioner = HashPartitioner(2)
    pairs = []
    for replica in range(2):
        keys = [f"r{replica}-c{client}-{slot}"
                for client in range(10) for slot in range(4)]
        pairs.append(tuple(
            next(k for k in keys if partitioner.shard_of(("counters", k)) == shard)
            for shard in (0, 1)))
    return pairs


def run_cross_shard(session, client_index: int, sequence: int) -> bool:
    """One transaction whose writeset has a fragment on both shards, so its
    certification round appends to — and waits for — both shard WALs."""
    session.begin()
    for key in cross_shard_pairs()[client_index]:
        row = session.read("counters", key)
        session.update("counters", key, value=int(row["value"]) + 1,
                       note=f"seq-{sequence}")
    return session.commit().committed


def cross_shard_oracle() -> dict:
    """Fault-free functional run of the same TRANSACTIONS cross-shard sequence."""
    workload = make_workload()
    system = build_replicated_system(TWO_SHARD_CONFIG)
    system.create_tables_from_schemas(workload.schemas())
    system.load_initial_data(workload.setup)
    sessions = system.sessions_round_robin(len(system.replicas))
    for sequence in range(TRANSACTIONS):
        assert run_cross_shard(sessions[sequence % 2], sequence % 2, sequence)
    system.refresh_all()
    return {
        replica.name: replica.database.table("counters").snapshot_state(
            replica.database.current_version)
        for replica in system.replicas
    }


def shard_wal_seqs(cluster: LiveCluster, shard_id: int) -> list[int]:
    path = cluster.harness.run_dir / f"shard-{shard_id}.wal"
    return [batch["seq"] for batch in read_wal_batches(path)]


@pytest.mark.parametrize("wedged_shard, wedge_flag", [
    # Shard 1 freezes BEFORE writing the round (nothing durable there) while
    # shard 0 acknowledges its half of the same round.
    (1, "--wedge-before-sync"),
    # Mirror: shard 0 fsyncs the round and freezes before acknowledging
    # (durable on one shard, unacknowledged) while shard 1 acknowledges.
    (0, "--wedge-after-sync"),
])
def test_one_shard_sigkill_inside_a_two_shard_round(tmp_path, wedged_shard, wedge_flag):
    """A cross-shard round is in flight on both shard WALs when one shard
    wedges and is killed.  The scatter-gather flush must collect the healthy
    shard's acknowledgement, resend the dead shard's batch under its old seq
    after the restart, release the round exactly once — and leave both WAL
    connections in step, so the NEXT round is not answered by a stale reply.
    """
    healthy = 1 - wedged_shard
    # Appends per shard: loader=1 (touches every row, so both shards), txns
    # 0..2 = 3 → the 5th wal_append on each shard is txn 3's round.
    workload = make_workload()
    cluster = LiveCluster(TWO_SHARD_CONFIG, workload.schemas(), run_dir=tmp_path,
                          keep_dir=True,
                          shard_args={wedged_shard: [wedge_flag, "5"]})
    cluster.__enter__()
    try:
        cluster.load_initial_data(workload)
        sessions = [cluster.session(name, attempt_timeout_s=CLIENT_TIMEOUT_S)
                    for name in cluster.replicas]
        for sequence in range(3):
            assert run_cross_shard(sessions[sequence % 2], sequence % 2, sequence)
        with pytest.raises(CommitInDoubt) as caught:
            run_cross_shard(sessions[1], 1, 3)

        # The healthy shard wrote and acknowledged its half of the round; the
        # wedged one holds it iff the wedge came after its fsync.
        assert shard_wal_seqs(cluster, healthy) == [1, 2, 3, 4, 5]
        durable_on_wedged = wedge_flag == "--wedge-after-sync"
        assert shard_wal_seqs(cluster, wedged_shard) == (
            [1, 2, 3, 4, 5] if durable_on_wedged else [1, 2, 3, 4])

        cluster.kill_shard(wedged_shard)
        cluster.restart_shard(wedged_shard, drop_args=(wedge_flag,))
        outcome = sessions[1].resolve_commit(caught.value.tx_id, wait_known_s=20.0)
        assert outcome is not None and outcome.committed
        sessions[1].reconnect()

        # The next rounds use both connections again: a stale reply left on
        # either would desynchronise them here.
        for sequence in range(4, TRANSACTIONS):
            assert run_cross_shard(sessions[sequence % 2], sequence % 2, sequence)

        stats = cluster.scheduler_stats()
        assert stats["tx_admits"] == TRANSACTIONS + 1, stats  # +1 loader
        assert stats["wal_resent_batches"] >= 1
        # Every round exactly once on BOTH shard WALs, seqs gapless.
        for shard_id in (0, 1):
            assert shard_wal_seqs(cluster, shard_id) == list(
                range(1, TRANSACTIONS + 2)), f"shard {shard_id}"
        skipped = cluster.shard_wal_stats(wedged_shard)["duplicate_batches_skipped"]
        assert skipped == (1 if durable_on_wedged else 0)
        assert cluster.shard_wal_stats(healthy)["duplicate_batches_skipped"] == 0
        # One acknowledged sync per device per round, resend or not.
        assert [c["calls"] for c in stats["wal_clients"]] == [TRANSACTIONS + 1] * 2

        cluster.refresh_all()
        oracle = cross_shard_oracle()
        for name in cluster.replicas:
            assert cluster.dump_table(name, "counters") == oracle[name], (
                f"replica {name} diverged from the fault-free oracle")
    finally:
        cluster.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# scheduler failover (primary/standby pair, PR 10)
# ---------------------------------------------------------------------------

#: Same logical cluster as CONFIG plus the standby scheduler: shard WAL
#: payloads become full round entries a promoted standby rebuilds from.
FAILOVER_CONFIG = ReplicationConfig(system=SystemKind.TASHKENT_MW,
                                    num_replicas=2, certifier_shards=1,
                                    rng_seed=SEED,
                                    live_scheduler_standby=True)


def test_scheduler_sigkill_after_durable_round_standby_answers_retry(tmp_path):
    """Kill -9 the primary scheduler right AFTER a certification round's
    durable flush (admitted + on the shard WAL, ack never sent).  The
    promoted standby rebuilds decisions, versions and the exactly-once
    table from the shard WAL entries; the client's in-doubt commit resolves
    committed on the standby and is never re-executed."""
    # Rounds: loader=1, txns 0..2 = 3 → txn 3 is round 5; it flushes
    # durably, then the scheduler freezes before any ack leaves.
    cluster, workload, sessions, rng = boot(
        tmp_path, config=FAILOVER_CONFIG,
        scheduler_args=["--wedge-after-certify-round", "5"])
    try:
        status = cluster.standby_status()
        assert status["standby"] and not status["promoted"], status
        assert status["seeded"], "standby should warm-boot from the primary"

        run_sequence(cluster, workload, sessions, rng, range(3))
        with pytest.raises(CommitInDoubt) as caught:
            workload.run_transaction(sessions[1], rng,
                                     client_index=1, sequence=3)
        cluster.kill_scheduler()
        killed = time.perf_counter()

        report = cluster.promote_standby()
        assert report["already"] is False and report["promotion_ms"] > 0.0
        # loader + txns 0..3 were all durable when the primary died.
        assert report["tx_table_rebuilt"] == 5, report
        assert report["system_version"] == 5, report

        # The in-doubt commit resolves from the standby's REBUILT table —
        # the surviving replica's certify retry is answered as a duplicate,
        # never re-admitted.
        outcome = sessions[1].resolve_commit(caught.value.tx_id,
                                             wait_known_s=20.0)
        assert outcome is not None and outcome.committed
        sessions[1].reconnect()

        run_sequence(cluster, workload, sessions, rng, range(4, 5))
        # The failover ceiling: kill → WAL rebuild + device swap + re-dial →
        # first fresh commit.  ~0.2 s here; a promotion that serializes on a
        # retry backoff or re-reads whole WALs per shard blows well past 5 s.
        assert time.perf_counter() - killed <= 5.0
        run_sequence(cluster, workload, sessions, rng, range(5, TRANSACTIONS))
        assert_matches_oracle(cluster)
        assert_exactly_once(cluster, admits=TRANSACTIONS + 1)
    finally:
        cluster.__exit__(None, None, None)


def test_scheduler_sigkill_before_round_retry_completes_on_standby(tmp_path):
    """Kill -9 the primary BEFORE the round is admitted (nothing durable,
    nothing recorded).  The surviving replica's pipelined certify retry
    rides its fallback address to the promoted standby and is admitted
    there as a FRESH transaction — exactly once, with no lost commit."""
    cluster, workload, sessions, rng = boot(
        tmp_path, config=FAILOVER_CONFIG,
        scheduler_args=["--wedge-before-certify-round", "5"])
    try:
        run_sequence(cluster, workload, sessions, rng, range(3))
        with pytest.raises(CommitInDoubt) as caught:
            workload.run_transaction(sessions[1], rng,
                                     client_index=1, sequence=3)
        cluster.kill_scheduler()

        report = cluster.promote_standby()
        # Only loader + txns 0..2 ever reached the shard WAL.
        assert report["tx_table_rebuilt"] == 4, report
        assert report["system_version"] == 4, report

        # The executing replica is alive and still retrying txn 3's
        # certification; once the standby is promoted the retry is admitted
        # fresh and the status query turns definite — wait it out.
        outcome = sessions[1].resolve_commit(caught.value.tx_id,
                                             wait_known_s=20.0)
        assert outcome is not None and outcome.committed
        sessions[1].reconnect()

        run_sequence(cluster, workload, sessions, rng, range(4, TRANSACTIONS))
        stats = cluster.scheduler_stats()
        assert stats["promotions"] == 1
        assert_matches_oracle(cluster)
        assert_exactly_once(cluster, admits=TRANSACTIONS + 1)
    finally:
        cluster.__exit__(None, None, None)


def test_scheduler_sigkill_mid_grouped_round_both_commits_survive(tmp_path):
    """Two concurrent commits share ONE certification round; the primary is
    killed after that round's durable flush.  Both transactions must
    resolve committed on the promoted standby from the rebuilt table —
    group certification does not weaken exactly-once across failover."""
    import threading

    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=1, rng_seed=SEED,
                               live_scheduler_standby=True,
                               live_certify_batch_window_ms=150.0)
    workload = make_workload()
    # Rounds: loader=1 → the grouped round is 2; durable, then frozen.
    cluster = LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                          keep_dir=True,
                          scheduler_args=["--wedge-after-certify-round", "2"])
    cluster.__enter__()
    try:
        cluster.load_initial_data(workload)
        sessions = [cluster.session(name, attempt_timeout_s=CLIENT_TIMEOUT_S)
                    for name in cluster.replicas]
        rng = RandomStreams(SEED)

        caught: list[CommitInDoubt | None] = [None, None]
        barrier = threading.Barrier(2)

        def commit_one(index: int) -> None:
            barrier.wait()
            try:
                workload.run_transaction(sessions[index], rng,
                                         client_index=index, sequence=index)
            except CommitInDoubt as exc:
                caught[index] = exc

        threads = [threading.Thread(target=commit_one, args=(index,))
                   for index in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(caught), f"both commits must wedge in doubt, got {caught}"

        cluster.kill_scheduler()
        report = cluster.promote_standby()
        # loader + both grouped commits were durable as full WAL entries.
        assert report["tx_table_rebuilt"] == 3, report

        for index in (0, 1):
            outcome = sessions[index].resolve_commit(caught[index].tx_id,
                                                     wait_known_s=20.0)
            assert outcome is not None and outcome.committed, (index, outcome)
            sessions[index].reconnect()

        # One grouped batch holds both round entries; seqs stay strictly
        # increasing across the promotion (the standby's WAL device starts
        # above the shard's applied last_seq).
        batches = read_wal_batches(cluster.harness.run_dir / "shard-0.wal")
        assert any(len(batch["payloads"]) >= 2 for batch in batches), (
            f"no grouped batch in the WAL: {[len(b['payloads']) for b in batches]}"
        )
        assert_exactly_once(cluster, admits=3)  # loader + the two commits

        cluster.refresh_all()
        probe = cluster.session("replica-0", attempt_timeout_s=CLIENT_TIMEOUT_S)
        probe.begin()
        for index, key in ((0, "r0-c0-0"), (1, "r1-c1-1")):
            row = probe.read("counters", key)
            assert row is not None and int(row["value"]) == 1, (key, row)
            assert row["note"] == f"seq-{index}"
        probe.abort()
        probe.close()
    finally:
        cluster.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# the durability stream: several shipped batches in flight when the fault lands
# ---------------------------------------------------------------------------

#: A slow disk keeps a group in flight long enough for later commits to be
#: admitted, shipped and queued behind it.
SLOW_DISK_MS = 250.0


def bump(session, key: str) -> bool:
    session.begin()
    row = session.read("counters", key)
    session.update("counters", key, value=int(row["value"]) + 1, note=f"bump-{key}")
    return session.commit().committed


def commit_concurrently(sessions, keys, *, stagger_s: float = 0.0) -> list:
    """One ``bump`` per session, all at once; returns each one's
    ``CommitInDoubt`` (or ``None`` where the commit was acknowledged)."""
    import threading
    import time

    caught: list = [None] * len(sessions)

    def commit_one(index: int) -> None:
        time.sleep(stagger_s * index)
        try:
            assert bump(sessions[index], keys[index])
        except CommitInDoubt as exc:
            caught[index] = exc

    threads = [threading.Thread(target=commit_one, args=(index,))
               for index in range(len(sessions))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return caught


def bump_oracle(config: ReplicationConfig, keys: list[str]) -> dict:
    """Fault-free functional run: every key bumped once (disjoint rows, so
    the order the live commits were admitted in does not matter)."""
    workload = make_workload()
    system = build_replicated_system(config)
    system.create_tables_from_schemas(workload.schemas())
    system.load_initial_data(workload.setup)
    session = system.sessions_round_robin(1)[0]
    for key in keys:
        assert bump(session, key)
    system.refresh_all()
    return {replica.name: replica.database.table("counters").snapshot_state(
                replica.database.current_version) for replica in system.replicas}


@pytest.mark.parametrize("wedge_flag", ["--wedge-before-sync", "--wedge-after-sync"])
def test_shard_sigkill_with_later_batches_queued_behind_the_group(tmp_path, wedge_flag):
    """Group 3 freezes (before / after its fsync) while two more commits have
    been admitted and shipped behind it.  After kill -9 + restart the
    scheduler resends every unacknowledged batch in order: each record lands
    exactly once, line seqs stay gapless, all three commits resolve."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=1, rng_seed=SEED,
                               live_wal_fsync_floor_ms=SLOW_DISK_MS)
    workload = make_workload()
    # Groups: loader=1, the warm commit=2 -> the first concurrent commit is
    # group 3; staggered by 60 ms, the other two arrive during its 250 ms
    # write (after-sync) or after the freeze (before-sync).
    cluster = LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                          keep_dir=True, shard_args={0: [wedge_flag, "3"]})
    cluster.__enter__()
    try:
        cluster.load_initial_data(workload)
        keys = ["r0-c0-0", "r0-c1-0", "r1-c2-0", "r0-c3-0"]
        names = ["replica-0", "replica-0", "replica-1", "replica-0"]
        sessions = [cluster.session(name, attempt_timeout_s=CLIENT_TIMEOUT_S)
                    for name in names]
        assert bump(sessions[0], keys[0])
        caught = commit_concurrently(sessions[1:], keys[1:], stagger_s=0.06)
        assert all(caught), f"all three commits must hang in doubt, got {caught}"
        durable = wedge_flag == "--wedge-after-sync"
        assert shard_wal_seqs(cluster, 0) == ([1, 2, 3] if durable else [1, 2])
        assert cluster.scheduler_stats()["held_decisions"] == 3

        cluster.kill_shard(0)
        cluster.restart_shard(0, drop_args=(wedge_flag,))
        for session, in_doubt in zip(sessions[1:], caught):
            outcome = session.resolve_commit(in_doubt.tx_id, wait_known_s=20.0)
            assert outcome is not None and outcome.committed
            session.reconnect()

        stats = cluster.scheduler_stats()
        assert stats["tx_admits"] == 5 and stats["held_decisions"] == 0, stats
        assert stats["wal_resent_batches"] >= 1
        batches = read_wal_batches(cluster.harness.run_dir / "shard-0.wal")
        assert [b["seq"] for b in batches] == list(range(1, len(batches) + 1))
        assert sum(len(b["payloads"]) for b in batches) == 5  # each record once
        wal = cluster.shard_wal_stats(0)
        assert wal["duplicate_batches_skipped"] == (1 if durable else 0), wal
        # One acknowledgement per shipped batch, resent or not.
        assert [c["calls"] for c in stats["wal_clients"]] == [5]

        cluster.refresh_all()
        oracle = bump_oracle(config, keys)
        for name in cluster.replicas:
            assert cluster.dump_table(name, "counters") == oracle[name]
    finally:
        cluster.__exit__(None, None, None)


def test_scheduler_sigkill_with_groups_in_flight_on_both_shards(tmp_path):
    """kill -9 the primary while commits are admitted and shipped but on no
    disk yet — one on each shard and one across both.  Whatever the shards
    finish writing is durable-but-unacknowledged; promotion completes or
    discards each round consistently and every client retry resolves exactly
    once on the standby."""
    import time

    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=2, rng_seed=SEED,
                               live_scheduler_standby=True,
                               live_wal_fsync_floor_ms=SLOW_DISK_MS)
    workload = make_workload()
    cluster = LiveCluster(config, workload.schemas(), run_dir=tmp_path, keep_dir=True)
    cluster.__enter__()
    try:
        cluster.load_initial_data(workload)
        (a0, a1), (b0, b1) = cross_shard_pairs()  # (shard-0 row, shard-1 row) per replica
        sessions = [cluster.session(name, attempt_timeout_s=CLIENT_TIMEOUT_S)
                    for name in ("replica-0", "replica-0", "replica-1")]

        def cross(session) -> bool:  # one transaction over both shards
            session.begin()
            for key in (b0, b1):
                row = session.read("counters", key)
                session.update("counters", key, value=int(row["value"]) + 1, note="cross")
            return session.commit().committed

        import threading

        caught: list = [None, None, None]

        def commit_one(index: int) -> None:
            try:
                if index == 2:
                    assert cross(sessions[2])
                else:
                    assert bump(sessions[index], (a0, a1)[index])
            except CommitInDoubt as exc:
                caught[index] = exc

        threads = [threading.Thread(target=commit_one, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(SLOW_DISK_MS / 1000.0 * 0.4)  # admitted and shipped; no fsync done
        cluster.kill_scheduler()
        for thread in threads:
            thread.join()
        assert all(caught), f"no commit may have been acknowledged, got {caught}"

        report = cluster.promote_standby()
        assert report["already"] is False
        for session, in_doubt in zip(sessions, caught):
            outcome = session.resolve_commit(in_doubt.tx_id, wait_known_s=20.0)
            assert outcome is not None and outcome.committed
            session.reconnect()

        stats = cluster.scheduler_stats()
        # Rebuilt from the WALs or admitted fresh on retry — once either way.
        assert stats["tx_admits"] == 4 and stats["held_decisions"] == 0, stats
        for shard_id in (0, 1):
            seqs = shard_wal_seqs(cluster, shard_id)
            assert seqs == list(range(1, len(seqs) + 1)), f"shard {shard_id}: {seqs}"
        cluster.refresh_all()
        probe = cluster.session("replica-0", attempt_timeout_s=CLIENT_TIMEOUT_S)
        probe.begin()
        for key in (a0, a1, b0, b1):
            assert int(probe.read("counters", key)["value"]) == 1, key
        probe.abort()
        probe.close()
        assert cluster.replicas_consistent(["counters"])
    finally:
        cluster.__exit__(None, None, None)


def rng_replay(rng: RandomStreams, sequence: int) -> RandomStreams:
    """AllUpdates draws nothing from ``rng``, so replaying a transaction can
    reuse the live stream object; kept as a named hook so a future workload
    with rng draws fails loudly here instead of silently diverging."""
    return rng
