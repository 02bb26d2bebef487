"""Live backend vs functional oracle: decision/version/state equivalence.

The live cluster is real processes over real sockets, but it is built from
the *same* certifier service, proxy and engine as the functional backend —
so driving the identical deterministic transaction sequence against both
must produce identical certification decisions, identical commit versions,
identical replica table states and the identical GC horizon.  Any
divergence means the wire/process layer changed semantics, which is exactly
what these tests exist to catch.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.config import ReplicationConfig, SystemKind
from repro.errors import ConfigurationError
from repro.live.cluster import LiveCluster
from repro.live.harness import HarnessError
from repro.live.node import build_parser
from repro.live.server import load_spec
from repro.live.wire import ConnectionLost
from repro.middleware.certifier import GC_INTERVAL_REQUESTS
from repro.middleware.systems import build_replicated_system
from repro.sim.rng import RandomStreams
from repro.workloads import workload_by_name

pytestmark = pytest.mark.live

SEED = 7
REFRESH_EVERY = 5


def drive_functional(workload, config, transactions):
    """Fault-free in-process run: the oracle."""
    system = build_replicated_system(config)
    system.create_tables_from_schemas(workload.schemas())
    system.load_initial_data(workload.setup)
    sessions = system.sessions_round_robin(len(system.replicas))
    rng = RandomStreams(SEED)
    decisions = []
    for sequence in range(transactions):
        index = sequence % len(sessions)
        decisions.append(workload.run_transaction(
            sessions[index], rng, client_index=index, sequence=sequence))
        if (sequence + 1) % REFRESH_EVERY == 0:
            system.refresh_all()
    system.refresh_all()
    states = {
        replica.name: {
            schema.name: replica.database.table(schema.name).snapshot_state(
                replica.database.current_version)
            for schema in workload.schemas()
        }
        for replica in system.replicas
    }
    return {
        "decisions": decisions,
        "system_version": system.certifier.system_version,
        "replica_versions": {r.name: r.replica_version for r in system.replicas},
        "states": states,
        "replication_horizon": system.certifier.replication_horizon(),
    }


def drive_live(workload, config, transactions, tmp_path):
    """The same sequence against real node processes."""
    with LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                     keep_dir=True) as cluster:
        cluster.load_initial_data(workload)
        sessions = [cluster.session(name) for name in cluster.replicas]
        rng = RandomStreams(SEED)
        decisions = []
        for sequence in range(transactions):
            index = sequence % len(sessions)
            decisions.append(workload.run_transaction(
                sessions[index], rng, client_index=index, sequence=sequence))
            if (sequence + 1) % REFRESH_EVERY == 0:
                cluster.refresh_all()
        cluster.refresh_all()
        states = {
            name: {schema.name: cluster.dump_table(name, schema.name)
                   for schema in workload.schemas()}
            for name in cluster.replicas
        }
        return {
            "decisions": decisions,
            "system_version": cluster.system_version(),
            "replica_versions": {name: cluster.replica_version(name)
                                 for name in cluster.replicas},
            "states": states,
            "replication_horizon": cluster.replication_horizon(),
        }


def assert_equivalent(live, oracle):
    assert live["decisions"] == oracle["decisions"]
    assert live["system_version"] == oracle["system_version"]
    assert live["replica_versions"] == oracle["replica_versions"]
    assert live["replication_horizon"] == oracle["replication_horizon"]
    for replica, tables in oracle["states"].items():
        for table, state in tables.items():
            assert live["states"][replica][table] == state, (
                f"replica {replica} table {table} diverged"
            )


def test_allupdates_two_shards_three_replicas_matches_functional(tmp_path):
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=3,
                               certifier_shards=2, rng_seed=SEED)
    workload = workload_by_name("allupdates", num_replicas=3)
    transactions = 21
    oracle = drive_functional(workload, config, transactions)
    live = drive_live(workload_by_name("allupdates", num_replicas=3), config,
                      transactions, tmp_path)
    assert all(oracle["decisions"])  # AllUpdates never conflicts
    assert_equivalent(live, oracle)


def test_tpcb_single_shard_two_replicas_matches_functional(tmp_path):
    """TPC-B has real cross-replica conflicts: decisions must still match."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=1, rng_seed=SEED)
    workload = workload_by_name("tpcb", num_replicas=2)
    transactions = 24
    oracle = drive_functional(workload, config, transactions)
    live = drive_live(workload_by_name("tpcb", num_replicas=2), config,
                      transactions, tmp_path)
    assert not all(oracle["decisions"]), "expected some SI conflicts in TPC-B"
    assert_equivalent(live, oracle)


def test_exactly_once_table_counts_every_commit_once(tmp_path):
    """Fault-free sanity for the tx table: one admit per transaction id."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=2, rng_seed=SEED)
    workload = workload_by_name("allupdates", num_replicas=2)
    with LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                     keep_dir=True) as cluster:
        cluster.load_initial_data(workload)
        sessions = [cluster.session(name) for name in cluster.replicas]
        rng = RandomStreams(SEED)
        for sequence in range(10):
            assert workload.run_transaction(
                sessions[sequence % 2], rng,
                client_index=sequence % 2, sequence=sequence)
        stats = cluster.scheduler_stats()
        # 10 client commits + the loader's setup commit, each admitted once;
        # no duplicate certification ever reached the admission path.
        assert stats["tx_admits"] == 11
        assert stats["tx_table_size"] == 11
        assert stats["duplicate_tx_hits"] == 0
        assert stats["wal_resent_batches"] == 0


def test_nocert_keeps_acknowledging_past_the_gc_interval(tmp_path):
    """Tashkent-API without certifier durability ships its log only at the GC
    interval.  That ship runs on the scheduler's loop, which also reads the
    shards' acknowledgements: it must not wait for them there, or every
    later commit hangs in doubt."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_API_NO_CERT, num_replicas=1,
                               rng_seed=SEED)
    workload = workload_by_name("allupdates", num_replicas=1)
    commits = GC_INTERVAL_REQUESTS + 44
    with LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                     keep_dir=True) as cluster:
        cluster.load_initial_data(workload)
        session = cluster.session("replica-0", attempt_timeout_s=2.0)
        rng = RandomStreams(SEED)
        decisions = [workload.run_transaction(session, rng, client_index=0,
                                              sequence=sequence)
                     for sequence in range(commits)]
        assert len(decisions) == commits and all(decisions)
        assert cluster.collect_garbage() >= 0  # the loop still answers
        assert cluster.shard_wal_stats(0)["records"] > 0  # the log went out


@pytest.mark.parametrize("shards", [1, 2])
def test_fsync_accounting_holds_when_one_fsync_covers_several_batches(tmp_path, shards):
    """Under load the shards' log writers put several shipped batches into
    one fsync group.  The scheduler's ``fsyncs`` must still equal the number
    of groups the shards wrote, and the writer's measured busy time must
    account for them — the counters the benchmark's ``fsyncs_per_commit`` and
    device-busy rows are computed from."""
    floor_ms = 20.0
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=shards, rng_seed=SEED,
                               live_wal_fsync_floor_ms=floor_ms)
    workload = workload_by_name("allupdates", num_replicas=2)
    with LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                     keep_dir=True) as cluster:
        cluster.load_initial_data(workload)
        before = cluster.stats()
        summary = cluster.run_workload(workload, clients=8, transactions_per_client=12)
        after = cluster.stats()
        assert summary["commits"] == 96 and summary["in_doubt"] == 0

        def grew(counter) -> int:
            return counter(after) - counter(before)

        groups = sum(grew(lambda s: s["shards"][i]["wal"]["batches"]) for i in range(shards))
        records = sum(grew(lambda s: s["shards"][i]["wal"]["records"]) for i in range(shards))
        shipped = sum(grew(lambda s: s["scheduler"]["wal_clients"][i]["calls"])
                      for i in range(shards))
        assert grew(lambda s: s["scheduler"]["fsyncs"]) == groups == summary["fsyncs"]
        assert records == summary["commits"]  # one shard per AllUpdates writeset
        # Grouping really happened at the shard: fewer fsyncs than batches sent.
        assert groups < shipped <= records
        assert summary["fsyncs_per_commit"] < 1.0
        scheduler = after["scheduler"]
        assert scheduler["held_decisions"] == 0 and scheduler["durable_frontier_lag"] == 0
        assert scheduler["held_decisions_high_water"] >= 2
        for wal in (after["shards"][i]["wal"] for i in range(shards)):
            assert sum(wal["group_size_histogram"].values()) == wal["batches"]
            assert wal["queued_high_water"] >= 2
            # Measured, not inferred: every group held the disk for a full floor.
            assert wal["writer_busy_s"] >= wal["batches"] * floor_ms / 1000.0


def test_hot_row_write_write_block_aborts_no_wait(tmp_path):
    """Two live sessions on one replica racing one row: the loser must not
    wedge a worker thread waiting for the winner's lock — the replica runs a
    no-wait first-updater-wins policy and aborts the blocked writer (reason
    ``ww-block``), and a retry after the winner commits goes through.  TPC-B
    with concurrent clients dies on an unhandled ``LockBlockedError`` without
    this."""
    from repro.engine.table import TableSchema
    from repro.errors import TransactionAborted

    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1,
                               certifier_shards=1, rng_seed=SEED)
    schemas = [TableSchema("counters", ("id", "value"), "id")]
    with LiveCluster(config, schemas, run_dir=tmp_path,
                     keep_dir=True) as cluster:
        with cluster.session("replica-0") as loader:
            loader.begin()
            loader.insert("counters", "k", id="k", value=0)
            assert loader.commit().committed
        first = cluster.session("replica-0")
        second = cluster.session("replica-0")
        try:
            first.begin()
            first.update("counters", "k", value=1)
            # The read flushes the fused update: the write lock is held now.
            assert first.read("counters", "k")["value"] == 1
            second.begin()
            second.update("counters", "k", value=2)
            with pytest.raises(TransactionAborted) as info:
                second.read("counters", "k")  # deferred update surfaces here
            assert info.value.reason == "ww-block"
            assert first.commit().committed  # the winner is untouched
            second.begin()                   # the loser retries and wins
            second.update("counters", "k", value=2)
            assert second.commit().committed
            assert second.run_readonly("counters", "k")["value"] == 2
        finally:
            first.close()
            second.close()


def test_serialized_mode_is_rejected_and_absent_from_the_cluster_spec(tmp_path):
    with pytest.raises(ConfigurationError, match="serialized live mode was removed"):
        ReplicationConfig(live_pipeline=False)
    cluster = LiveCluster(ReplicationConfig(), run_dir=tmp_path)
    cluster._write_spec()  # boots nothing
    spec = json.loads(cluster.spec_path.read_text())
    spec["config"]["live_pipeline"] = False
    cluster.spec_path.write_text(json.dumps(spec))
    with pytest.raises(ConfigurationError, match="serialized live mode was removed"):
        load_spec(build_parser().parse_args(
            ["--role", "replica", "--spec", str(cluster.spec_path)]))


def test_run_workload_raises_when_a_client_cannot_open_its_session(tmp_path):
    """A refused dial used to kill that client's thread ahead of the start
    barrier, leaving every other party — the caller included — waiting on it
    forever.  Run under a short watchdog: the failure mode is a hang."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=1, rng_seed=SEED)
    workload = workload_by_name("allupdates", num_replicas=2)
    with LiveCluster(config, workload.schemas(), run_dir=tmp_path,
                     keep_dir=True) as cluster:
        cluster.load_initial_data(workload)
        cluster.kill_replica("replica-1")
        threads_before = set(threading.enumerate())
        raised: list[BaseException] = []

        def attempt() -> None:
            try:
                cluster.run_workload(workload, clients=2, transactions_per_client=2)
            except BaseException as exc:  # noqa: BLE001 - handed to the asserts
                raised.append(exc)

        caller = threading.Thread(target=attempt, daemon=True)
        caller.start()
        caller.join(timeout=15.0)
        assert not caller.is_alive(), "run_workload is stuck on its start barrier"
        (error,) = raised
        assert isinstance(error, ConnectionLost) and "open_session" in str(error)
        assert set(threading.enumerate()) == threads_before  # no client left behind


#: An unparsable fault flag: the node's argparse exits before its handshake.
DIES_ON_BOOT = ["--wedge-before-sync", "not-a-number"]


@pytest.mark.parametrize("failing", ["shard-1", "replica-1"])
def test_a_node_that_dies_on_boot_fails_its_stage_and_its_siblings_are_reaped(
        tmp_path, failing):
    """The nodes of one boot stage start together; one that exits before its
    handshake fails ``__enter__`` by name, the next stage never starts, and
    every node already running is reaped."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=2, rng_seed=SEED)
    cluster = LiveCluster(
        config, run_dir=tmp_path, keep_dir=True,
        shard_args={1: DIES_ON_BOOT} if failing == "shard-1" else None,
        replica_args={"replica-1": DIES_ON_BOOT} if failing == "replica-1" else None)
    with pytest.raises(HarnessError, match=f"node '{failing}' exited"):
        with cluster:
            pytest.fail(f"the cluster booted without {failing}")
    nodes = cluster.harness.nodes
    booted = {"shard-0", "shard-1"}
    if failing == "replica-1":
        booted |= {"scheduler", "replica-0", "replica-1"}
    assert set(nodes) == booted
    for name, node in nodes.items():
        assert not node.alive
        assert (node.ready_info is None) == (name == failing)
    cluster.harness.assert_no_orphans()


def test_cli_run_summary_round_trips_typed(tmp_path, capsys, monkeypatch):
    """``repro-cluster run`` prints a summary that survives json.loads with
    native types — no ``default=str`` coercion hiding a non-serialisable
    value (the bug this guards against printed ints as strings)."""
    from repro.live import cli

    assert cli.main(["run", "--workload", "allupdates", "--replicas", "2",
                     "--transactions", "8", "--clients", "2",
                     "--run-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out[out.index("{"):])

    assert summary["workload"] == "allupdates"
    assert isinstance(summary["transactions"], int)
    assert isinstance(summary["committed"], int) and summary["committed"] == 8
    assert isinstance(summary["system_version"], int)
    assert all(isinstance(v, int)
               for v in summary["replica_versions"].values())
    assert isinstance(summary["replication_horizon"], int)
    assert all(isinstance(v, int)
               for wal in summary["shard_wals"] for v in wal.values())
    assert isinstance(summary["wall_clock_s"], float)
    driver = summary["driver"]
    assert isinstance(driver["clients"], int) and driver["clients"] == 2
    assert isinstance(driver["certs_per_sec"], float)
    assert isinstance(driver["fsyncs_per_commit"], float)
    # Bit-for-bit stable through a dump/load cycle: every leaf JSON-native.
    assert json.loads(json.dumps(summary)) == summary

    # Nothing commits: fsyncs per commit is undefined — ``null``, never the
    # ``NaN`` literal strict JSON parsers reject.
    def build_idle_workload(*args, **kwargs):
        workload = workload_by_name(*args, **kwargs)
        workload.run_transaction = lambda *a, **k: False
        return workload

    monkeypatch.setattr(cli, "workload_by_name", build_idle_workload)
    assert cli.main(["run", "--workload", "allupdates", "--replicas", "2",
                     "--transactions", "4", "--clients", "2",
                     "--run-dir", str(tmp_path / "idle")]) == 0
    out = capsys.readouterr().out

    def no_constants(literal):
        raise AssertionError(f"non-JSON literal {literal} in the summary")

    idle = json.loads(out[out.index("{"):], parse_constant=no_constants)
    assert idle["committed"] == 0 and idle["aborted"] == 4
    assert idle["driver"] == {"clients": 2, "certs_per_sec": 0.0, "fsyncs_per_commit": None}
