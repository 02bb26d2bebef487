"""Replica state is O(window), not O(history).

The proxy's maintenance step (``TransparentProxy.maintain``, run from the
commit and refresh paths every ``MAINTENANCE_INTERVAL_VERSIONS`` applied
versions) prunes the proxy log at the oldest active snapshot, vacuums the
version chains and — under Tashkent-MW only — drops the engine WAL's retained
tail.  These tests pin the consequence: what a replica retains does not grow
with the number of commits, grows only while a transaction pins it, and is
never something a recovery procedure still needs.
"""

import gc
import tracemalloc

import pytest

from repro.core.config import ReplicationConfig, SystemKind
from repro.engine.recovery import verify_same_state
from repro.errors import TransactionAborted
from repro.live.cluster import LiveCluster
from repro.middleware.proxy import MAINTENANCE_INTERVAL_VERSIONS, MAINTENANCE_VACUUM_ROWS
from repro.middleware.systems import build_replicated_system
from repro.recovery.replica_recovery import recover_base_replica, recover_tashkent_mw_replica
from repro.sim.rng import RandomStreams
from repro.workloads import workload_by_name

REPLICAS = 2


class AllUpdatesRun:
    """A functional system under the AllUpdates workload, one session per replica."""

    def __init__(self, system_kind: SystemKind) -> None:
        self.workload = workload_by_name("allupdates", num_replicas=REPLICAS)
        self.system = build_replicated_system(
            ReplicationConfig(system=system_kind, num_replicas=REPLICAS, rng_seed=7))
        self.system.create_tables_from_schemas(self.workload.schemas())
        self.system.load_initial_data(self.workload.setup)
        self.sessions = self.system.sessions_round_robin(REPLICAS)
        self.rng = RandomStreams(7)
        self.sequence = 0

    def commit(self, count: int) -> None:
        for _ in range(count):
            index = self.sequence % REPLICAS
            assert self.workload.run_transaction(
                self.sessions[index], self.rng, client_index=index, sequence=self.sequence)
            self.sequence += 1

    def retained(self) -> list[tuple[int, int, int]]:
        """Per replica: proxy-log records, WAL records, longest version chain."""
        return [(replica.proxy.proxy_log.retained_count,
                 replica.database.wal.retained_count,
                 replica.database.mvcc_stats().max_chain_length)
                for replica in self.system.replicas]


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_mw_replica_state_is_the_same_after_2000_and_8000_commits():
    tracemalloc.start()
    try:
        run = AllUpdatesRun(SystemKind.TASHKENT_MW)
        run.commit(2000)
        early, early_bytes = run.retained(), traced_bytes()
        run.commit(6000)
        late, late_bytes = run.retained(), traced_bytes()
    finally:
        tracemalloc.stop()
    # Between two steps a replica applies at most one interval of versions,
    # each leaving one log record, one WAL record and one row version.
    for retained in early + late:
        assert all(count <= MAINTENANCE_INTERVAL_VERSIONS + 2 for count in retained)
    for replica in run.system.replicas:
        assert replica.proxy.stats.maintenance_runs >= 8000 // MAINTENANCE_INTERVAL_VERSIONS
    # An untrimmed replica pair kept ~2 100 B per commit; what may still grow
    # is the certifier's in-memory log device holding its 4-byte payloads.
    assert (late_bytes - early_bytes) / 6000 < 128


class WideAndNarrowRun:
    """One MW replica whose interval touches more rows than the fixed budget.

    Every commit updates ``WIDE_ROWS_PER_COMMIT`` rows of ``wide`` (created
    first, keys taken round-robin) and the one row of ``narrow``: an interval
    installs 256 × 18 = 4 608 row versions over 4 353 rows, more candidates
    than ``MAINTENANCE_VACUUM_ROWS``.
    """

    WIDE_ROWS_PER_COMMIT = 17
    WIDE_KEYS = MAINTENANCE_INTERVAL_VERSIONS * WIDE_ROWS_PER_COMMIT

    def __init__(self) -> None:
        assert self.WIDE_KEYS > MAINTENANCE_VACUUM_ROWS
        self.system = build_replicated_system(
            ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1))
        self.system.create_table("wide", ["id", "value"])
        self.system.create_table("narrow", ["id", "value"])
        self.session = self.system.session(0)
        self.session.begin()
        for key in range(self.WIDE_KEYS):
            self.session.insert("wide", key, value=0)
        self.session.insert("narrow", 0, value=0)
        assert self.session.commit().committed
        self.proxy = self.system.replica(0).proxy
        self.commits = 0

    def commit_through_next_step(self, total: int) -> tuple[int, int, int]:
        """Commit until ``total`` commits are done and a maintenance step has
        just run; returns (dead candidates, wide and narrow max chain)."""
        while True:
            steps = self.proxy.stats.maintenance_runs
            first = self.commits * self.WIDE_ROWS_PER_COMMIT
            self.session.begin()
            for offset in range(self.WIDE_ROWS_PER_COMMIT):
                self.session.update("wide", (first + offset) % self.WIDE_KEYS,
                                    value=self.commits)
            self.session.update("narrow", 0, value=self.commits)
            assert self.session.commit().committed
            self.commits += 1
            if self.commits >= total and self.proxy.stats.maintenance_runs > steps:
                database = self.system.replica(0).database
                return (database.dead_candidate_count(),
                        database.table("wide").mvcc_stats().max_chain_length,
                        database.table("narrow").mvcc_stats().max_chain_length)


def test_inline_vacuum_keeps_up_when_an_interval_outgrows_the_fixed_budget():
    """The inline step is the only vacuum: its pass must cover every table
    and everything its interval installed, or a backlog grows every step."""
    run = WideAndNarrowRun()
    early = run.commit_through_next_step(2000)
    late = run.commit_through_next_step(8000)
    assert early == late
    assert early[2] <= 2 * MAINTENANCE_INTERVAL_VERSIONS + 2


def test_an_open_reader_pins_replica_state_until_it_commits():
    run = AllUpdatesRun(SystemKind.TASHKENT_MW)
    run.commit(2 * MAINTENANCE_INTERVAL_VERSIONS)
    pinned, free = run.system.replicas
    reader = run.system.session(0, client_name="reader")
    reader.begin()
    key = next(iter(pinned.database.table("counters").keys()))
    seen = reader.read("counters", key)

    run.commit(4 * MAINTENANCE_INTERVAL_VERSIONS)
    log_held, _wal, chain_held = run.retained()[0]
    assert log_held >= 4 * MAINTENANCE_INTERVAL_VERSIONS  # nothing above its snapshot went
    assert chain_held > run.retained()[1][2]  # its version chains wait for it too
    assert free.proxy.proxy_log.retained_count <= MAINTENANCE_INTERVAL_VERSIONS
    assert reader.read("counters", key) == seen

    assert reader.commit().committed
    run.commit(2 * MAINTENANCE_INTERVAL_VERSIONS)
    log_after, _wal, chain_after = run.retained()[0]
    assert log_after <= MAINTENANCE_INTERVAL_VERSIONS
    assert chain_after < chain_held


@pytest.mark.parametrize("system_kind", [SystemKind.BASE, SystemKind.TASHKENT_API])
def test_replicas_that_recover_from_their_wal_keep_it(system_kind):
    run = AllUpdatesRun(system_kind)
    run.commit(3 * MAINTENANCE_INTERVAL_VERSIONS)
    crashed, healthy = run.system.replicas
    assert crashed.proxy.stats.maintenance_runs >= 2
    wal = crashed.database.wal
    assert wal.stats.records_discarded == 0
    assert wal.retained_count == wal.stats.records_appended

    schemas = [table.schema for table in crashed.database.tables.values()]
    crashed.database.simulate_crash()
    report = recover_base_replica(wal, schemas, run.system.certifier.log,
                                  database_name=crashed.name)
    run.system.refresh_all()
    assert report.final_version == healthy.replica_version
    assert verify_same_state(report.database, healthy.database)


def test_an_mw_replica_recovers_without_the_wal_tail_it_dropped():
    run = AllUpdatesRun(SystemKind.TASHKENT_MW)
    run.commit(3 * MAINTENANCE_INTERVAL_VERSIONS)
    crashed, healthy = run.system.replicas
    crashed.take_checkpoint()
    run.commit(40)
    assert crashed.proxy.stats.maintenance_runs >= 2
    wal = crashed.database.wal
    assert wal.stats.records_discarded > 0
    assert wal.retained_count < wal.stats.records_appended  # counters keep counting
    assert wal.stats.asynchronous_commits == wal.stats.records_appended

    crashed.database.simulate_crash()
    report = recover_tashkent_mw_replica(crashed.checkpoints, run.system.certifier.log)
    run.system.refresh_all()
    assert report.writesets_replayed > 0
    assert report.final_version == healthy.replica_version
    assert verify_same_state(report.database, healthy.database)


@pytest.mark.live
def test_live_session_held_across_maintenance_steps_keeps_its_snapshot(tmp_path):
    """Over real processes: a transaction left open on one replica while the
    other commits two intervals' worth still reads its snapshot, pins the
    replica's log, and still loses to a conflicting remote commit."""
    workload = workload_by_name("allupdates", num_replicas=REPLICAS)
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=REPLICAS,
                               rng_seed=7)
    with LiveCluster(config, workload.schemas(), run_dir=tmp_path) as cluster:
        cluster.load_initial_data(workload)
        held_on, busy_on = list(cluster.replicas)
        key = "r1-c1-0"  # the busy session's first counter row
        held = cluster.session(held_on, client_name="held")
        held.begin()
        seen = held.read("counters", key)

        busy = cluster.session(busy_on, client_name="busy")
        rng = RandomStreams(7)
        commits = 2 * MAINTENANCE_INTERVAL_VERSIONS + 40
        for sequence in range(commits):
            assert workload.run_transaction(busy, rng, client_index=1, sequence=sequence)
            if sequence % 64 == 63:
                cluster.refresh_all()
        cluster.refresh_all()

        proxy = cluster.replica_stats(held_on)["stats"]["proxy"]
        assert proxy["maintenance_runs"] >= 2
        assert proxy["proxy_log_retained"] >= commits  # pinned by the open session
        assert proxy["wal_records_retained"] <= MAINTENANCE_INTERVAL_VERSIONS
        busy_proxy = cluster.replica_stats(busy_on)["stats"]["proxy"]
        assert busy_proxy["proxy_log_retained"] <= MAINTENANCE_INTERVAL_VERSIONS

        assert cluster.dump_table(held_on, "counters")[key] != seen
        assert held.read("counters", key) == seen
        held.update("counters", key, value=-1)
        with pytest.raises(TransactionAborted):
            held.commit()
        assert cluster.replica_stats(held_on)["stats"]["proxy"]["eager_precert_aborts"] == 1
