"""The replica's commit on its event loop.

A :class:`~repro.live.replica.ReplicaRole` is built as the node process builds
it and driven through :func:`repro.live.server.dispatch` on the test's own
event loop; its scheduler is :class:`ScriptedScheduler`, a frame server on a
thread of its own that answers the control ops at once and each ``certify``
as the test scripts it — commit, refuse, hold for the test to answer, or hang
up.  What is pinned:

* answers that arrive in reverse order are finished in send order, on the
  loop, never on the pool or a reader thread;
* the certify keeps ``call_retrying``'s behaviour without blocking the loop:
  refusals are asked again after a backoff, a refused dial rotates to the
  fallback address, a lost connection resends (and counts it);
* a commit whose certify was sent finishes though the task awaiting it is
  cancelled, and the next commit is not blocked behind it;
* nothing waits for the loop under the state lock: the proxy subscribes
  before any loop runs, and a refresh returns while a commit is in flight.

The last two tests run real processes: a client that hangs up mid-commit
loses nothing and blocks nothing, and the replication horizon rides on the
certify answers (one scheduler frame per commit).
"""

from __future__ import annotations

import asyncio
import json
import queue
import socket
import threading
import time
from typing import Callable

import pytest

from repro.core.certification import CertificationDecision, CertificationResult
from repro.core.config import ReplicationConfig, SystemKind
from repro.engine.table import TableSchema
from repro.live import codec
from repro.live.cluster import LiveCluster
from repro.live.node import build_parser
from repro.live.replica import ReplicaRole
from repro.live.server import dispatch, write_spec
from repro.live.wire import encode_frame, read_frame
from repro.middleware.proxy import MAINTENANCE_INTERVAL_VERSIONS
from repro.middleware.systems import build_replicated_system

pytestmark = pytest.mark.live  # localhost sockets, under the live watchdog

SCHEMAS = [TableSchema("counters", ("id", "value"), "id")]
HOLD, HANG_UP = "hold", "hang up"


def committed(version: int) -> dict:
    result = CertificationResult(CertificationDecision.COMMIT, version)
    return {"ok": True, "result": codec.encode_result(result), "duplicate": False,
            "horizon": 0}


def refused(error_type: str) -> dict:
    return {"ok": False, "error": "try again", "error_type": error_type, "reason": None}


class ScriptedScheduler:
    """A scheduler stand-in serving on its own thread's loop.

    ``script`` holds one action per ``certify`` frame, in arrival order: a
    response, ``HOLD`` (queued on :attr:`held` for the test to answer) or
    ``HANG_UP`` (the connection is closed unanswered); once it runs out,
    every certify commits at the next version.  Control ops (subscribe,
    poll, register) are answered at once.
    """

    def __init__(self, script: list | None = None) -> None:
        self.script = list(script or [])
        self.certifies: list[dict] = []
        self.held: queue.Queue = queue.Queue()
        #: Run once, when the next control op arrives, before its answer.
        self.before_control: Callable[[], None] | None = None
        self.version = 0
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self._thread.start()
        self.server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._serve, "127.0.0.1", 0), self.loop).result(5.0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer) -> None:
        def reply(response: dict, rid) -> None:
            writer.write(encode_frame(response if rid is None else {**response, "rid": rid}))

        while (message := await read_frame(reader)) is not None:
            op, rid = message.pop("op"), message.pop("rid", None)
            if op != "certify":
                if self.before_control is not None:
                    hook, self.before_control = self.before_control, None
                    hook()
                    await asyncio.sleep(0.05)  # whatever the hook sent goes first
                reply({"ok": True, "writesets": [], "horizon": 0}, rid)
                continue
            self.certifies.append(message)
            action = self.script.pop(0) if self.script else self.commit_next()
            if action == HANG_UP:
                writer.close()
                return
            if action == HOLD:
                self.held.put(lambda response, rid=rid: self.loop.call_soon_threadsafe(
                    reply, response, rid))
                continue
            reply(action, rid)

    def commit_next(self) -> dict:
        self.version += 1
        return committed(self.version)

    async def next_held(self):
        return await asyncio.to_thread(self.held.get, timeout=5.0)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.server.close)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5.0)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def scripted(tmp_path, monkeypatch):
    """``boot(script, dead_primary=False) -> (role, scheduler)``; the replica's
    engine WAL lands in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "spec.json"
    write_spec(spec, ReplicationConfig(num_replicas=1), SCHEMAS)
    built: list[tuple[ReplicaRole, ScriptedScheduler]] = []

    def boot(script=None, *, dead_primary: bool = False):
        scheduler = ScriptedScheduler(script)
        address = f"127.0.0.1:{scheduler.port}"
        argv = ["--role", "replica", "--name", "r0", "--spec", str(spec)]
        if dead_primary:
            argv += ["--scheduler", f"127.0.0.1:{free_port()}",
                     "--scheduler-standby", address]
        else:
            argv += ["--scheduler", address]
        # The proxy subscribes here, before any event loop runs.
        role = ReplicaRole(build_parser().parse_args(argv))
        built.append((role, scheduler))
        return role, scheduler

    yield boot
    for role, scheduler in built:
        role.cert_client.close()
        role.executor.shutdown(wait=False)  # a hung refresh must not hang teardown
        scheduler.stop()


def serve(role: ReplicaRole, scenario):
    """Run ``scenario()`` on a fresh loop the replica's answers are read on."""
    async def main():
        role.start(asyncio.get_running_loop())
        return await scenario()

    return asyncio.run(main())


async def open_session(role: ReplicaRole) -> int:
    return (await dispatch(role, "open_session", {}))["session_id"]


async def commit_insert(role: ReplicaRole, session_id: int, key: str, tx_id: str) -> dict:
    """One ``session_batch`` frame — begin, insert, commit — as a client sends it."""
    response = await dispatch(role, "session_batch", {"session_id": session_id, "ops": [
        {"op": "begin"},
        {"op": "insert", "table": "counters", "key": key, "values": {"id": key, "value": 1}},
        {"op": "commit", "tx_id": tx_id},
    ]})
    *_, last = response["results"]
    assert last["ok"], last
    return codec.decode_outcome(last["outcome"]).__dict__


async def open_and_commit(role: ReplicaRole) -> dict:
    return await commit_insert(role, await open_session(role), "a", "t:1")


async def wait_for(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.005)


def test_reversed_answers_finish_in_send_order_on_the_loop(scripted):
    role, scheduler = scripted([HOLD, HOLD])
    finished_on: list[str] = []
    finalize = role.replica.proxy._finalize_serial

    def recording(*args):
        finished_on.append(threading.current_thread().name)
        return finalize(*args)

    role.replica.proxy._finalize_serial = recording

    async def scenario():
        first, second = await open_session(role), await open_session(role)
        commits = [asyncio.create_task(commit_insert(role, first, "a", "t:1"))]
        answer_first = await scheduler.next_held()
        commits.append(asyncio.create_task(commit_insert(role, second, "b", "t:2")))
        answer_second = await scheduler.next_held()
        answer_second(committed(2))
        await asyncio.sleep(0.2)
        # The later commit's answer is here; it waits for the earlier one.
        assert not any(task.done() for task in commits)
        assert role.replica.replica_version == 0
        answer_first(committed(1))
        return await asyncio.wait_for(asyncio.gather(*commits), 5.0)

    first, second = serve(role, scenario)
    assert (first["committed"], first["commit_version"]) == (True, 1)
    assert (second["committed"], second["commit_version"]) == (True, 2)
    assert role.replica.replica_version == 2
    assert finished_on == [threading.current_thread().name] * 2  # the loop's
    assert [c["tx_id"] for c in scheduler.certifies] == ["t:1", "t:2"]
    stats = role.stats({})
    assert stats["commit_gate_wait_s"] >= 0.15  # the later answer waited
    assert stats["commit_wire_wait_s"] > stats["commit_gate_wait_s"]
    assert not any(t.name.startswith("wire-reader") for t in threading.enumerate())


def test_refusals_back_off_without_blocking_the_loop_and_are_not_resends(scripted):
    role, scheduler = scripted([refused("NotPromoted"), refused("NotPromoted"),
                                refused("NotDurableYet")])
    ticks = 0

    async def ticker():
        nonlocal ticks
        while True:
            await asyncio.sleep(0.01)
            ticks += 1

    async def scenario():
        ticking = asyncio.create_task(ticker())
        started = time.monotonic()
        outcome = await commit_insert(role, await open_session(role), "a", "t:1")
        ticking.cancel()
        return outcome, time.monotonic() - started

    outcome, elapsed = serve(role, scenario)
    assert outcome["committed"]
    assert [c["tx_id"] for c in scheduler.certifies] == ["t:1"] * 4
    assert elapsed >= 0.6  # three backoffs, of at least 0.1, 0.2 and 0.3 s
    assert ticks >= 0.5 * elapsed / 0.01  # the loop kept running meanwhile
    wire = role.cert_client.wire_stats()
    assert wire["resends"] == 0 and wire["reconnects"] == 0


def test_a_refused_dial_rotates_to_the_fallback_scheduler(scripted):
    role, scheduler = scripted(dead_primary=True)
    outcome = serve(role, lambda: open_and_commit(role))
    assert outcome["committed"]
    assert len(scheduler.certifies) == 1
    assert role.cert_client.wire_stats()["resends"] == 0


def test_a_lost_connection_resends_the_certify_and_counts_it(scripted):
    role, scheduler = scripted([HANG_UP])
    outcome = serve(role, lambda: open_and_commit(role))
    assert outcome["committed"]
    assert [c["tx_id"] for c in scheduler.certifies] == ["t:1", "t:1"]
    wire = role.cert_client.wire_stats()
    assert wire["resends"] == 1 and wire["reconnects"] == 1


def test_a_sent_commit_finishes_when_its_waiter_is_cancelled(scripted):
    role, scheduler = scripted([HOLD])

    async def scenario():
        dropped = asyncio.create_task(
            commit_insert(role, await open_session(role), "a", "t:1"))
        answer = await scheduler.next_held()
        dropped.cancel()  # what the server does when the client hangs up
        await asyncio.sleep(0)
        answer(scheduler.commit_next())
        await wait_for(lambda: role.replica.replica_version == 1)
        # Not blocked behind it: the next commit goes through.
        return await commit_insert(role, await open_session(role), "b", "t:2")

    outcome = serve(role, scenario)
    assert (outcome["committed"], outcome["commit_version"]) == (True, 2)
    database = role.replica.database
    assert database.stats()["active_transactions"] == 0
    assert database.table("counters").snapshot_state(database.current_version).keys() \
        == {"a", "b"}


def test_a_refresh_returns_while_a_commit_is_in_flight(scripted):
    """The refresh holds the state lock while it polls the scheduler, and the
    commit's answer — sent first — waits on the loop for that lock.  Were the
    poll's reply read by the loop too, neither would ever finish."""
    role, scheduler = scripted([HOLD])

    async def scenario():
        commit = asyncio.create_task(
            commit_insert(role, await open_session(role), "a", "t:1"))
        answer = await scheduler.next_held()
        scheduler.before_control = lambda: answer(committed(1))
        refreshed = await asyncio.wait_for(dispatch(role, "refresh", {}), 5.0)
        return refreshed, await asyncio.wait_for(commit, 5.0)

    refreshed, outcome = serve(role, scenario)
    assert refreshed == {"applied": 0} and outcome["committed"]


# -- real processes -----------------------------------------------------------------


def functional_states(config: ReplicationConfig, writes: list[tuple[int, str, int]]) -> dict:
    """Replica states after ``writes`` — ``(replica, key, value)`` update
    transactions over the loaded rows — on the functional stack."""
    system = build_replicated_system(config)
    system.create_tables_from_schemas(SCHEMAS)
    sessions = system.sessions_round_robin(config.num_replicas)
    with sessions[0].transaction() as loader:
        for key in ("a", "b"):
            loader.insert("counters", key, id=key, value=0)
    for replica, key, value in writes:
        with sessions[replica].transaction() as session:
            session.update("counters", key, value=value)
    system.refresh_all()
    return {replica.name: replica.database.table("counters").snapshot_state(
        replica.database.current_version) for replica in system.replicas}


def test_a_client_that_hangs_up_mid_commit_loses_nothing_and_blocks_nothing(tmp_path):
    # A 300 ms disk keeps the dropped commit's certify in flight long after
    # its client has gone, and while the refresh runs beside it.
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=2,
                               certifier_shards=1, rng_seed=1,
                               live_wal_fsync_floor_ms=300.0)
    with LiveCluster(config, SCHEMAS, run_dir=tmp_path, keep_dir=True) as cluster:
        with cluster.session("replica-0") as loader:
            loader.begin()
            for key in ("a", "b"):
                loader.insert("counters", key, id=key, value=0)
            assert loader.commit().committed
        port = cluster.replicas["replica-0"].port
        with socket.create_connection(("127.0.0.1", port)) as raw:
            raw.sendall(encode_frame({"op": "open_session"}))
            header = raw.recv(4, socket.MSG_WAITALL)
            body = raw.recv(int.from_bytes(header, "big"), socket.MSG_WAITALL)
            session_id = json.loads(body)["session_id"]
            raw.sendall(encode_frame({"op": "session_batch", "rid": 1, "session_id": session_id,
                                      "ops": [{"op": "begin"},
                                              {"op": "update", "table": "counters", "key": "a",
                                               "values": {"value": 1}},
                                              {"op": "commit", "tx_id": "dropper:1"}]}))
            time.sleep(0.1)  # the certify is on its way; the disk holds it
        started = time.monotonic()
        cluster.refresh_all()
        assert time.monotonic() - started < 5.0
        with cluster.session("replica-0") as next_client:
            next_client.begin()
            next_client.update("counters", "b", value=1)
            outcome = next_client.commit()
            assert outcome.committed and outcome.commit_version == 3
        cluster.refresh_all()
        expected = functional_states(config, [(0, "a", 1), (0, "b", 1)])
        for name in cluster.replicas:
            assert cluster.dump_table(name, "counters") == expected[name]
            assert cluster.replica_stats(name)["stats"]["database"]["active_transactions"] == 0


def test_the_horizon_rides_on_the_certify_answers(tmp_path):
    """Two maintenance intervals of commits through one replica: one
    scheduler frame per commit, and maintenance still vacuums at the
    scheduler's horizon."""
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1,
                               certifier_shards=1, rng_seed=1)
    commits = 2 * MAINTENANCE_INTERVAL_VERSIONS
    with LiveCluster(config, SCHEMAS, run_dir=tmp_path, keep_dir=True) as cluster:
        with cluster.session("replica-0") as session:
            session.begin()
            session.insert("counters", "k", id="k", value=0)
            assert session.commit().committed
            before = cluster.scheduler_stats()["server"]["frames_in"]
            for value in range(commits):
                session.begin()
                session.update("counters", "k", value=value)
                assert session.commit().committed
            after = cluster.scheduler_stats()["server"]["frames_in"]
        assert after - before == commits + 1  # + the second stats call itself
        stats = cluster.replica_stats("replica-0")["stats"]
        assert stats["proxy"]["maintenance_runs"] >= 2
        assert stats["proxy"]["proxy_log_retained"] <= MAINTENANCE_INTERVAL_VERSIONS + 2
        assert stats["database"]["last_vacuum_horizon"] > 0
