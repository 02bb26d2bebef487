"""The replica's commits and refreshes on its event loop.

A :class:`~repro.live.replica.ReplicaRole` is built as the node process builds
it and driven through :func:`repro.live.server.dispatch` on the test's own
event loop; its scheduler is :class:`ScriptedScheduler`, a frame server on a
thread of its own that answers the control ops at once (a poll with the
writesets the test put there) and each ``certify`` as the test scripts it —
commit, refuse, hold for the test to answer, or hang up.  What is pinned:

* answers that arrive in reverse order are finished in send order, on the
  loop, never on a pool or a reader thread;
* the certify keeps ``call_retrying``'s behaviour without blocking the loop:
  refusals are asked again after a backoff, a refused dial rotates to the
  fallback address, a lost connection resends (and counts it);
* a commit whose certify was sent finishes though the task awaiting it is
  cancelled, and the next commit is not blocked behind it;
* a refresh rides the same connection in send order: it finishes after the
  commit sent before it, so a poll that carries that commit's own writeset
  installs nothing twice and aborts nothing — under Tashkent-MW and, with
  overlapping windows and ``back_to`` on the poll, under Tashkent-API.

The scheduler's side of a poll is pinned without sockets: its horizons are
the functional stack's, and a scheduler that is never polled keeps no queue.
The last tests run real processes: a client that hangs up mid-commit loses
nothing and blocks nothing, the replication horizon rides on the certify
answers (one scheduler frame per commit), and the replica's process runs one
thread.
"""

from __future__ import annotations

import asyncio
import json
import queue
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core.certification import (CertificationDecision, CertificationResult,
                                      RemoteWriteSetInfo)
from repro.core.config import ReplicationConfig, SystemKind
from repro.core.writeset import WriteSet
from repro.engine.table import TableSchema
from repro.live import codec
from repro.live.cluster import LiveCluster
from repro.live.node import build_parser
from repro.live.replica import ReplicaRole
from repro.live.server import call, dispatch, write_spec
from repro.live.wire import encode_frame, read_frame
from repro.middleware.certifier import GC_INTERVAL_REQUESTS
from repro.middleware.proxy import MAINTENANCE_INTERVAL_VERSIONS
from repro.middleware.sharded_certifier import ShardedCertifierService
from repro.middleware.systems import build_replicated_system
from test_live_release import certify_payload, make_role

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
    every certify commits at the next version.  Control ops (hello, poll,
    register) are answered at once; a poll with :attr:`poll_writesets`.
    """

    def __init__(self, script: list | None = None) -> None:
        self.script = list(script or [])
        self.certifies: list[dict] = []
        #: Every frame's op, in arrival order, and the poll frames.
        self.ops: list[str] = []
        self.polls: list[dict] = []
        #: Encoded writesets every poll is answered with.
        self.poll_writesets: list[dict] = []
        self.held: queue.Queue = queue.Queue()
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
            self.ops.append(op)
            if op != "certify":
                writesets = []
                if op == "poll_writesets":
                    self.polls.append(message)
                    writesets = self.poll_writesets
                reply({"ok": True, "writesets": writesets, "horizon": 0}, rid)
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
    """``boot(script, dead_primary=False, system=MW) -> (role, scheduler)``; the
    replica's engine WAL lands in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    built: list[tuple[ReplicaRole, ScriptedScheduler]] = []

    def boot(script=None, *, dead_primary: bool = False,
             system: SystemKind = SystemKind.TASHKENT_MW):
        spec = tmp_path / "spec.json"
        write_spec(spec, ReplicationConfig(system=system, num_replicas=1), SCHEMAS)
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


def commit_beside_a_refresh(role: ReplicaRole, scheduler: ScriptedScheduler,
                            answer: dict) -> tuple[dict, dict]:
    """Commit row ``a`` with its certify held and refresh meanwhile; once the
    poll's answer is in, answer the certify with ``answer``.  Returns the
    commit's outcome and the refresh's answer; the refresh may not finish
    first."""
    async def scenario():
        commit = asyncio.create_task(
            commit_insert(role, await open_session(role), "a", "t:1"))
        answer_certify = await scheduler.next_held()
        refresh = asyncio.create_task(dispatch(role, "refresh", {}))
        await wait_for(lambda: scheduler.polls)
        await asyncio.sleep(0.1)  # the poll's answer is in
        assert not refresh.done()
        answer_certify(answer)
        return await asyncio.wait_for(asyncio.gather(commit, refresh), 5.0)

    return serve(role, scenario)


def insert_of(key: str, version: int, origin: str = "r1") -> dict:
    """The encoded remote writeset that inserts row ``key`` at ``version``."""
    writeset = WriteSet()
    writeset.add_insert("counters", key, id=key, value=1)
    return codec.encode_remote_info(RemoteWriteSetInfo(
        commit_version=version, writeset=writeset, origin_replica=origin,
        conflict_free_back_to=0))


def test_a_refresh_finishes_after_the_commit_sent_before_it(scripted):
    """The poll is answered at once, and its answer waits on the loop until
    the commit sent before it has finished: a refresh overtakes no commit."""
    role, scheduler = scripted([HOLD])
    outcome, refreshed = commit_beside_a_refresh(role, scheduler, committed(1))
    assert outcome["committed"] and refreshed == {"applied": 0}
    # One connection, in send order: the boot hello, then the three calls.
    assert scheduler.ops == ["hello_replica", "certify", "poll_writesets",
                             "register_replica"]
    assert scheduler.polls == [{"advance_to": 0}]  # Tashkent-MW: no back_to


def test_a_poll_carrying_an_in_flight_commits_own_writeset_installs_it_once(scripted):
    """The poll is served after the commit is durable, so its answer carries
    the commit's own writeset.  Applied before the commit finished, it would
    priority-abort the commit's engine transaction: the client would be told
    ``soft-recovery`` for a commit the scheduler admitted, and a retry would
    apply the transaction twice."""
    role, scheduler = scripted([HOLD])
    scheduler.poll_writesets = [insert_of("a", 1, origin="r0")]
    outcome, refreshed = commit_beside_a_refresh(role, scheduler, committed(1))
    assert (outcome["committed"], outcome["commit_version"]) == (True, 1)
    assert refreshed == {"applied": 0}
    assert role.replica.database.table("counters").versions_installed == 1
    assert role.replica.proxy.stats.remote_writesets_applied == 0


def test_tashkent_api_overlapping_windows_apply_each_writeset_once(scripted):
    """An ordered replica: the commit's answer carries v1 and commits at v2;
    the poll, answered while the commit is in flight, carries v1, v2 and v3.
    The poll asks for horizons back to the replica's version, and v1 and v3
    are installed once each."""
    remote_v1 = insert_of("x", 1)
    result = CertificationResult(CertificationDecision.COMMIT, 2,
                                 remote_writesets=[codec.decode_remote_info(remote_v1)])
    role, scheduler = scripted([HOLD], system=SystemKind.TASHKENT_API)
    scheduler.poll_writesets = [remote_v1, insert_of("a", 2, origin="r0"), insert_of("y", 3)]
    outcome, refreshed = commit_beside_a_refresh(role, scheduler, {
        "ok": True, "result": codec.encode_result(result), "duplicate": False, "horizon": 0})
    assert (outcome["committed"], outcome["commit_version"]) == (True, 2)
    assert refreshed == {"applied": 1}
    assert scheduler.polls == [{"advance_to": 0, "back_to": 0}]
    proxy = role.replica.proxy
    assert proxy.stats.remote_writesets_applied == 2
    assert proxy.replica_version.version == 3
    table = role.replica.database.table("counters")
    assert table.versions_installed == 3
    assert set(table.snapshot_state(3)) == {"a", "x", "y"}
    assert role.stats({})["remote_writesets_received"] == 4


# -- the scheduler's side of a poll, without sockets --------------------------------


def test_a_poll_is_answered_with_the_functional_stacks_horizons(tmp_path):
    """``poll_writesets`` with ``back_to`` reads the directory; the horizons
    it answers are what a functional subscription's ``poll_flat`` plus
    ``extend_remote_horizons`` give for the same history — extended where
    no later write intervenes, kept where one does."""
    role, devices = make_role(tmp_path, shards=2)
    functional = ShardedCertifierService(ReplicationConfig(certifier_shards=2))
    subscriptions = {back_to: functional.subscribe_replica(f"r{back_to}", 0)
                     for back_to in (1, 0)}
    partitioner = role.service.core.partitioner
    a0, a1, a2, b0, b1 = [*[k for k in range(100) if partitioner.shard_of(("t", k)) == 0][:3],
                          *[k for k in range(100) if partitioner.shard_of(("t", k)) == 1][:2]]
    history = [([a0], 0), ([a1, b0], 0), ([b1], 1), ([a0], 1), ([a2, b0], 2)]
    for index, (keys, start) in enumerate(history):
        payload = certify_payload(role, f"tx-{index}", keys, start=start,
                                  replica_version=start)
        role.admit_round([payload], [lambda _response: None])
        for device in devices:
            device.ack(len(device.in_flight))
        assert functional.certify(codec.decode_request(payload["request"])).committed
    seen = set()
    for back_to, subscription in subscriptions.items():
        answered = call(role, "poll_writesets", {"advance_to": back_to, "back_to": back_to})
        subscription.advance_to(back_to)
        expected = functional.extend_remote_horizons(subscription.poll_flat(), back_to)
        shape = [(i.commit_version, i.conflict_free_back_to) for i in expected]
        assert [(i["commit_version"], i["conflict_free_back_to"])
                for i in answered["writesets"]] == shape
        assert [version for version, _ in shape] == list(range(back_to + 1, 6))
        seen |= {horizon for _, horizon in shape}
    assert len(seen) > 1  # some extended, some held by a later write


def test_a_scheduler_that_is_never_polled_keeps_no_queue(tmp_path):
    """Two GC intervals of commits from one replica that never refreshes:
    no stream has a subscriber, nothing is offered to one, and the directory
    is the only place a writeset is retained."""
    role, (device,) = make_role(tmp_path, shards=1, certifier_gc_headroom=0)
    call(role, "hello_replica", {"replica": "r0", "from_version": 0})
    for index in range(2 * GC_INTERVAL_REQUESTS + 1):
        role.admit_round([certify_payload(role, f"tx-{index}", [index])],
                         [lambda _response: None])
        device.ack(len(device.in_flight))
    service = role.service
    assert service.system_version == 2 * GC_INTERVAL_REQUESTS + 1
    assert all(not list(stream.subscriptions()) for stream in service.streams)
    assert [(stream.offered_version, stream.stats.flushes)
            for stream in service.streams] == [(0, 0)]
    assert service.core.propagated_version == service.system_version
    assert service.core.retained_count <= GC_INTERVAL_REQUESTS
    assert role.certify_answers_sent == 2 * GC_INTERVAL_REQUESTS + 1
    assert role.remote_writesets_sent == 0  # each request was up to date


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
    scheduler's horizon.  After a refresh too, the replica's process has
    one thread."""
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
        assert cluster.refresh_all() == {"replica-0": 0}
        tasks = Path(f"/proc/{cluster.replicas['replica-0'].pid}/task")
        if tasks.is_dir():  # Linux: the replica's process runs one thread
            assert len(list(tasks.iterdir())) == 1
        stats = cluster.replica_stats("replica-0")["stats"]
        assert stats["proxy"]["maintenance_runs"] >= 2
        assert stats["proxy"]["proxy_log_retained"] <= MAINTENANCE_INTERVAL_VERSIONS + 2
        assert stats["database"]["last_vacuum_horizon"] > 0
