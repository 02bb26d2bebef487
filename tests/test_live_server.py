"""The one node server and the three op tables, driven in-process.

Everything here but the last two tests runs without a subprocess: roles are
built as the node process builds them and driven through
:func:`repro.live.server.call` / :func:`~repro.live.server.lookup`, or served
by :func:`~repro.live.server.start_server` on the test's own event loop and
spoken to over a localhost socket.

* one golden table per role — adding, dropping or re-placing an op is a
  visible diff here (and in ``docs/deployment.md``, which
  ``tools/check_docs.py`` holds to the same tables);
* for **every** scheduler op: an unpromoted standby answers it iff its table
  entry says so, and otherwise refuses with the retryable ``NotPromoted``;
* the placements run every handler on the loop, an ASYNC one answering by
  callback; the replica, scheduler and server modules start no thread, and
  a burst of commits starts no task on the loop the three roles share;
* the request boundary: an unknown op and a frame whose ``rid`` is not an
  integer are answered with an error envelope on the still-open connection;
* one framer per connection: frames are dispatched and answered in arrival
  order, a rid-less frame holds back
  everything after it until it is answered, a frame that does not decode
  closes the connection after the answers before it, a client that reads
  nothing stops the server reading from it, and a client that hangs up with
  ASYNC work outstanding leaves nothing behind;
* ``close_session`` aborts a transaction its session left open;
* the entry point imports no role module until ``--role`` names one, and
  each role imports only the packages it runs.
"""

from __future__ import annotations

import ast
import asyncio
import gc
import os
import pkgutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import ReplicationConfig, SystemKind
from repro.engine.table import TableSchema
from repro.errors import TransactionAborted
from repro.live.cluster import LiveCluster
from repro.live import server
from repro.live.node import ROLES, build_parser
from repro.live.replica import ReplicaRole
from repro.live.scheduler import SchedulerRole, _CertifyBatcher
from repro.live.server import (
    ASYNC,
    INLINE,
    Op,
    Role,
    _Connection,
    call,
    dispatch,
    lookup,
    start_server,
    write_spec,
)
from repro.live.shard import CertifierShardRole, _call
from test_live_release import certify_payload, make_role
from repro.live.wire import (MAX_FRAME_BYTES, FrameDecoder, RemoteCallError, decode_body,
                             encode_frame)

#: role -> op -> (placement, answered by an unpromoted standby?), in table order.
GOLDEN = {
    "certifier-shard": {
        "wal_append": (ASYNC, False),
        "wal_read": (ASYNC, False),
        "wal_stats": (INLINE, False),
        "stats": (INLINE, False),
        "ping": (INLINE, False),
    },
    "scheduler": {
        "certify": (ASYNC, False),
        "state_transfer": (INLINE, False),
        "standby_status": (INLINE, True),
        "promote": (ASYNC, True),
        "commit_status": (INLINE, False),
        "hello_replica": (INLINE, False),
        "poll_writesets": (INLINE, False),
        "register_replica": (INLINE, False),
        "replication_horizon": (INLINE, False),
        "collect_garbage": (INLINE, False),
        "system_version": (INLINE, False),
        "stats": (INLINE, True),
        "ping": (INLINE, True),
    },
    "replica": {
        "open_session": (INLINE, False),
        "close_session": (INLINE, False),
        "session_batch": (ASYNC, False),
        "begin": (INLINE, False),
        "read": (INLINE, False),
        "scan": (INLINE, False),
        "insert": (INLINE, False),
        "update": (INLINE, False),
        "delete": (INLINE, False),
        "abort": (INLINE, False),
        "commit": (ASYNC, False),
        "refresh": (ASYNC, False),
        "dump_table": (INLINE, False),
        "replica_version": (INLINE, False),
        "stats": (INLINE, False),
        "ping": (INLINE, False),
    },
}


@pytest.mark.parametrize("role_name", sorted(ROLES))
def test_op_table_matches_its_golden(role_name):
    role = pkgutil.resolve_name(ROLES[role_name])
    table = role.ops
    assert list(table) == list(GOLDEN[role_name])
    assert {op: (entry.placement, entry.standby) for op, entry in table.items()} \
        == GOLDEN[role_name]
    assert role.role_name == role_name
    # A placement means one thing: no per-mode stand-in rides in the row.
    assert Op._fields == ("handler", "placement", "standby")


# -- the standby column -----------------------------------------------------------


@pytest.fixture
def standby(tmp_path) -> SchedulerRole:
    """A cold, unpromoted standby scheduler; its shard address is never dialled
    (the real devices stay: ``stats`` reads their wire counters)."""
    spec = tmp_path / "spec.json"
    write_spec(spec, ReplicationConfig(live_scheduler_standby=True), ())
    return SchedulerRole(build_parser().parse_args(
        ["--role", "scheduler", "--spec", str(spec), "--standby",
         "--shard", "127.0.0.1:1"]))


@pytest.mark.parametrize("op", list(SchedulerRole.ops))
def test_unpromoted_standby_answers_exactly_what_its_table_says(standby, op):
    entry = SchedulerRole.ops[op]
    assert not standby.promoted
    if entry.standby:
        assert lookup(standby, op) is entry
    else:
        with pytest.raises(RemoteCallError) as refusal:
            lookup(standby, op)
        assert refusal.value.error_type == "NotPromoted"
    standby.promoted = True  # what a successful ``promote`` ends with
    assert lookup(standby, op) is entry


def test_a_promotion_cut_short_answers_the_calls_waiting_for_it(standby):
    """A promotion whose task is cancelled (its loop shutting down) still
    answers every ``promote`` waiting on it, with an error."""
    async def scenario():
        answers: list = []
        for _ in range(2):
            dispatch(standby, "promote", {}, answers.append)
        standby._promotion.cancel()
        for _ in range(10):
            await asyncio.sleep(0)
        return answers

    answers = asyncio.run(scenario())
    assert [type(answer) for answer in answers] == [RemoteCallError] * 2
    assert not standby.promoted and standby._promotion is None


def test_standby_control_plane_is_answered_and_data_plane_refused_end_to_end(standby):
    assert call(standby, "ping", {})["role"] == "scheduler"
    status = call(standby, "standby_status", {})
    assert status["standby"] and not status["promoted"] and not status["seeded"]
    assert call(standby, "stats", {})["promoted"] is False
    for op in ("system_version", "commit_status", "hello_replica"):
        with pytest.raises(RemoteCallError, match="standby not promoted"):
            call(standby, op, {"tx_id": "t", "replica": "r"})
    # The refusal happens at the server, the ASYNC certify included.
    answers: list = []
    dispatch(standby, "certify", {}, answers.append)
    (refusal,) = answers
    assert isinstance(refusal, RemoteCallError) and refusal.error_type == "NotPromoted"


# -- placements -------------------------------------------------------------------


class Probe(Role):
    """Every placement once; each handler reports where it ran.  ``hold``
    keeps its ``reply`` on :attr:`held` for the test to call."""

    role_name = "probe"

    def __init__(self) -> None:
        super().__init__()
        self.held: list = []

    def where(self, payload: dict) -> dict:
        return {"thread": threading.current_thread().name}

    def later(self, payload: dict, reply) -> None:
        asyncio.get_running_loop().call_soon(reply, {**self.where(payload), "later": True})

    ops = {
        "inline": Op(where),
        "later": Op(later, ASYNC),
        "hold": Op(lambda self, payload, reply: self.held.append(reply), ASYNC),
        "blob": Op(lambda self, payload: {"pad": "x" * payload["size"]}),
        "silent": Op(lambda self, payload: None),
    }


def test_pipelined_placements_run_where_the_table_says():
    """On the loop: the INLINE one answered in place, the ASYNC one by the
    callback that settles it."""
    async def scenario():
        answers = []
        for op in ("inline", "later"):
            dispatch(Probe(), op, {}, answers.append)
        in_place = list(answers)
        await asyncio.sleep(0)
        return in_place, answers

    on_loop = {"thread": threading.current_thread().name}
    assert asyncio.run(scenario()) == ([on_loop], [on_loop, {**on_loop, "later": True}])


@pytest.mark.parametrize("module", ["replica", "scheduler", "server", "wire", "wal", "client"])
def test_the_replica_scheduler_and_server_start_no_thread(module):
    """Their state is the loop's alone: no thread pool, no lock — also in the
    wire client, the WAL device and the certifier client they post through."""
    path = Path(__file__).parents[1] / "src" / "repro" / "live" / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not imported & {"threading", "concurrent", "concurrent.futures"}


async def _shut_down(servers, roles) -> None:
    """Stop serving, drop every outbound connection and end every task."""
    for listener in servers:
        listener.close()
    for role in roles:
        for device in getattr(role, "devices", ()):
            device.close()
        if isinstance(role, ReplicaRole):
            role.cert_client.close()
    tasks = asyncio.all_tasks() - {asyncio.current_task()}
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def test_a_burst_of_commits_starts_no_task_on_any_roles_loop(tmp_path, monkeypatch):
    """A shard, a scheduler and a replica served on one loop; 200 tagged
    ``session_batch`` commits in one write — each a ``certify`` at the
    scheduler and a ``wal_append`` at the shard — leave the number of tasks
    on that loop where it was: the data plane answers by callback."""
    monkeypatch.chdir(tmp_path)  # the replica's engine WAL
    spec = tmp_path / "spec.json"
    write_spec(spec, ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1),
               [TableSchema("counters", ("id", "value"), "id")])
    parse = build_parser().parse_args
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, name="roles-loop", daemon=True)
    runner.start()
    servers, roles = [], []

    def serve(role: Role) -> int:
        listener = asyncio.run_coroutine_threadsafe(
            start_server(role, "127.0.0.1", 0), loop).result(5.0)
        servers.append(listener)
        roles.append(role)
        return listener.sockets[0].getsockname()[1]

    shard_port = serve(CertifierShardRole(parse(
        ["--role", "certifier-shard", "--wal", str(tmp_path / "s.wal")])))
    scheduler_port = serve(SchedulerRole(parse(
        ["--role", "scheduler", "--spec", str(spec), "--shard", f"127.0.0.1:{shard_port}"])))
    replica_port = serve(ReplicaRole(parse(
        ["--role", "replica", "--name", "r0", "--spec", str(spec),
         "--scheduler", f"127.0.0.1:{scheduler_port}"])))
    commits = 200

    def batch(rid: int, session_id: int) -> dict:
        key = f"k{rid}"
        return {"op": "session_batch", "rid": rid, "session_id": session_id, "ops": [
            {"op": "begin"},
            {"op": "insert", "table": "counters", "key": key, "values": {"id": key, "value": 1}},
            {"op": "commit", "tx_id": f"t:{rid}"}]}

    counts: list[int] = []
    sampling = threading.Event()

    def sample() -> None:
        counts.append(len(asyncio.all_tasks(loop)))
        if sampling.is_set():
            loop.call_later(0.0005, sample)

    try:
        with socket.create_connection(("127.0.0.1", replica_port), timeout=10.0) as raw:
            sessions = []
            for _ in range(commits + 1):
                raw.sendall(encode_frame({"op": "open_session"}))
                sessions.append(receive(raw)["session_id"])
            raw.sendall(encode_frame(batch(commits, sessions[-1])))  # every connection is up
            assert receive(raw)["results"][-1]["ok"]
            sampling.set()
            loop.call_soon_threadsafe(sample)
            raw.sendall(b"".join(encode_frame(batch(rid, sessions[rid]))
                                 for rid in range(commits)))
            answers = [receive(raw) for _ in range(commits)]
            sampling.clear()
        assert sorted(answer["rid"] for answer in answers) == list(range(commits))
        assert all(answer["results"][-1]["ok"] for answer in answers)
        time.sleep(0.01)
        assert len(counts) > 10 and set(counts) == {counts[0]}, counts
    finally:
        asyncio.run_coroutine_threadsafe(_shut_down(servers, roles), loop).result(5.0)
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=5.0)
        loop.close()
        roles[0].wal.close()


def receive(sock: socket.socket) -> dict:
    """One frame off a blocking socket."""
    header = sock.recv(4, socket.MSG_WAITALL)
    return decode_body(sock.recv(int.from_bytes(header, "big"), socket.MSG_WAITALL))


# -- the request boundary, over a socket ------------------------------------------


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """One frame off a client's stream; ``None`` once the peer has closed."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError:
        return None
    return decode_body(await reader.readexactly(int.from_bytes(header, "big")))


def converse(role: Role, frames: list[dict]) -> list[dict]:
    """Serve ``role`` on this thread's loop; send ``frames`` down ONE
    connection, reading each answer before sending the next."""
    async def scenario():
        server = await start_server(role, "127.0.0.1", 0)
        async with server:
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            answers = []
            for frame in frames:
                writer.write(encode_frame(frame))
                await writer.drain()
                answers.append(await asyncio.wait_for(read_message(reader), 5.0))
            writer.close()
            return answers

    return asyncio.run(scenario())


@pytest.fixture
def shard(tmp_path):
    role = CertifierShardRole(build_parser().parse_args(
        ["--role", "certifier-shard", "--shard-id", "3", "--wal", str(tmp_path / "s.wal")]))
    yield role
    role.wal.close()


def test_bad_requests_are_answered_on_the_still_open_connection(shard):
    bad_rid, tagged, unknown, plain, appended = converse(shard, [
        {"op": "ping", "rid": "x"},
        {"op": "ping", "rid": 7},
        {"op": "vacuum"},
        {"op": "ping"},
        {"op": "wal_append", "rid": "8", "seq": 1, "payloads": ["aa"]},
    ])
    assert bad_rid == {"ok": False, "error": "rid must be an integer, got 'x'",
                       "error_type": "BadRequest", "reason": None}
    assert tagged == {"ok": True, "role": "certifier-shard", "shard_id": 3, "rid": 7}
    assert unknown == {"ok": False, "error": "unknown certifier-shard op 'vacuum'",
                       "error_type": "error", "reason": None}
    assert plain == {"ok": True, "role": "certifier-shard", "shard_id": 3}
    # A numeric string still counts, as it always did; the echo is the integer.
    assert appended == {"ok": True, "applied": True, "group": 1, "rid": 8}
    served = shard.server_stats.as_dict()
    assert served["frames_in"] == served["frames_out"] == 5 and served["connections"] == 1
    assert list(served) == ["connections", "frames_in", "frames_out", "bytes_in",
                            "bytes_out", "in_flight_high_water"]


def test_a_handler_with_nothing_to_say_answers_bare_ok():
    assert converse(Probe(), [{"op": "silent"}, {"op": "silent", "rid": 1}]) \
        == [{"ok": True}, {"ok": True, "rid": 1}]


# -- one framer per connection ------------------------------------------------------


class RecordingTransport(asyncio.Transport):
    """Keeps what a connection writes, one entry per ``write``."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[bytes] = []
        self.reading = True
        self.closed = False

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def connected(role: Role) -> tuple[_Connection, RecordingTransport]:
    connection, transport = _Connection(role), RecordingTransport()
    connection.connection_made(transport)
    return connection, transport


def segment(*frames: dict) -> bytes:
    """Frames as one read delivers them."""
    return b"".join(encode_frame(frame) for frame in frames)


def frames_of(data: bytes) -> list[dict]:
    decoder = FrameDecoder()
    decoder.feed(data)
    return [frame for frame, _ in iter(decoder.next_frame, None)]


def test_the_inline_replies_of_one_read_are_written_in_arrival_order():
    connection, transport = connected(Probe())
    connection.data_received(segment(*({"op": "inline", "rid": rid} for rid in (1, 2, 3))))
    assert [frame["rid"] for frame in frames_of(b"".join(transport.writes))] == [1, 2, 3]
    connection.data_received(segment({"op": "silent", "rid": 4}))
    assert frames_of(transport.writes[-1]) == [{"ok": True, "rid": 4}]


@pytest.mark.parametrize("tail", [(3).to_bytes(4, "big") + b"{x}",  # not JSON
                                  (MAX_FRAME_BYTES + 1).to_bytes(4, "big")])
def test_a_frame_that_does_not_decode_closes_the_connection_after_the_answers_before_it(tail):
    connection, transport = connected(Probe())
    connection.data_received(segment({"op": "silent", "rid": 1}) + tail)
    assert [frames_of(written) for written in transport.writes] == [[{"ok": True, "rid": 1}]]
    assert transport.closed


def test_a_certify_and_a_poll_in_one_segment_are_dispatched_in_arrival_order(
        tmp_path, monkeypatch):
    """A replica's refresh rides its certify connection in send order: the
    certify enters the round before the poll reads the directory.  The poll
    is answered in place; the certify once its log write is durable."""
    role, (device,) = make_role(tmp_path, shards=1)
    call(role, "hello_replica", {"replica": "r0", "from_version": 0})
    dispatched: list[str] = []
    original = server.dispatch

    def recording(role, op, payload, reply):
        dispatched.append(op)
        original(role, op, payload, reply)

    monkeypatch.setattr(server, "dispatch", recording)

    async def scenario():
        role._batcher = _CertifyBatcher(role, asyncio.get_running_loop())
        connection, transport = connected(role)
        connection.data_received(segment(
            {"op": "certify", "rid": 1, **certify_payload(role, "tx-1", [1])},
            {"op": "poll_writesets", "rid": 2, "advance_to": 0}))
        assert dispatched == ["certify", "poll_writesets"]
        assert [frame["rid"] for frame in frames_of(transport.writes[0])] == [2]
        await asyncio.sleep(0)  # the round is cut: admitted, held for its write
        assert len(transport.writes) == 1 and device.in_flight
        device.ack()
        ((answer,),) = [frames_of(written) for written in transport.writes[1:]]
        assert answer["rid"] == 1 and answer["result"]["decision"] == "commit"
        assert role.server_stats.in_flight == 0

    asyncio.run(scenario())


def test_rid_less_frames_are_answered_one_at_a_time():
    """Nothing after an unanswered rid-less frame is dispatched, and the
    connection stops reading, until it is answered."""
    probe = Probe()
    connection, transport = connected(probe)
    connection.data_received(segment({"op": "hold"}, {"op": "silent"},
                                     {"op": "silent", "rid": 5}))
    assert transport.writes == [] and not transport.reading
    assert probe.server_stats.frames_in == 1
    (reply,) = probe.held
    reply({"held": True})
    assert frames_of(b"".join(transport.writes)) == [
        {"ok": True, "held": True}, {"ok": True}, {"ok": True, "rid": 5}]
    assert transport.reading and probe.server_stats.in_flight == 0


@pytest.fixture
def connections(monkeypatch) -> list[_Connection]:
    """Every server-side connection made while the test runs; each socket's
    send buffer is 64 KiB, whatever the host's TCP tuning, so a test can
    fill it."""
    made: list[_Connection] = []
    connection_made = _Connection.connection_made

    def recording(self, transport):
        transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)
        made.append(self)
        connection_made(self, transport)

    monkeypatch.setattr(_Connection, "connection_made", recording)
    return made


async def until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.002)


def test_a_client_that_reads_nothing_stops_the_server_reading(connections):
    """Thousands of 8 KiB answers asked for, none read: the server stops
    reading and its unsent output stays bounded; once the client reads,
    every request is answered, in order."""
    requests, size = 3000, 8192

    async def scenario():
        loop = asyncio.get_running_loop()
        probe = Probe()
        listener = await start_server(probe, "127.0.0.1", 0)
        async with listener:
            client = socket.socket()
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            client.setblocking(False)
            with client:
                await loop.sock_connect(client, listener.sockets[0].getsockname()[:2])
                sending = asyncio.ensure_future(loop.sock_sendall(client, segment(
                    *({"op": "blob", "rid": rid, "size": size} for rid in range(requests)))))
                await until(lambda: connections)
                transport = connections[0]._transport
                await until(lambda: not transport.is_reading())
                buffered = []
                for _ in range(20):
                    buffered.append(transport.get_write_buffer_size())
                    assert not transport.is_reading()
                    await asyncio.sleep(0.005)
                assert max(buffered) < 1 << 20, buffered
                assert probe.server_stats.frames_out < requests
                decoder, rids = FrameDecoder(), []
                while len(rids) < requests:
                    data = await asyncio.wait_for(loop.sock_recv(client, 1 << 16), 5.0)
                    assert data, "the server hung up"
                    decoder.feed(data)
                    rids += [frame["rid"] for frame, _ in iter(decoder.next_frame, None)]
                await sending
        assert rids == list(range(requests))

    asyncio.run(scenario())


def test_a_hang_up_with_async_work_outstanding_drops_the_late_replies(
        tmp_path, shard, connections, monkeypatch):
    """One ``certify`` held for the durable frontier and one ``wal_append``
    queued behind a write in progress, and the client hangs up: the late
    replies go nowhere, ``in_flight`` returns to 0, nothing is left for the
    loop to complain about, and the next client is answered normally."""
    scheduler, (device,) = make_role(tmp_path, shards=1)
    monkeypatch.setattr(scheduler, "start", lambda loop: setattr(
        scheduler, "_batcher", _CertifyBatcher(scheduler, loop)))
    roles = (scheduler, shard)
    complaints: list[dict] = []

    async def ask(port: int, frame: dict):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(encode_frame(frame))
        return reader, writer

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, context: complaints.append(context))
        listeners = [await start_server(role, "127.0.0.1", 0) for role in roles]
        ports = [listener.sockets[0].getsockname()[1] for listener in listeners]
        certify = {"op": "certify", "rid": 1, **certify_payload(scheduler, "tx-1", [1])}
        shard._writing = True  # a write is in progress: the append queues behind it
        clients = [await ask(ports[0], certify),
                   await ask(ports[1], {"op": "wal_append", "rid": 1, "seq": 1,
                                        "payloads": ["aa"]})]
        await until(lambda: device.in_flight and shard._queue)
        assert [role.server_stats.in_flight for role in roles] == [1, 1]
        for _, writer in clients:
            writer.close()
        await until(lambda: len(connections) == 2
                    and all(c._transport is None for c in connections))
        sent = [role.server_stats.frames_out for role in roles]
        device.ack()  # the decision is released ...
        shard._write_queued(_call)  # ... and the append written
        assert [role.server_stats.frames_out for role in roles] == sent == [0, 0]
        assert [role.server_stats.in_flight for role in roles] == [0, 0]
        assert shard.wal.records == 1 and scheduler.tx_table["tx-1"]["committed"]

        certify = {"op": "certify", "rid": 2, **certify_payload(scheduler, "tx-2", [2])}
        reader, writer = await ask(ports[0], certify)
        await until(lambda: device.in_flight)
        device.ack()
        answer = await asyncio.wait_for(read_message(reader), 5.0)
        assert answer["rid"] == 2 and answer["result"]["tx_commit_version"] == 2
        writer.close()
        reader, writer = await ask(ports[1], {"op": "wal_append", "rid": 2, "seq": 2,
                                               "payloads": ["bb"]})
        answer = await asyncio.wait_for(read_message(reader), 5.0)
        assert answer == {"ok": True, "applied": True, "group": 2, "rid": 2}
        writer.close()
        for listener in listeners:
            listener.close()
        gc.collect()

    asyncio.run(scenario())
    gc.collect()
    assert complaints == []


#: Packages no node process runs: the simulator, its cluster models, the
#: workload generators and the report formatting.
NOT_ON_ANY_NODE = ("repro.cluster", "repro.sim", "repro.workloads", "repro.analysis")
#: What else each role's process must not import.
NOT_IN_ROLE = {
    "certifier-shard": ("repro.middleware", "repro.consensus", "repro.recovery",
                        "repro.transport"),
    "scheduler": (),
    "replica": ("repro.consensus", "repro.recovery"),
}


def _imported_by(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    return subprocess.run(
        [sys.executable, "-c", f"{code}; import sys; print(*sys.modules, sep='\\n')"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True).stdout.splitlines()


def test_the_entry_point_imports_no_role_until_one_is_chosen():
    """A node process imports what its role runs and nothing else.  Before
    the package namespaces loaded their names on access, every node loaded
    the whole library: 62 ``repro`` modules for a shard, which runs 16, and
    ~45 ms more import time (130 → 85 ms; docs/benchmarks.md, "PR 34: cold
    start")."""
    modules = _imported_by("import repro.live.node")
    for module in ROLES.values():
        assert module.partition(":")[0] not in modules
    assert "repro.live.server" in modules
    for role, target in ROLES.items():
        modules = _imported_by(
            f"import pkgutil; pkgutil.resolve_name({target!r}); "
            "from repro.core.config import ReplicationConfig; ReplicationConfig()")
        assert target.partition(":")[0] in modules
        loaded = sorted(module for module in modules
                        for package in NOT_ON_ANY_NODE + NOT_IN_ROLE[role]
                        if module == package or module.startswith(package + "."))
        assert not loaded, f"{role} imports {loaded}"


# -- close_session (real processes: a replica needs its scheduler) ----------------


@pytest.mark.live
def test_close_session_aborts_the_transaction_it_leaves_open(tmp_path):
    config = ReplicationConfig(system=SystemKind.TASHKENT_MW, num_replicas=1,
                               certifier_shards=1, rng_seed=1)
    schemas = [TableSchema("counters", ("id", "value"), "id")]
    with LiveCluster(config, schemas, run_dir=tmp_path, keep_dir=True) as cluster:
        with cluster.session("replica-0") as loader:
            loader.begin()
            loader.insert("counters", "k", id="k", value=0)
            assert loader.commit().committed
        leaver = cluster.session("replica-0")
        leaver.begin()
        leaver.update("counters", "k", value=1)
        assert leaver.read("counters", "k")["value"] == 1  # ships begin + update
        leaver.close()  # row lock on k held, snapshot open
        database = cluster.replica_stats("replica-0")["stats"]["database"]
        assert database["active_transactions"] == 0
        for value in (2, 3, 4):
            with cluster.session("replica-0") as session:
                session.begin()
                session.update("counters", "k", value=value)
                try:
                    assert session.commit().committed
                except TransactionAborted as exc:  # pragma: no cover - the bug
                    pytest.fail(f"row lock leaked by the closed session: {exc.reason}")
        assert cluster.dump_table("replica-0", "counters")["k"]["value"] == 4
