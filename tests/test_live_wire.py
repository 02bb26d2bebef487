"""Unit tests for `WireClient` crash-surface behavior (`repro/live/wire.py`).

In-process socket servers (plain threads, no subprocesses) let these pin
down the exact accounting and scoping rules the live crash tests build on:

* `resends` counts only retries whose request frame may have reached the
  peer — a dial refusal (connect raised before any bytes went out) must
  not inflate the maybe-duplicate counter `RemoteWalDevice.resent_batches`
  derives from it;
* posted calls live on the event loop given to `read_on` — the loop that
  posts them dials, re-dials and reads their replies, with no thread — so
  closing the client between posts never races a send, and a peer that
  stops mid-frame stalls only its connection, never the loop;
* the streaming `RemoteWalDevice` on that loop keeps several shipped
  batches in flight, counts fsync groups (not batches), and after a lost
  connection resends everything unacknowledged, in order, releasing each
  batch exactly once.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time

import pytest

from repro.live.wal import RemoteWalDevice
from repro.live.wire import ConnectionLost, WireClient

pytestmark = pytest.mark.live  # localhost sockets, under the live watchdog

_LEN = struct.Struct(">I")


def _recv_exactly(conn, length):
    data = b""
    while len(data) < length:
        chunk = conn.recv(length - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _read_request(conn):
    (length,) = _LEN.unpack(_recv_exactly(conn, _LEN.size))
    return json.loads(_recv_exactly(conn, length))


def _send_response(conn, payload):
    body = json.dumps(payload).encode()
    conn.sendall(_LEN.pack(len(body)) + body)


class _MiniServer:
    """A one-thread framed server with a pluggable request handler.

    The handler returns a response dict, or ``None`` to drop the request on
    the floor (simulates a wedged peer for that call).
    """

    def __init__(self, handler, port=0):
        self._handler = handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", port))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="mini-server")
        self._thread.start()

    def _serve(self):
        self._listener.settimeout(0.1)
        conns = []
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                conns.append(conn)
                worker = threading.Thread(target=self._serve_conn, args=(conn,),
                                          daemon=True, name="mini-server-conn")
                worker.start()
        finally:
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_conn(self, conn):
        try:
            while True:
                request = _read_request(conn)
                response = self._handler(request)
                if response is None:
                    continue  # wedged: never answer this one
                if response == "hang up":
                    conn.close()  # crashed: this and everything behind it lost
                    return
                if "rid" in request:
                    response = {**response, "rid": request["rid"]}
                _send_response(conn, response)
        except (OSError, EOFError):
            pass

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=2.0)
        try:
            self._listener.close()
        except OSError:
            pass


def _free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _on_a_loop(scenario, timeout_s=10.0):
    """Run ``scenario()`` on a fresh event loop: the loop that posts is the
    loop that reads the replies, as in a node."""
    return asyncio.run(asyncio.wait_for(scenario(), timeout_s))


def _threads():
    """The live threads other than the scripted peers' own: compared before
    and after a re-dial, it shows that the client started none (a set, not a
    count, so a thread an earlier test left ending cannot hide one)."""
    return {thread for thread in threading.enumerate()
            if not thread.name.startswith("mini-server")}


async def _until(predicate, timeout_s=5.0):
    """Yield to the loop (which reads the replies) until ``predicate()``."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.001)


# -- resend accounting: dial refusal vs interrupted exchange -----------------


def test_dial_refusal_is_not_a_resend():
    # Nothing listens on the port: every retry is a fresh dial that never
    # wrote a byte.  reconnects tick, resends must not.
    client = WireClient("127.0.0.1", _free_port(), timeout=0.2)
    with pytest.raises(ConnectionLost) as excinfo:
        client.call_retrying("ping", deadline_s=0.8, retry_interval_s=0.05)
    assert excinfo.value.request_sent is False
    assert client.resends == 0
    assert client.reconnects >= 1


def test_kill_then_retry_while_down_splits_resends_from_reconnects():
    # An established connection dies mid-exchange (request possibly
    # delivered: one resend), then stays down across further retries (dial
    # refusals: reconnects only).  This is the split RemoteWalDevice's
    # resent_batches relies on.
    server = _MiniServer(lambda request: {"ok": True})
    client = WireClient("127.0.0.1", server.port, timeout=0.5)
    assert client.call("ping")["ok"]
    server.stop()  # kill the peer; client still holds the dead connection
    with pytest.raises(ConnectionLost):
        client.call_retrying("ping", deadline_s=1.0, retry_interval_s=0.05)
    # Exactly one attempt had its frame on the wire (the first, over the
    # already-established connection); every later attempt was refused at
    # dial time and must not count as a maybe-duplicate.
    assert client.resends == 1
    assert client.reconnects > 1


def test_dial_refusal_raises_before_anything_is_sent():
    client = WireClient("127.0.0.1", _free_port(), timeout=0.2)
    with pytest.raises(ConnectionLost) as excinfo:
        client.call("ping")
    assert excinfo.value.request_sent is False


# -- closing between posts --------------------------------------------------


def test_concurrent_close_and_calls_do_not_race():
    server = _MiniServer(lambda request: {"ok": True})

    async def scenario():
        loop = asyncio.get_running_loop()
        client = WireClient("127.0.0.1", server.port, timeout=1.0)
        client.read_on(loop)
        stop = False
        errors = []

        async def poster():
            while not stop:
                try:
                    client.post("ping", lambda response: None)
                except Exception as exc:  # noqa: BLE001 - the race under test
                    errors.append(exc)
                await asyncio.sleep(0.001)

        posters = [asyncio.ensure_future(poster()) for _ in range(4)]
        # Hammer close() against live posts and the re-dial helpers they
        # start; the lock-protected swap must keep this free of crashes,
        # deadlocks and AttributeErrors.
        deadline = loop.time() + 1.0
        while loop.time() < deadline:
            client.close()
            await asyncio.sleep(0.01)
        stop = True
        await asyncio.gather(*posters)
        assert not errors
        # The client is still usable: a fresh post is answered.
        answered = loop.create_future()
        client.post("ping", lambda response: answered.set_result(True))
        assert await asyncio.wait_for(answered, 5.0)
        client.close()

    try:
        _on_a_loop(scenario)
    finally:
        server.stop()


# -- failover address rotation ----------------------------------------------


def test_dial_refusal_rotates_to_fallback_address():
    standby = _MiniServer(lambda request: {"ok": True, "who": "standby"})
    try:
        dead_port = _free_port()
        client = WireClient("127.0.0.1", dead_port, timeout=0.5,
                            fallbacks=(("127.0.0.1", standby.port),))
        response = client.call_retrying("ping", deadline_s=5.0,
                                        retry_interval_s=0.02)
        assert response["who"] == "standby"
        assert client.resends == 0  # rotation happened on refused dials only
    finally:
        standby.stop()


def test_not_promoted_answer_is_retried_without_resend_accounting():
    promoted = threading.Event()

    def handler(request):
        if not promoted.is_set():
            return {"ok": False, "error": "standby not promoted",
                    "error_type": "NotPromoted"}
        return {"ok": True, "who": "standby"}

    server = _MiniServer(handler)
    try:
        client = WireClient("127.0.0.1", server.port, timeout=1.0)
        timer = threading.Timer(0.3, promoted.set)
        timer.start()
        response = client.call_retrying("ping", deadline_s=5.0,
                                        retry_interval_s=0.05)
        assert response["who"] == "standby"
        assert client.resends == 0
        timer.cancel()
    finally:
        server.stop()


# -- posted calls ----------------------------------------------------------------


def test_posted_calls_are_resent_in_order_until_answered_or_abandoned():
    seen: list = []
    hung_up = threading.Event()

    def handler(request):
        seen.append(request["op"])
        if request["op"] == "c" and not hung_up.is_set():
            hung_up.set()
            return "hang up"
        return None if request["op"] == "b" else {"ok": True}  # b: never answered

    server = _MiniServer(handler)

    async def scenario():
        threads = _threads()
        client = WireClient("127.0.0.1", server.port, timeout=1.0)
        client.read_on(asyncio.get_running_loop())
        answered: list = []
        client.post("a", lambda response: answered.append("a"))
        client.post("b", lambda response: answered.append("b"))
        client.post("c", lambda response: answered.append(("c", _threads() <= threads)))
        await _until(lambda: len(answered) == 2)
        # a was answered before the hang-up and is not sent again; b and c
        # are, in posting order, on the new connection — re-dialled on the
        # loop, with no thread started for it.
        assert seen == ["a", "b", "c", "b", "c"] and answered == ["a", ("c", True)]
        assert client.resends == 2 and client.reconnects == 1
        assert _threads() <= threads
        client.close()  # abandons b: nothing re-dials on its behalf any more
        await asyncio.sleep(0.2)
        assert seen == ["a", "b", "c", "b", "c"] and not client.connected

    try:
        _on_a_loop(scenario)
    finally:
        server.stop()


def test_posted_replies_can_be_read_by_an_event_loop_instead_of_a_thread():
    """``read_on(loop)``: the replies are delivered on the loop's own thread
    (no reader thread, no hand-off), and a lost connection is still re-dialled
    and resent on.  Posting and closing happen on that loop too."""
    seen: list = []
    hung_up = threading.Event()

    def handler(request):
        seen.append(request["op"])
        if request["op"] == "b" and not hung_up.is_set():
            hung_up.set()
            return "hang up"
        return {"ok": True}

    server = _MiniServer(handler)
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    try:
        threads = _threads()
        client = WireClient("127.0.0.1", server.port, timeout=1.0, name="looped")
        client.read_on(loop)
        delivered_on: list = []
        done = threading.Event()

        def on_reply(name):
            def deliver(response):
                delivered_on.append((name, threading.current_thread()))
                if name == "b":
                    done.set()
            return deliver

        loop.call_soon_threadsafe(client.post, "a", on_reply("a"))
        loop.call_soon_threadsafe(client.post, "b", on_reply("b"))
        assert done.wait(5.0)
        assert seen == ["a", "b", "b"]
        assert delivered_on == [("a", runner), ("b", runner)]
        assert client.resends == 1 and client.reconnects == 1
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("wire-reader")]
        assert _threads() <= threads
        loop.call_soon_threadsafe(client.close)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=2.0)
        server.stop()


def test_a_peer_that_stops_mid_frame_stalls_its_connection_not_the_loop():
    """The peer sends a reply's header and a few body bytes, then pauses for
    a second (a SIGSTOP'd or wedged node looks the same): the posting loop
    keeps running — a timer armed before the bytes arrive fires on time —
    and the reply is delivered whole once the rest of it comes."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    asked, go, done = threading.Event(), threading.Event(), threading.Event()

    def peer():
        conn, _ = listener.accept()
        with conn:
            request = _read_request(conn)
            body = json.dumps({"ok": True, "rid": request["rid"],
                               "pad": "x" * 64}).encode()
            frame = _LEN.pack(len(body)) + body
            asked.set()
            go.wait(5.0)
            conn.sendall(frame[:_LEN.size + 6])
            time.sleep(1.0)
            conn.sendall(frame[_LEN.size + 6:])
            done.wait(5.0)

    serving = threading.Thread(target=peer, daemon=True, name="mini-server-stall")
    serving.start()

    async def scenario():
        loop = asyncio.get_running_loop()
        client = WireClient("127.0.0.1", listener.getsockname()[1], timeout=1.0)
        client.read_on(loop)
        replies: list = []
        client.post("ping", replies.append)
        await _until(asked.is_set)
        fired = loop.create_future()
        deadline = loop.time() + 0.2
        loop.call_at(deadline, lambda: fired.set_result(loop.time()))
        go.set()  # the partial frame arrives while the timer is pending
        late_s = await fired - deadline
        assert late_s < 0.1, f"the loop stalled: its timer fired {late_s * 1000:.0f} ms late"
        assert replies == []
        await _until(lambda: replies)
        assert replies == [{"ok": True, "rid": 1, "pad": "x" * 64}]
        assert client.frames_received == 1 and client.reconnects == 0
        client.close()

    try:
        _on_a_loop(scenario)
    finally:
        done.set()
        serving.join(timeout=5.0)
        listener.close()


# -- the streaming WAL device ---------------------------------------------------


def _fake_shard(appends, *, group_of=lambda seq: seq, hang_up_on=()):
    """A shard that acknowledges ``wal_append`` frames (cumulatively by rid),
    naming fsync group ``group_of(seq)``; it drops the connection, once, on
    the first arrival of each seq in ``hang_up_on``."""
    dropped = set()

    def handler(request):
        seq = request["seq"]
        appends.append((seq, len(request["payloads"])))
        if seq in hang_up_on and seq not in dropped:
            dropped.add(seq)
            return "hang up"
        return {"ok": True, "applied": True, "group": group_of(seq)}
    return handler


def test_wal_device_streams_batches_and_counts_fsync_groups():
    appends: list = []
    # Records 1-3 (two batches) share fsync group 1; records 4-5 are group 2.
    server = _MiniServer(_fake_shard(appends, group_of=lambda seq: 1 if seq <= 3 else 2))

    async def scenario():
        device = RemoteWalDevice("127.0.0.1", server.port, shard_id=0)
        device.read_on(asyncio.get_running_loop())
        durable: list[str] = []
        for name, payloads in (("a", [b"1"]), ("b", [b"2", b"3"]), ("c", [b"4", b"5"])):
            for payload in payloads:
                device.append(payload)
            device.ship(lambda name=name: durable.append(name))  # returns at once
        assert durable == []
        await _until(lambda: len(durable) == 3)
        # seq = the record offset each batch ends at; one ack per batch, in order.
        assert appends == [(1, 1), (3, 2), (5, 2)]
        assert durable == ["a", "b", "c"]
        assert device.sync_count == 2  # fsync groups, not batches
        stats = device.wire_stats()
        assert stats["calls"] == 3 and stats["resends"] == 0
        assert device.bytes_written == 5
        device.close()

    try:
        _on_a_loop(scenario)
    finally:
        server.stop()


def test_wal_device_resends_everything_unacknowledged_in_order():
    """The shard dies holding batch 2 (and batch 3 behind it): after the
    re-dial both are sent again, in order, under their old offsets, and each
    batch's callback runs exactly once."""
    appends: list = []
    server = _MiniServer(_fake_shard(appends, hang_up_on={2}))

    async def scenario():
        threads = _threads()
        device = RemoteWalDevice("127.0.0.1", server.port, shard_id=1)
        device.read_on(asyncio.get_running_loop())
        durable: list[int] = []
        for seq in (1, 2, 3):
            device.append(b"x")
            device.ship(lambda seq=seq: durable.append(seq))
        assert durable == []  # the acks are read by this loop, once it yields
        await _until(lambda: len(durable) == 3)
        assert durable == [1, 2, 3]
        assert _threads() <= threads  # the re-dial started none
        seqs = [seq for seq, _ in appends]
        assert seqs[:2] == [1, 2] and seqs[-2:] == [2, 3], seqs
        assert 1 <= device.resent_batches <= 2  # batch 3 may not have left yet
        assert device.wire_stats()["calls"] == 3
        assert device.wire_stats()["reconnects"] == 1
        device.close()

    try:
        _on_a_loop(scenario)
    finally:
        server.stop()


def test_wal_device_waits_out_a_shard_that_is_not_there_yet():
    port = _free_port()
    appends: list = []
    servers = []

    async def scenario():
        device = RemoteWalDevice("127.0.0.1", port, attempt_timeout_s=0.2)
        device.read_on(asyncio.get_running_loop())
        durable: list[bool] = []
        device.append(b"x")
        device.ship(lambda: durable.append(True))
        await asyncio.sleep(0.1)  # refused dials: nothing was sent, nothing to resend
        servers.append(_MiniServer(_fake_shard(appends), port=port))
        await _until(lambda: durable)
        assert appends == [(1, 1)] and device.resent_batches == 0
        device.close()

    try:
        _on_a_loop(scenario)
    finally:
        for server in servers:
            server.stop()


def test_wal_device_stress_one_loop_ships_while_it_reads_acks():
    """Many shipping tasks share one device on the loop that reads its
    acknowledgements, while the shard drops the connection once mid-stream
    and the loop re-dials and resends under a shortened GIL switch interval:
    every batch is acknowledged exactly once, in shipping order, and the
    shard sees every record offset, first arrivals in order — a lost update
    on the offset, the in-flight queue or the counters would break one of
    these."""
    import sys

    tasks, per_task = 8, 150
    total = tasks * per_task
    appends: list = []
    server = _MiniServer(_fake_shard(appends, hang_up_on={total // 2}))

    async def scenario():
        threads = _threads()
        device = RemoteWalDevice("127.0.0.1", server.port)
        device.read_on(asyncio.get_running_loop())
        shipped: list[int] = []
        durable: list[int] = []

        async def shipper(index: int) -> None:
            for n in range(per_task):
                device.append(b"x" * (1 + n % 3))
                ticket = len(shipped)
                shipped.append(ticket)
                device.ship(lambda ticket=ticket: durable.append(ticket))
                await asyncio.sleep(0)  # let the loop read acks in between

        await asyncio.gather(*(shipper(i) for i in range(tasks)))
        await _until(lambda: len(durable) == total, timeout_s=30.0)
        assert durable == list(range(total))
        seqs = [seq for seq, _ in appends]
        assert sorted(set(seqs)) == list(range(1, total + 1))
        assert list(dict.fromkeys(seqs)) == list(range(1, total + 1))
        stats = device.wire_stats()
        assert stats["calls"] == total and device.sync_count == total
        assert stats["reconnects"] == 1
        assert _threads() <= threads
        device.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _on_a_loop(scenario, timeout_s=60.0)
    finally:
        sys.setswitchinterval(interval)
        server.stop()
