"""Unit tests for `WireClient` crash-surface behavior (`repro/live/wire.py`).

In-process socket servers (plain threads, no subprocesses) let these pin
down the exact accounting and scoping rules the live crash tests build on:

* `resends` counts only retries whose request frame may have reached the
  peer — a dial refusal (connect raised before any bytes went out) must
  not inflate the maybe-duplicate counter `RemoteWalDevice.resent_batches`
  derives from it;
* socket swap-out (close / reader-loop death) is `_send_lock`-protected,
  so concurrent posters and closers never race a half-closed socket;
* the streaming `RemoteWalDevice` keeps several shipped batches in flight,
  counts fsync groups (not batches), and after a lost connection resends
  everything unacknowledged, in order, releasing each batch exactly once.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.live.wal import RemoteWalDevice
from repro.live.wire import ConnectionLost, WireClient

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
        self._thread = threading.Thread(target=self._serve, daemon=True)
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
                worker = threading.Thread(
                    target=self._serve_conn, args=(conn,), daemon=True)
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


# -- lock-protected socket swap-out ------------------------------------------


def test_concurrent_close_and_calls_do_not_race():
    server = _MiniServer(lambda request: {"ok": True})
    try:
        client = WireClient("127.0.0.1", server.port, timeout=1.0, pipelined=True)
        stop = threading.Event()
        errors = []

        def poster():
            while not stop.is_set():
                try:
                    client.post("ping", lambda response: None)
                except Exception as exc:  # noqa: BLE001 - the race under test
                    errors.append(exc)
                time.sleep(0.001)

        threads = [threading.Thread(target=poster) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Hammer close() against live posters and the re-dials they start;
        # the lock-protected swap must keep this free of crashes, deadlocks
        # and AttributeErrors.
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            client.close()
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "poster thread deadlocked"
        assert not errors
        # The client is still usable: a fresh post is answered.
        answered = threading.Event()
        client.post("ping", lambda response: answered.set())
        assert answered.wait(5.0)
        client.close()
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
    try:
        client = WireClient("127.0.0.1", server.port, timeout=1.0, pipelined=True)
        answered: list = []
        got_c = threading.Event()
        client.post("a", lambda response: answered.append("a"))
        client.post("b", lambda response: answered.append("b"))
        client.post("c", lambda response: (answered.append("c"), got_c.set()))
        assert got_c.wait(5.0)
        # a was answered before the hang-up and is not sent again; b and c
        # are, in posting order, on the new connection.
        assert seen == ["a", "b", "c", "b", "c"] and answered == ["a", "c"]
        assert client.resends == 2 and client.reconnects == 1
        client.close()  # abandons b: nothing re-dials on its behalf any more
        time.sleep(0.2)
        assert seen == ["a", "b", "c", "b", "c"] and not client.connected
    finally:
        server.stop()


def test_posted_replies_can_be_read_by_an_event_loop_instead_of_a_thread():
    """``read_on(loop)``: the replies are delivered on the loop's own thread
    (no reader thread, no hand-off), and a lost connection is still re-dialled
    and resent on."""
    import asyncio

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
        client = WireClient("127.0.0.1", server.port, timeout=1.0, pipelined=True,
                            name="looped")
        client.read_on(loop)
        delivered_on: list = []
        done = threading.Event()

        def on_reply(name):
            def deliver(response):
                delivered_on.append((name, threading.current_thread()))
                if name == "b":
                    done.set()
            return deliver

        client.post("a", on_reply("a"))
        client.post("b", on_reply("b"))
        assert done.wait(5.0)
        assert seen == ["a", "b", "b"]
        assert delivered_on == [("a", runner), ("b", runner)]
        assert client.resends == 1 and client.reconnects == 1
        assert "wire-reader-looped" not in {t.name for t in threading.enumerate()}
        client.close()
    finally:
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=2.0)
        server.stop()


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
    try:
        device = RemoteWalDevice("127.0.0.1", server.port, shard_id=0)
        durable: list[str] = []
        for name, payloads in (("a", [b"1"]), ("b", [b"2", b"3"]), ("c", [b"4", b"5"])):
            for payload in payloads:
                device.append(payload)
            device.ship(lambda name=name: durable.append(name))  # returns at once
        device.sync()  # ship (nothing pending) + wait for everything in flight
        # seq = the record offset each batch ends at; one ack per batch, in order.
        assert appends == [(1, 1), (3, 2), (5, 2)]
        assert durable == ["a", "b", "c"]
        assert device.sync_count == 2  # fsync groups, not batches
        stats = device.wire_stats()
        assert stats["calls"] == 3 and stats["resends"] == 0
        assert device.bytes_written == 5
        device.close()
    finally:
        server.stop()


def test_wal_device_resends_everything_unacknowledged_in_order():
    """The shard dies holding batch 2 (and batch 3 behind it): after the
    re-dial both are sent again, in order, under their old offsets, and each
    batch's callback runs exactly once."""
    appends: list = []
    server = _MiniServer(_fake_shard(appends, hang_up_on={2}))
    try:
        lock = threading.RLock()
        device = RemoteWalDevice("127.0.0.1", server.port, shard_id=1, lock=lock)
        durable: list[int] = []
        with lock:  # the owner ships under its own lock; acks wait for it
            for seq in (1, 2, 3):
                device.append(b"x")
                device.ship(lambda seq=seq: durable.append(seq))
            assert durable == []
            device.sync()  # waiting releases the lock to the reader thread
        assert durable == [1, 2, 3]
        seqs = [seq for seq, _ in appends]
        assert seqs[:2] == [1, 2] and seqs[-2:] == [2, 3], seqs
        assert 1 <= device.resent_batches <= 2  # batch 3 may not have left yet
        assert device.wire_stats()["calls"] == 3
        assert device.wire_stats()["reconnects"] == 1
        device.close()
    finally:
        server.stop()


def test_wal_device_waits_out_a_shard_that_is_not_there_yet():
    port = _free_port()
    device = RemoteWalDevice("127.0.0.1", port, attempt_timeout_s=0.2)
    device.append(b"x")
    device.ship()
    appends: list = []
    time.sleep(0.1)  # refused dials: nothing was sent, nothing to resend
    server = _MiniServer(_fake_shard(appends), port=port)
    try:
        device.sync()
        assert appends == [(1, 1)] and device.resent_batches == 0
        device.close()
    finally:
        server.stop()


def test_wal_device_stress_many_shippers_one_reader():
    """More shipping threads than cores share one device (and its lock) with
    its reader thread, under a shortened GIL switch interval: every batch is
    acknowledged exactly once, in shipping order, and the shard sees the
    record offsets gapless — a lost update on the offset, the in-flight
    queue or the counters would break one of these."""
    import sys

    appends: list = []
    server = _MiniServer(_fake_shard(appends))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        lock = threading.RLock()
        device = RemoteWalDevice("127.0.0.1", server.port, lock=lock)
        shipped: list[int] = []
        durable: list[int] = []
        threads, per_thread = 8, 150

        def shipper(index: int) -> None:
            for n in range(per_thread):
                with lock:  # append + ship are one step for the owner
                    device.append(b"x" * (1 + n % 3))
                    ticket = len(shipped)
                    shipped.append(ticket)
                    device.ship(lambda ticket=ticket: durable.append(ticket))

        workers = [threading.Thread(target=shipper, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        assert not any(worker.is_alive() for worker in workers)
        waiter = threading.Thread(target=device.sync)
        waiter.start()
        waiter.join(timeout=30.0)
        assert not waiter.is_alive(), "sync() never saw the stream drain"
        total = threads * per_thread
        assert durable == list(range(total))
        assert [seq for seq, _ in appends] == list(range(1, total + 1))
        assert device.wire_stats()["calls"] == total and device.sync_count == total
        device.close()
    finally:
        sys.setswitchinterval(interval)
        server.stop()
