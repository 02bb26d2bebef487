"""Unit tests for `WireClient` crash-surface behavior (`repro/live/wire.py`).

In-process socket servers (plain threads, no subprocesses) let these pin
down the exact accounting and scoping rules the live crash tests build on:

* `resends` counts only retries whose request frame may have reached the
  peer — a dial refusal (connect raised before any bytes went out) must
  not inflate the maybe-duplicate counter `RemoteWalDevice.resent_batches`
  derives from it;
* a pipelined call timeout is scoped to its own `rid` — the connection and
  every other in-flight call survive;
* socket swap-out (close / reader-loop death) is `_send_lock`-protected,
  so concurrent senders and closers never race a half-closed socket;
* a split-phase call (`begin_call` / `finish_call`) overlaps round trips to
  several peers, recovers a lost half with `call_retrying`'s accounting and
  never leaves a stale reply for the next call on the connection.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.engine.log_device import sync_all
from repro.live.wal import RemoteWalDevice
from repro.live.wire import CallTimedOut, ConnectionLost, WireClient

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

    def __init__(self, handler):
        self._handler = handler
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
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


def test_dial_refusal_mirrors_sequential_and_pipelined():
    port = _free_port()
    for pipelined in (False, True):
        client = WireClient("127.0.0.1", port, timeout=0.2, pipelined=pipelined)
        with pytest.raises(ConnectionLost) as excinfo:
            client.call("ping")
        assert excinfo.value.request_sent is False, f"pipelined={pipelined}"


# -- pipelined timeout: scoped blast radius ----------------------------------


def test_pipelined_timeout_spares_other_in_flight_calls():
    release = threading.Event()

    def handler(request):
        if request["op"] == "slow":
            release.wait(5.0)
        return {"ok": True, "op": request["op"]}

    server = _MiniServer(handler)
    try:
        client = WireClient("127.0.0.1", server.port, timeout=0.3, pipelined=True)
        results = {}

        def call_fast():
            time.sleep(0.05)  # enqueue after "slow" is on the wire
            results["fast"] = client.call("fast")

        fast_thread = threading.Thread(target=call_fast)
        fast_thread.start()
        with pytest.raises(CallTimedOut) as excinfo:
            client.call("slow")
        assert excinfo.value.request_sent is True
        release.set()
        fast_thread.join(timeout=2.0)
        # The timeout did not tear down the shared connection: the
        # concurrent call completed and the next call reuses the socket.
        assert results["fast"]["ok"]
        assert client.connected
        reconnects_before = client.reconnects
        assert client.call("fast2")["op"] == "fast2"
        assert client.reconnects == reconnects_before
    finally:
        server.stop()


def test_pipelined_timeout_late_response_is_dropped():
    def handler(request):
        if request["op"] == "never":
            return None  # wedged for this op
        return {"ok": True, "op": request["op"]}

    server = _MiniServer(handler)
    try:
        client = WireClient("127.0.0.1", server.port, timeout=0.2, pipelined=True)
        with pytest.raises(CallTimedOut):
            client.call("never")
        # The abandoned rid's slot is gone; a normal call on the same
        # connection still routes to the right waiter.
        assert client.call("ok-op")["op"] == "ok-op"
    finally:
        server.stop()


# -- lock-protected socket swap-out ------------------------------------------


def test_concurrent_close_and_calls_do_not_race(tmp_path):
    server = _MiniServer(lambda request: {"ok": True})
    try:
        client = WireClient("127.0.0.1", server.port, timeout=1.0, pipelined=True)
        stop = threading.Event()
        errors = []

        def caller():
            while not stop.is_set():
                try:
                    client.call_retrying("ping", deadline_s=2.0,
                                         retry_interval_s=0.01)
                except ConnectionLost as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Hammer close() against live senders; the lock-protected swap must
        # keep this free of crashes, deadlocks and AttributeErrors.
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            client.close()
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "caller thread deadlocked"
        assert not errors
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


# -- split-phase calls (begin_call / finish_call) and the WAL gather ---------


def test_split_phase_calls_to_two_peers_overlap():
    def slow(request):
        time.sleep(0.15)
        return {"ok": True, "op": request["op"]}

    servers = [_MiniServer(slow), _MiniServer(slow)]
    try:
        clients = [WireClient("127.0.0.1", s.port, timeout=2.0) for s in servers]
        for client in clients:
            client.connect()
        started = time.perf_counter()
        for index, client in enumerate(clients):
            client.begin_call(f"op-{index}")
        replies = [client.finish_call() for client in clients]
        elapsed = time.perf_counter() - started
        assert [reply["op"] for reply in replies] == ["op-0", "op-1"]
        assert elapsed < 0.27, f"two 150 ms calls took {elapsed * 1e3:.0f} ms"
        assert [client.calls for client in clients] == [1, 1]
        for client in clients:
            client.close()
    finally:
        for server in servers:
            server.stop()


def test_split_phase_lost_reply_is_resent_and_leaves_no_stale_frame():
    seen = []

    def handler(request):
        seen.append(request["op"])
        if seen == ["first"]:
            return None  # wedged for the first attempt: the reply never comes
        return {"ok": True, "op": request["op"]}

    server = _MiniServer(handler)
    try:
        client = WireClient("127.0.0.1", server.port, timeout=0.2)
        client.begin_call("first", seq=1)
        # The receive times out: the connection is closed (no stale reply can
        # surface later), the call stays begun, nothing was resent yet.
        assert client.finish_call(resend=False) is None
        assert not client.connected and client.resends == 0
        reply = client.finish_call(deadline_s=5.0)
        assert reply["op"] == "first"
        assert seen == ["first", "first"]
        assert (client.calls, client.resends) == (1, 1)
        # The next call on this client gets its own answer.
        assert client.call("second")["op"] == "second"
        client.close()
    finally:
        server.stop()


def test_split_phase_refused_dial_is_not_a_resend():
    client = WireClient("127.0.0.1", _free_port(), timeout=0.2)
    client.begin_call("ping")  # nothing listens: remembered, not raised
    assert client.finish_call(resend=False) is None
    with pytest.raises(ConnectionLost) as excinfo:
        client.finish_call(deadline_s=0.5)
    assert excinfo.value.request_sent is False
    assert client.resends == 0 and client.calls == 0


def test_wal_gather_survives_one_shard_losing_the_round():
    """Shard 1 never answers its first ``wal_append``; shard 0 does.  The
    gather must read shard 0's acknowledgement, resend shard 1's batch under
    the same seq, and leave both connections in step for the next round."""
    appends: list[list[int]] = [[], []]

    def shard(index):
        def handler(request):
            appends[index].append(request["seq"])
            if index == 1 and appends[1] == [1]:
                return None
            return {"ok": True, "applied": True, "last_seq": request["seq"]}
        return handler

    servers = [_MiniServer(shard(0)), _MiniServer(shard(1))]
    try:
        devices = [RemoteWalDevice("127.0.0.1", s.port, shard_id=i,
                                   attempt_timeout_s=0.3)
                   for i, s in enumerate(servers)]
        for round_no in (1, 2):
            for device in devices:
                device.append(b"round-%d" % round_no)
            sync_all(devices)
        assert appends == [[1, 2], [1, 1, 2]]
        assert [d.sync_count for d in devices] == [2, 2]
        assert [d.resent_batches for d in devices] == [0, 1]
        stats = [d.wire_stats() for d in devices]
        assert [s["calls"] for s in stats] == [2, 2]  # +1 per sync, resend or not
        # Shard 0's own send->ack wait does not include shard 1's outage.
        assert stats[0]["sync_wait_s"] < 0.25 < stats[1]["sync_wait_s"]
        for device in devices:
            device.close()
    finally:
        for server in servers:
            server.stop()
