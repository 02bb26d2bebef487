"""Length-prefixed JSON wire protocol for the live cluster.

Every message on a live-cluster TCP connection is one *frame*: a 4-byte
big-endian length followed by a UTF-8 JSON object.  Requests carry an ``op``
field plus op-specific payload; responses carry either ``ok: true`` and the
payload or ``ok: false`` with ``error``/``error_type`` fields.  The framing
is deliberately boring — the interesting property is that both sides can
always find the next message boundary, so a reader never has to guess where
a JSON document ends on a stream.

On an event loop the format is read by one framer, :class:`FrameDecoder`
(sans-IO: bytes in, whole frames out), under one ``asyncio.Protocol`` per
connection — in the node server (:mod:`repro.live.server`), and in a posting
:class:`WireClient` (``read_on``: the replica's certifier client and the
scheduler's remote WAL devices), whose loop re-dials with no thread and no
lock.  The blocking side is :class:`WireClient`'s sequential ``call`` (the
driver's :class:`~repro.live.client.LiveSession`, control-plane calls, and
the two calls a node makes before its loop runs).

Multiplexing: a request may carry a ``rid`` (request id, unique per
connection); the response echoes it, which lets one connection carry many
in-flight calls and lets responses come back out of order.  Requests
*without* a ``rid`` keep the original strict request/response discipline:
the server answers each before it dispatches the next frame, so a frame read
after a write is always the answer to that write.  The :class:`WireClient`
tags each posted call with a ``rid``; its sequential calls never send one.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import random
import socket
import struct
import time
from typing import Callable

from repro.errors import ReproError

#: Frames beyond this size indicate a corrupted stream (or a runaway
#: payload); both sides refuse them instead of trying to allocate.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class WireError(ReproError):
    """Base class for live-cluster wire failures."""


class ConnectionLost(WireError):
    """The TCP peer vanished mid-conversation (crash, kill -9, shutdown).

    ``request_sent`` records whether the request frame was (possibly) written
    to the socket before the failure.  A dial refusal — ``connect()`` raised
    before any bytes went out — sets it ``False``; exactly-once accounting
    uses the flag to tell "the peer may have this request" (a retry is a
    *resend*) from "the peer never heard from us" (a retry is just another
    dial).  The default is the conservative ``True``.
    """

    def __init__(self, message: str, *, request_sent: bool = True) -> None:
        super().__init__(message)
        self.request_sent = request_sent


class FrameTooLarge(WireError):
    """A frame header announced more than :data:`MAX_FRAME_BYTES`."""


#: Error types a peer answers without acting on the request — a standby not
#: promoted yet, or a decision whose log write is still in flight: asking
#: again later is safe, and is not a resend.
REFUSALS = ("NotPromoted", "NotDurableYet")


def backoff_s(attempt: int, interval_s: float = 0.2) -> float:
    """Jittered wait before retry number ``attempt``: many clients losing the
    same peer (a scheduler restart) must not re-dial in lockstep, or the
    revived listener eats a synchronized thundering herd on every tick."""
    return min(interval_s * min(attempt, 5), 1.0) * (0.5 + 0.5 * random.random())


class RemoteCallError(WireError):
    """The peer processed the request and answered with an error."""

    def __init__(self, op: str, error: str, error_type: str = "error",
                 reason: str | None = None) -> None:
        super().__init__(f"remote op {op!r} failed: {error}")
        self.op = op
        self.error = error
        self.error_type = error_type
        #: Abort reason carried by transaction-level failures.
        self.reason = reason


def check_ok(op: str, response: dict) -> dict:
    """``response`` itself when it says ``ok``; the error it carries otherwise."""
    if not response.get("ok", False):
        raise RemoteCallError(
            op,
            str(response.get("error", "unknown remote error")),
            error_type=str(response.get("error_type", "error")),
            reason=response.get("reason"),
        )
    return response


# ---------------------------------------------------------------------------
# frame encoding (shared by sync and async paths)
# ---------------------------------------------------------------------------


_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def encode_frame(payload: dict) -> bytes:
    """Serialise one message to its on-wire form (length header + JSON)."""
    body = _ENCODER.encode(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    message = json.loads(body.decode("utf-8"))
    if not isinstance(message, dict):
        raise WireError(f"expected a JSON object frame, got {type(message).__name__}")
    return message


class FrameDecoder:
    """Sans-IO framing: the bytes a connection reads go in (:meth:`feed`),
    whole frames come out (:meth:`next_frame`), one at a time and in order.
    A partial frame stays buffered until the rest of it is fed."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def next_frame(self) -> tuple[dict, int] | None:
        """The oldest whole frame's message and on-wire size (header
        included), or ``None`` while no whole frame is buffered."""
        buffer = self._buffer
        if len(buffer) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(buffer)
        if length > MAX_FRAME_BYTES:
            raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        end = _LEN.size + length
        if len(buffer) < end:
            return None
        body = buffer[_LEN.size:end]
        del buffer[:end]  # a bytearray drops its head without moving the rest
        return decode_body(body), end


# ---------------------------------------------------------------------------
# blocking side (drivers, inter-node clients)
# ---------------------------------------------------------------------------


def _recv_frame(sock: socket.socket) -> tuple[dict, int]:
    """Read one frame; returns the message and its on-wire size.  Nothing
    follows it: a blocking caller has one request, rid-less, in flight."""
    decoder = FrameDecoder()
    while (frame := decoder.next_frame()) is None:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionLost("peer closed the connection")
        decoder.feed(chunk)
    return frame


class _Posted:
    """One :meth:`WireClient.post` call that has not been answered yet."""

    __slots__ = ("frame", "on_reply", "sent")

    def __init__(self, frame: bytes, on_reply: Callable[[dict], None]) -> None:
        self.frame = frame
        self.on_reply = on_reply
        self.sent = False  # it may have reached the peer: sending again is a resend


class _Replies(asyncio.Protocol):
    """A posting :class:`WireClient`'s connection: each reply read goes to
    its call's callback in place; ``closed`` resolves when the connection is
    lost (a frame that does not decode loses it too)."""

    def __init__(self, client: "WireClient") -> None:
        self._client = client
        self._decoder = FrameDecoder()
        self._transport: asyncio.Transport | None = None
        self.closed = client._loop.create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.closed.done():
            self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._decoder.feed(data)
        while True:
            try:
                frame = self._decoder.next_frame()
            except (WireError, ValueError):  # a frame that does not decode
                return self._transport.close()
            if frame is None:
                return
            self._client._replied(*frame)  # a callback does not raise (see post)


class WireClient:
    """A request/response client over one framed TCP connection.

    ``timeout`` bounds each dial and, for blocking calls, each socket
    operation (connect/send/recv), not a whole call — a slow but live peer
    keeps resetting the clock.  ``None`` means block forever (used by the
    test driver under the suite watchdog).

    :meth:`call` performs one blocking round trip and unwraps the response
    envelope; :meth:`call_retrying` additionally survives peer restarts by
    reconnecting and resending — callers must only use it for idempotent ops
    (the live protocol makes the WAL append and certification ops idempotent
    via sequence numbers and transaction ids precisely so this is safe).

    After :meth:`read_on` the client posts its requests (:meth:`post`)
    instead, over a connection the given event loop owns: it tags each
    request with a per-connection ``rid``, a task on that loop dials and
    re-dials, and the connection's protocol decodes the replies
    (:class:`FrameDecoder`) and hands each to its caller's callback as it is
    read — so a second request does not wait for the first one's answer, and
    a peer that stops mid-frame stalls only this connection, never the loop.
    Send order on the wire equals posting order.
    """

    def __init__(self, host: str, port: int, *, timeout: float | None = 30.0,
                 name: str = "client",
                 fallbacks: tuple[tuple[str, int], ...] = ()) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.name = name
        #: Alternate peer addresses (a promoted standby).  A refused dial
        #: rotates to the next address — the current peer is gone, not
        #: merely slow — so a client survives its peer being replaced by a
        #: different process on a different port.
        self._addresses: list[tuple[str, int]] = [(host, port), *fallbacks]
        self._address_index = 0
        #: The blocking connection (sequential calls).
        self._sock: socket.socket | None = None
        self.calls = 0
        #: Reconnects for any reason (including clean re-dials after an idle
        #: peer restart that did not interrupt a call).
        self.reconnects = 0
        #: Requests that had to be *resent* because the connection died after
        #: the request may already have reached the peer.  Kept separate from
        #: ``reconnects`` so exactly-once accounting can tell a clean re-dial
        #: from a potential duplicate delivery.
        self.resends = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Highest number of simultaneously posted, unanswered calls.
        self.in_flight_high_water = 0
        # Posting mode: all of it is touched on the loop given to read_on only.
        self._rids = itertools.count(1)
        #: Unanswered :meth:`post` calls by rid, oldest first.
        self._posted: dict[int, _Posted] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The posting connection's transport while it is up, and the task
        #: that dials it and re-dials it (see _converse).
        self._transport: asyncio.Transport | None = None
        self._conversation: asyncio.Task | None = None

    # -- connection management ------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None or self._transport is not None

    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def read_on(self, loop: asyncio.AbstractEventLoop) -> None:
        """Make this a posting client whose connection ``loop`` owns: it
        dials on the first post and runs each reply's callback on its own
        thread.  Call before the first post; a connection earlier blocking
        calls opened is closed, and the loop dials afresh."""
        self._loop = loop
        self.close()

    def close(self) -> None:
        """Drop the connection; whatever is still posted is abandoned."""
        self._posted.clear()
        if self._conversation is not None:
            self._conversation.cancel()
            self._conversation = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _rotate_address(self) -> None:
        self._address_index = (self._address_index + 1) % len(self._addresses)
        self.host, self.port = self._addresses[self._address_index]

    # -- posted calls -----------------------------------------------------------

    def post(self, op: str, on_reply: Callable[[dict], None], **fields: object) -> None:
        """Send a request and return; ``on_reply(response)`` — the raw
        envelope, ``ok`` unchecked — runs on the loop given to
        :meth:`read_on`, which must have been called.  Call on that loop.

        The call stays *posted* until it is answered: when the connection
        dies, or the peer is not up yet, the loop re-dials and sends every
        posted call again, in posting order, on the new connection — so only
        idempotent ops may be posted, and ``on_reply`` must not raise.
        Nothing here waits for the peer; :meth:`close` abandons the rest.
        """
        assert self._loop is not None, "read_on(loop) first: the loop reads the replies"
        rid = next(self._rids)
        call = _Posted(encode_frame({"op": op, "rid": rid, **fields}), on_reply)
        self._posted[rid] = call
        self.in_flight_high_water = max(self.in_flight_high_water, len(self._posted))
        if self._transport is not None:
            self._send_posted(self._transport, call)
        elif self._conversation is None:  # first call, or lost while idle
            self._conversation = self._loop.create_task(self._converse())

    def _send_posted(self, transport: asyncio.Transport, call: _Posted) -> None:
        """Buffered, never blocks; a connection that fails under it is
        noticed by its protocol, and the conversation re-dials."""
        self.resends += call.sent
        call.sent = True  # even a failed send may have reached the peer
        transport.write(call.frame)
        self.frames_sent += 1
        self.bytes_sent += len(call.frame)

    def _replied(self, response: dict, size: int) -> None:
        self.frames_received += 1
        self.bytes_received += size
        call = self._posted.pop(int(response.get("rid", -1)), None)
        if call is not None:  # else a call close() abandoned
            call.on_reply(response)

    async def _converse(self) -> None:
        """Dial until the peer answers and send everything posted, in
        posting order; the replies are read as they come (:class:`_Replies`).
        After a lost connection do it again while any call is still posted.
        A dial that fails or times out rotates to the next address, as in
        :meth:`call_retrying`."""
        attempt = 0
        while self._posted:
            try:
                transport, replies = await asyncio.wait_for(self._loop.create_connection(
                    functools.partial(_Replies, self), self.host, self.port), self.timeout)
            except OSError:  # refused, unreachable or timed out
                self._rotate_address()
                attempt += 1
                await asyncio.sleep(min(0.02 * attempt, 0.2))
                continue
            attempt = 0
            self._transport = transport
            for call in list(self._posted.values()):
                self._send_posted(transport, call)
            try:
                await replies.closed
            finally:
                if self._transport is transport:
                    self._transport = None
                transport.close()
            self.reconnects += bool(self._posted)
        self._conversation = None

    # -- blocking calls ---------------------------------------------------------

    def call(self, op: str, **fields: object) -> dict:
        """One request/response round trip; raises on transport or remote error."""
        assert self._loop is None, "a posting client posts its requests"
        self._send_sequential(op, fields)
        response = self._receive_sequential(op)
        self.calls += 1
        return check_ok(op, response)

    def _send_sequential(self, op: str, fields: dict) -> None:
        try:
            self.connect()
        except OSError as exc:
            # Dial refused: nothing was sent, so a retry is not a resend.
            raise ConnectionLost(
                f"{op} to {self.host}:{self.port} failed: {exc}",
                request_sent=False) from exc
        try:
            frame = encode_frame({"op": op, **fields})
            self._sock.sendall(frame)
        except OSError as exc:
            self.close()  # poisoned mid-exchange; the next call starts clean
            raise ConnectionLost(f"{op} to {self.host}:{self.port} failed: {exc}") from exc
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    def _receive_sequential(self, op: str) -> dict:
        try:
            response, size = _recv_frame(self._sock)
        except (OSError, ConnectionLost) as exc:
            self.close()  # poisoned mid-exchange; the next call starts clean
            raise ConnectionLost(f"{op} to {self.host}:{self.port} failed: {exc}") from exc
        self.frames_received += 1
        self.bytes_received += size
        return response

    def call_retrying(self, op: str, *, deadline_s: float | None = None,
                      retry_interval_s: float = 0.2,
                      **fields: object) -> dict:
        """Call, reconnecting and resending until it succeeds.

        Survives the peer being killed and restarted on the same port (the
        harness restarts nodes on their original port).  ``deadline_s`` of
        ``None`` retries forever — the per-test watchdog is the backstop, and
        a deliberately killed node is always restarted by the test choreography.
        """
        start = time.monotonic()
        attempt = 0
        while True:
            try:
                return self.call(op, **fields)
            except RemoteCallError as exc:
                if exc.error_type not in REFUSALS:
                    raise
                # A standby answered but is not serving yet, or the answer
                # is a decision whose log write is still in flight.  The
                # request was refused without effect — wait and try again
                # (not a resend: refusal is a definitive non-delivery).
                if deadline_s is not None and time.monotonic() - start > deadline_s:
                    raise ConnectionLost(
                        f"{op} to {self.host}:{self.port}: still "
                        f"{exc.error_type} after {deadline_s}s") from exc
            except ConnectionLost as exc:
                # The failed call() closed the connection; the next one
                # re-dials from scratch.
                self.reconnects += 1
                if exc.request_sent:
                    # The request may already have reached the peer before
                    # the connection died, so the retry is a *resend*.  Dial
                    # refusals never sent anything — counting them here would
                    # inflate the maybe-duplicate accounting consumers like
                    # the remote WAL device build on.
                    self.resends += 1
                else:
                    # Dial refused: this peer is gone, not slow.  Rotate to
                    # the next known address (a standby scheduler) so the
                    # retry dials whoever is supposed to take over.
                    self._rotate_address()
                if deadline_s is not None and time.monotonic() - start > deadline_s:
                    raise
            attempt += 1
            time.sleep(backoff_s(attempt, retry_interval_s))

    # -- observability --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "calls": self.calls,
            "reconnects": self.reconnects,
            "resends": self.resends,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "in_flight_high_water": self.in_flight_high_water,
        }

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "WireClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"WireClient({self.name}, {self.host}:{self.port}, {state}, calls={self.calls})"
