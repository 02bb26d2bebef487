"""Length-prefixed JSON wire protocol for the live cluster.

Every message on a live-cluster TCP connection is one *frame*: a 4-byte
big-endian length followed by a UTF-8 JSON object.  Requests carry an ``op``
field plus op-specific payload; responses carry either ``ok: true`` and the
payload or ``ok: false`` with ``error``/``error_type`` fields.  The framing
is deliberately boring — the interesting property is that both sides can
always find the next message boundary, so a reader never has to guess where
a JSON document ends on a stream.

Two consumers share the format:

* the asyncio node server (:mod:`repro.live.server`, one per node whatever
  its role) uses :func:`read_frame` / :func:`encode_frame` on its streams;
* the callers use :class:`WireClient`, a socket with the same framing plus
  reconnect/retry helpers, in one of two modes: sequential blocking ``call``
  (the driver's :class:`~repro.live.client.LiveSession`, control-plane
  calls), or ``post`` on a client whose replies an event loop reads
  (``read_on``) — the replica's certifier client and the scheduler's remote
  WAL devices.

Multiplexing: a request may carry a ``rid`` (request id, unique per
connection); the response echoes it, which lets one connection carry many
in-flight calls and lets responses come back out of order.  Requests
*without* a ``rid`` keep the original strict request/response discipline:
the server answers them in arrival order before reading the next frame, so
a frame read after a write is always the answer to that write.  The
:class:`WireClient` tags each posted call with a ``rid`` (the event loop
given to ``read_on`` hands each response to its call's callback); its
sequential calls never send one.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import socket
import struct
import threading
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


def encode_frame(payload: dict) -> bytes:
    """Serialise one message to its on-wire form (length header + JSON)."""
    body = json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    message = json.loads(body.decode("utf-8"))
    if not isinstance(message, dict):
        raise WireError(f"expected a JSON object frame, got {type(message).__name__}")
    return message


# ---------------------------------------------------------------------------
# asyncio side (node servers)
# ---------------------------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader,
                     on_bytes: Callable[[int], None] | None = None) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a message boundary.

    ``on_bytes`` (when given) receives the frame's on-wire size — header
    included — for the node servers' byte accounting.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionLost("peer closed mid-header") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionLost("peer closed mid-frame") from exc
    if on_bytes is not None:
        on_bytes(_LEN.size + length)
    return decode_body(body)


# ---------------------------------------------------------------------------
# blocking side (drivers, inter-node clients)
# ---------------------------------------------------------------------------


def _recv_exactly(sock: socket.socket, length: int) -> bytes:
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionLost("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> tuple[dict, int]:
    """Read one frame; returns the message and its on-wire size."""
    (length,) = _LEN.unpack(_recv_exactly(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return decode_body(_recv_exactly(sock, length)), _LEN.size + length


class _Posted:
    """One :meth:`WireClient.post` call that has not been answered yet."""

    __slots__ = ("frame", "on_reply", "sent")

    def __init__(self, frame: bytes, on_reply: Callable[[dict], None]) -> None:
        self.frame = frame
        self.on_reply = on_reply
        self.sent = False  # it may have reached the peer: sending again is a resend


def _hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down so whoever reads it (a blocked ``recv``, or the
    loop waiting for it to turn readable) wakes."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already dead


class WireClient:
    """A blocking request/response client over one framed TCP connection.

    ``timeout`` bounds each socket operation (connect/send/recv), not a whole
    call — a slow but live peer keeps resetting the clock.  ``None`` means
    block forever (used by the test driver under the suite watchdog).

    :meth:`call` performs one round trip and unwraps the response envelope;
    :meth:`call_retrying` additionally survives peer restarts by reconnecting
    and resending — callers must only use it for idempotent ops (the live
    protocol makes the WAL append and certification ops idempotent via
    sequence numbers and transaction ids precisely so this is safe).

    After :meth:`read_on` the client posts its requests (:meth:`post`)
    instead: it tags each with a per-connection ``rid`` and the event loop
    given to ``read_on`` reads the responses and hands each to its caller's
    callback, so a second request does not wait for the first one's answer.
    Send order on the wire equals posting order.
    """

    def __init__(self, host: str, port: int, *, timeout: float | None = 30.0,
                 name: str = "client",
                 fallbacks: tuple[tuple[str, int], ...] = ()) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.name = name
        #: Alternate peer addresses (a promoted standby).  ``call_retrying``
        #: rotates to the next address when a dial is refused — the current
        #: peer is gone, not merely slow — so a client survives its peer
        #: being replaced by a different process on a different port.
        self._addresses: list[tuple[str, int]] = [(host, port), *fallbacks]
        self._address_index = 0
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
        # Posting-mode state, shared by the loop and the re-dial helper.
        # Lock order: _send_lock -> _posted_lock.
        self._send_lock = threading.Lock()
        self._posted_lock = threading.Lock()
        self._rids = itertools.count(1)
        #: Unanswered :meth:`post` calls by rid, oldest first, and whether a
        #: thread is busy re-dialling on their behalf.
        self._posted: dict[int, _Posted] = {}
        self._redialing = False
        #: The loop that reads the replies to posted calls (see read_on).
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- connection management ------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> None:
        with self._send_lock:
            self._connect_locked()

    def _connect_locked(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        if self._loop is None:
            return
        # Blocking socket: the loop owns recv (and the final close), senders
        # own send; a posted call waits for its answer as long as it takes.
        sock.settimeout(None)
        self._loop.call_soon_threadsafe(
            self._loop.add_reader, sock.fileno(), self._read_ready, sock)

    def read_on(self, loop: asyncio.AbstractEventLoop) -> None:
        """Make this a posting client whose replies ``loop`` reads: when the
        socket turns readable it reads the response and runs its call's
        callback in place, on the loop's own thread.  Call before the first
        request."""
        self._loop = loop

    def close(self) -> None:
        """Drop the connection; whatever is still posted is abandoned."""
        with self._send_lock:
            with self._posted_lock:
                self._posted.clear()
            self._close_locked()

    def _close_locked(self) -> None:
        """Swap out and close the socket; caller holds ``_send_lock``.

        The socket swap must happen under the send lock or a concurrent
        sender can grab a socket that is being closed under it (and a
        concurrent ``_connect_locked`` can install a fresh socket that this
        close then throws away).  Split from :meth:`close` because the
        re-dial already holds the lock when it drops a poisoned connection.
        """
        sock = self._sock
        self._sock = None
        if sock is not None:
            _hang_up(sock)  # a posting client's loop wakes, and closes it
            if self._loop is None:
                sock.close()

    # -- replies, read on the loop ---------------------------------------------

    def _read_ready(self, sock: socket.socket) -> None:
        """On the loop: a response (or EOF) is there."""
        try:
            response, size = _recv_frame(sock)
        except (OSError, WireError, ValueError):
            self._loop.remove_reader(sock.fileno())
            if self._connection_lost(sock):
                threading.Thread(target=self._redial, daemon=True,
                                 name=f"wire-redial-{self.name}").start()
            return
        with self._posted_lock:
            self.frames_received += 1
            self.bytes_received += size
            call = self._posted.pop(int(response.get("rid", -1)), None)
        if call is not None:  # else a call close() abandoned: the frame is dropped
            call.on_reply(response)

    def _connection_lost(self, sock: socket.socket) -> bool:
        """This connection is dead (peer crash or local close()); every
        caller still waiting on it must re-dial and resend.  The swap
        happens under the send lock so an in-progress sender never has the
        socket yanked out from under its feet; only this dead socket is
        cleared (a re-dial may already have installed a fresh one).  True:
        calls are still posted and nobody is re-dialling for them yet — the
        caller must."""
        with self._send_lock:
            if self._sock is sock:
                self._sock = None
            redial = bool(self._posted) and not self._redialing
            self._redialing |= redial
        sock.close()
        self.reconnects += redial
        return redial

    # -- posted calls -----------------------------------------------------------

    def post(self, op: str, on_reply: Callable[[dict], None], **fields: object) -> None:
        """Send a request and return; ``on_reply(response)`` — the raw
        envelope, ``ok`` unchecked — runs on the loop given to
        :meth:`read_on`, which must have been called.

        The call stays *posted* until it is answered: when the connection
        dies, or the peer is not up yet, a background re-dial sends every
        posted call again, in posting order, on the new connection — so only
        idempotent ops may be posted, and ``on_reply`` must not raise.
        Nothing here waits for the peer; :meth:`close` abandons the rest.
        """
        assert self._loop is not None, "read_on(loop) first: the loop reads the replies"
        with self._send_lock:
            rid = next(self._rids)
            call = _Posted(encode_frame({"op": op, "rid": rid, **fields}), on_reply)
            with self._posted_lock:
                self._posted[rid] = call
                self.in_flight_high_water = max(self.in_flight_high_water, len(self._posted))
            if self._sock is not None:
                self._send_posted(self._sock, call)
            elif not self._redialing:  # first call, or the peer is not there yet
                self._redialing = True
                threading.Thread(target=self._redial, daemon=True,
                                 name=f"wire-redial-{self.name}").start()

    def _send_posted(self, sock: socket.socket, call: _Posted) -> bool:
        """Caller holds ``_send_lock``.  A failed send hangs the connection
        up: the loop notices and owns the re-dial."""
        self.resends += call.sent
        call.sent = True  # even a failed send may have reached the peer
        try:
            sock.sendall(call.frame)
        except OSError:
            _hang_up(sock)
            return False
        self.frames_sent += 1
        self.bytes_sent += len(call.frame)
        return True

    def _redial(self) -> None:
        """Dial until the peer answers, then send everything still posted, in
        posting order — on a helper thread, so the loop never waits for a
        dial.  A refused dial rotates to the next address, as in
        :meth:`call_retrying`."""
        attempt = 0
        while True:
            with self._send_lock:
                with self._posted_lock:
                    posted = list(self._posted.values())
                try:
                    if posted:
                        self._connect_locked()
                except OSError:
                    self._rotate_locked()
                else:
                    if all(self._send_posted(self._sock, call) for call in posted):
                        self._redialing = False
                        return
                    self._close_locked()
            attempt += 1
            time.sleep(min(0.02 * attempt, 0.2))

    # -- calls ----------------------------------------------------------------

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
        except (OSError, EOFError) as exc:
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
                # The next call() re-dials from scratch.
                with self._send_lock:
                    self._close_locked()
                self.reconnects += 1
                if exc.request_sent:
                    # The request may already have reached the peer before
                    # the connection died, so the retry is a *resend*.  Dial
                    # refusals never sent anything — counting them here would
                    # inflate the maybe-duplicate accounting consumers like
                    # the remote WAL device build on.
                    self.resends += 1
                elif len(self._addresses) > 1:
                    # Dial refused: this peer is gone, not slow.  Rotate to
                    # the next known address (a standby scheduler) so the
                    # retry dials whoever is supposed to take over.
                    self._rotate_address()
                if deadline_s is not None and time.monotonic() - start > deadline_s:
                    raise
            attempt += 1
            time.sleep(backoff_s(attempt, retry_interval_s))

    def _rotate_address(self) -> None:
        with self._send_lock:
            self._rotate_locked()

    def _rotate_locked(self) -> None:
        if self._sock is not None:
            return  # a concurrent caller already reconnected somewhere
        self._address_index = (self._address_index + 1) % len(self._addresses)
        self.host, self.port = self._addresses[self._address_index]

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
        return f"WireClient({self.host}:{self.port}, {state}, calls={self.calls})"
