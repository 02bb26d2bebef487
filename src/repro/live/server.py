"""The one asyncio server every live node runs.

Everything that is the same for a certifier shard, a scheduler and a replica:
the connection, the wire counters, the ``ok`` / ``rid`` / error envelope, the
wedge freeze and the **only** dispatcher.  A role declares one table ``op ->
Op(handler, placement, standby)``; how a frame's handler runs is decided here.
It always runs on the event loop, and no lock is held around it: the loop is
the only thread in a role's state (a certifier shard's log writer shares only
the shard's queue, behind the shard's own lock).

``INLINE``  ``handler(role, payload)`` returns the answer — work that never
            waits on another node;
``ASYNC``   ``handler(role, payload, reply)`` returns at once, and whatever
            settles the request (a certify round or release, the shard's log
            writer, a replica's certify answer) calls ``reply(answer)`` once.

A connection is one ``asyncio.Protocol`` over a
:class:`~repro.live.wire.FrameDecoder`.  The frames a read delivers are
dispatched in arrival order; each reply is written when it is produced, or
dropped if its client is gone.  A rid-less frame is answered before anything
after it is dispatched.  While the peer does not read (``pause_writing``),
the connection dispatches and reads nothing, so a slow reader holds back its
writer.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.config import ReplicationConfig, config_from_json, config_to_json
from repro.engine.table import TableSchema
from repro.errors import ReproError, TransactionAborted
from repro.live.harness import READY_PREFIX
from repro.live.wire import FrameDecoder, RemoteCallError, WireError, encode_frame

#: Returned by a role handler to make the whole process hang forever (the
#: deterministic "wedge" the crash tests SIGKILL through).
WEDGE = object()

INLINE, ASYNC = "inline", "async"


#: How an ASYNC handler answers: ``reply(answer)``, once — a dict, ``None``
#: (nothing to say), :data:`WEDGE`, or the exception the request failed with.
Reply = Callable[[Any], None]


class Op(NamedTuple):
    """One row of a role's op table: ``handler(role, payload)`` returns an
    INLINE op's answer; ``handler(role, payload, reply)`` starts an ASYNC one."""

    handler: Callable[..., Any]
    placement: str = INLINE
    #: Answered by a standby scheduler before its promotion (control plane).
    standby: bool = False


class ServerStats:
    """Per-node wire counters, served by every role's ``stats`` op."""

    def __init__(self) -> None:
        self.connections = 0
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.in_flight = 0
        self.in_flight_high_water = 0

    def as_dict(self) -> dict:
        """Every counter; ``in_flight`` is a gauge, only its high water is served."""
        return {key: value for key, value in vars(self).items() if key != "in_flight"}


class Role:
    """What the server needs of a node role.  A subclass sets ``role_name``
    (as the unknown-op error prints it), the ``ops`` table and
    ``describe()`` — its fields of the readiness handshake."""

    promoted = True  # only a standby scheduler is ever not

    def __init__(self) -> None:
        self.server_stats = ServerStats()

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Called once on the serving loop, before the first connection."""


def write_spec(path: Path, config: ReplicationConfig,
               schemas: Sequence[TableSchema]) -> None:
    """The cluster spec file every scheduler and replica node reads."""
    spec = {
        "config": config_to_json(config),
        "schemas": [{"name": s.name, "columns": list(s.columns),
                     "primary_key": s.primary_key} for s in schemas],
    }
    path.write_text(json.dumps(spec, indent=2), encoding="utf-8")


def load_spec(args: argparse.Namespace) -> tuple[ReplicationConfig, list[TableSchema]]:
    """The configuration and table schemas of ``--spec`` (defaults without one)."""
    if args.spec is None:
        return ReplicationConfig(), []
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    schemas = [TableSchema(name=s["name"], columns=tuple(s["columns"]),
                           primary_key=s["primary_key"]) for s in spec["schemas"]]
    return config_from_json(spec["config"]), schemas


def parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host or "127.0.0.1", int(port)


def freeze(op: str) -> None:
    """Wedge (on the loop thread): freeze the WHOLE process — a task-level
    wait would let retries on fresh connections be served, and the crash
    point would quietly heal itself before the kill -9 lands."""
    print(f"WEDGED op={op}", file=sys.stderr, flush=True)
    while True:
        time.sleep(3600)


def error_envelope(exc: Exception, *, unexpected_trace: bool = True) -> dict:
    """The wire error envelope for ``exc`` (same shape on every path)."""
    if isinstance(exc, RemoteCallError):
        return {"ok": False, "error": exc.error,
                "error_type": exc.error_type, "reason": exc.reason}
    if isinstance(exc, TransactionAborted):
        return {"ok": False, "error": str(exc),
                "error_type": "TransactionAborted", "reason": exc.reason}
    if unexpected_trace and not isinstance(exc, ReproError):
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    return {"ok": False, "error": str(exc), "error_type": type(exc).__name__}


def envelope(answer) -> dict:
    """The response envelope of a handler's answer: the error's for an
    exception, else ``ok`` with the answer's fields (``None``: nothing to say)."""
    if isinstance(answer, Exception):
        return error_envelope(answer)
    if answer is None:
        return {"ok": True}
    return answer if "ok" in answer else {"ok": True, **answer}


def lookup(role: Role, op: str) -> Op:
    """The entry that answers ``op`` on this node right now, or the refusal."""
    entry = role.ops.get(op)
    if entry is None:
        raise RemoteCallError(op, f"unknown {role.role_name} op {op!r}")
    if not (entry.standby or role.promoted):  # clients back off and retry
        raise RemoteCallError(op, "standby not promoted", error_type="NotPromoted")
    return entry


def call(role: Role, op: str, payload: dict):
    """Answer one INLINE op on the calling thread, as the loop does: how
    in-process tests drive a role with no sockets."""
    return lookup(role, op).handler(role, payload)


def dispatch(role: Role, op: str, payload: dict, reply: Reply) -> None:
    """Answer one request: ``reply`` gets an INLINE handler's answer (or the
    error it raised) in place; an ASYNC handler is handed ``reply`` and calls
    it once, from whatever settles the request."""
    try:
        entry = lookup(role, op)
        if entry.placement is ASYNC:
            return entry.handler(role, payload, reply)
        answer = entry.handler(role, payload)
    except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
        answer = exc
    reply(answer)


def _tagged(response: dict, rid: int | None) -> dict:
    return response if rid is None else {**response, "rid": rid}


class _Connection(asyncio.Protocol):
    """One client connection (see the module docstring)."""

    def __init__(self, role: Role) -> None:
        self._role = role
        self._stats = role.server_stats
        self._decoder = FrameDecoder()
        self._transport: asyncio.Transport | None = None
        self._handling = False  # inside _handle: it reads on by itself
        self._untagged = False  # a rid-less request is unanswered
        self._paused = False  # the peer is not reading: answer nothing more

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._stats.connections += 1

    def connection_lost(self, exc: Exception | None) -> None:
        self._transport = None  # what is still outstanding is answered to nobody

    def data_received(self, data: bytes) -> None:
        self._decoder.feed(data)
        self._handle()

    def pause_writing(self) -> None:
        self._paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._handle()

    def _handle(self) -> None:
        """Dispatch the frames read so far until one must be waited for."""
        self._handling = True
        try:
            while not (self._untagged or self._paused):
                try:
                    frame = self._decoder.next_frame()
                except (WireError, ValueError):  # a frame that does not decode
                    return self._transport.close()
                if frame is None:
                    break
                self._request(*frame)
        finally:
            self._handling = False
        if self._transport is not None:
            if self._untagged or self._paused:
                self._transport.pause_reading()
            else:
                self._transport.resume_reading()

    def _request(self, message: dict, size: int) -> None:
        stats = self._stats
        stats.frames_in += 1
        stats.bytes_in += size
        op = str(message.pop("op", ""))
        rid = message.pop("rid", None)
        if rid is None:
            # rid-less frames keep the strict one-in-flight discipline:
            # nothing after one is dispatched until it is answered.
            self._untagged = True
        else:
            try:
                rid = int(rid)
            except (TypeError, ValueError):
                # Nothing valid to echo: answered untagged, in order.
                return self._send(encode_frame(error_envelope(RemoteCallError(
                    op, f"rid must be an integer, got {rid!r}", error_type="BadRequest"))))
        stats.in_flight += 1
        stats.in_flight_high_water = max(stats.in_flight_high_water, stats.in_flight)
        dispatch(self._role, op, message, functools.partial(self._reply, op, rid))

    def _reply(self, op: str, rid: int | None, answer) -> None:
        self._stats.in_flight -= 1
        if answer is WEDGE:
            freeze(op)
        try:
            frame = encode_frame(_tagged(envelope(answer), rid))
        except (TypeError, ValueError, WireError) as exc:  # an answer that does not encode
            frame = encode_frame(_tagged(error_envelope(exc), rid))
        self._send(frame)
        if rid is None:
            self._untagged = False
            if not self._handling and self._transport is not None:
                self._handle()  # answered after its read: read on

    def _send(self, frame: bytes) -> None:
        """Written at once; past the high-water mark the transport calls
        :meth:`pause_writing`, and :meth:`_handle` stops before the next frame."""
        transport = self._transport
        if transport is None or transport.is_closing():
            return  # the client went away; its retry path owns recovery
        self._stats.frames_out += 1
        self._stats.bytes_out += len(frame)
        transport.write(frame)


async def start_server(role: Role, host: str, port: int) -> asyncio.Server:
    """Bind and start serving ``role`` on the running loop."""
    loop = asyncio.get_running_loop()
    role.start(loop)
    return await loop.create_server(functools.partial(_Connection, role), host, port)


async def serve(role: Role, args: argparse.Namespace) -> None:
    server = await start_server(role, args.host, args.port)
    port = server.sockets[0].getsockname()[1]
    handshake = {"role": args.role, "name": args.name, "port": port,
                 "host": args.host, "pid": os.getpid(), **role.describe()}
    print(READY_PREFIX + json.dumps(handshake), flush=True)
    async with server:
        await server.serve_forever()
