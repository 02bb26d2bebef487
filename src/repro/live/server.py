"""The one asyncio server every live node runs.

Everything that is the same for a certifier shard, a scheduler and a replica:
the frame loop, the wire counters, the ``ok`` / ``rid`` / error envelope, the
wedge freeze and the **only** dispatcher.  A role declares one table ``op ->
Op(handler, placement, standby)``; where a frame's handler runs is decided here:

``INLINE``  on the event loop under the role's lock — work that never waits on
            another node (safe on the loop: no role holds its lock across
            such a wait);
``POOLED``  on the role's executor under the role's lock — handlers that block
            on another node or do table-sized work (only the replica has any);
``ASYNC``   awaited on the loop without the lock — handlers that park on a
            future somebody else resolves (log writer, certification batcher,
            a promotion's shard reads, a replica's certification answer),
            taking the lock themselves for what they do to local state;
``BATCH``   a frame carrying a list of statements under ``ops``: async when
            any statement's own entry is, else pooled when any is, else
            inline.

Framing and ``rid`` multiplexing are :mod:`repro.live.wire`'s; the readiness
handshake line on stdout is :mod:`repro.live.harness`'s.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
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
from repro.live.wire import RemoteCallError, WireError, encode_frame, read_frame

#: Returned by a role handler to make the whole process hang forever (the
#: deterministic "wedge" the crash tests SIGKILL through).
WEDGE = object()

INLINE, POOLED, ASYNC, BATCH = "inline", "pooled", "async", "batch"


class Op(NamedTuple):
    """One row of a role's op table; ``handler(role, payload)`` answers it."""

    handler: Callable[[Any, dict], Any]
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
    ``describe()`` — its fields of the readiness handshake; a role whose
    state other threads touch too sets the ``lock`` held around every
    INLINE and POOLED handler, and one with POOLED ops the ``executor`` they
    run on."""

    promoted = True  # only a standby scheduler is ever not
    #: No lock by default: the loop is the only thread in the role's state.
    lock = contextlib.nullcontext()

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
        traceback.print_exc(file=sys.stderr)
    return {"ok": False, "error": str(exc), "error_type": type(exc).__name__}


def lookup(role: Role, op: str) -> Op:
    """The entry that answers ``op`` on this node right now, or the refusal."""
    entry = role.ops.get(op)
    if entry is None:
        raise RemoteCallError(op, f"unknown {role.role_name} op {op!r}")
    if not (entry.standby or role.promoted):  # clients back off and retry
        raise RemoteCallError(op, "standby not promoted", error_type="NotPromoted")
    return entry


def batch_placement(role: Role, payload: dict) -> str:
    """Where a BATCH frame runs: async when any statement's entry is, else
    pooled when any is, else inline."""
    placement = INLINE
    for statement in payload.get("ops", ()):
        entry = role.ops.get(statement.get("op"))
        if entry is None:
            continue  # answered by the batch with the unknown-op error
        if entry.placement is ASYNC:
            return ASYNC
        if entry.placement is POOLED:
            placement = POOLED
    return placement


def _plan(role: Role, op: str, payload: dict) -> tuple[Callable, str]:
    """``(handler, placement)`` for one frame."""
    entry = lookup(role, op)
    if entry.placement is BATCH:
        return entry.handler, batch_placement(role, payload)
    return entry.handler, entry.placement


def _locked(role: Role, handler: Callable, payload: dict):
    with role.lock:
        return handler(role, payload)


def call(role: Role, op: str, payload: dict):
    """Answer one non-ASYNC op on the calling thread, as the loop does an
    INLINE frame: how in-process tests drive a role with no sockets."""
    return _locked(role, _plan(role, op, payload)[0], payload)


async def dispatch(role: Role, op: str, payload: dict):
    handler, placement = _plan(role, op, payload)
    if placement is ASYNC:
        return await handler(role, payload)
    if placement is POOLED:
        return await asyncio.get_running_loop().run_in_executor(
            role.executor, _locked, role, handler, payload)
    return _locked(role, handler, payload)


async def start_server(role: Role, host: str, port: int) -> asyncio.Server:
    """Bind and start serving ``role`` on the running loop."""
    loop = asyncio.get_running_loop()
    stats = role.server_stats
    role.start(loop)

    async def handle_connection(reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        stats.connections += 1
        tasks: set[asyncio.Task] = set()

        def account_in(nbytes: int) -> None:
            stats.frames_in += 1
            stats.bytes_in += nbytes

        write_lock = asyncio.Lock()

        async def send(response: dict) -> None:
            data = encode_frame(response)
            async with write_lock:
                writer.write(data)
                await writer.drain()
            stats.frames_out += 1
            stats.bytes_out += len(data)

        async def process(op: str, payload: dict, rid: int | None) -> None:
            stats.in_flight += 1
            stats.in_flight_high_water = max(stats.in_flight_high_water, stats.in_flight)
            try:
                response = await dispatch(role, op, payload)
            except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
                response = error_envelope(exc)
            finally:
                stats.in_flight -= 1
            if response is WEDGE:
                freeze(op)
            if response is None or "ok" not in response:  # None: nothing to say
                response = {"ok": True, **(response or {})}
            if rid is not None:
                response = {**response, "rid": rid}
            try:
                await send(response)
            except (ConnectionError, OSError):
                pass  # client went away; its retry path owns recovery

        try:
            while True:
                message = await read_frame(reader, on_bytes=account_in)
                if message is None:
                    break
                op = str(message.pop("op", ""))
                rid = message.pop("rid", None)
                if rid is None:
                    # rid-less frames keep the strict one-in-flight
                    # discipline: answered before the next frame is read.
                    await process(op, message, None)
                    continue
                try:
                    rid = int(rid)
                except (TypeError, ValueError):
                    # Nothing valid to echo: answered untagged, in order.
                    await send(error_envelope(RemoteCallError(
                        op, f"rid must be an integer, got {rid!r}",
                        error_type="BadRequest")))
                    continue
                # Multiplexed: each tagged request is its own task; the
                # response carries the rid and may overtake others.
                task = loop.create_task(process(op, message, rid))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError, WireError):
            pass
        finally:
            for task in list(tasks):
                task.cancel()
            writer.close()

    return await asyncio.start_server(handle_connection, host, port)


async def serve(role: Role, args: argparse.Namespace) -> None:
    server = await start_server(role, args.host, args.port)
    port = server.sockets[0].getsockname()[1]
    handshake = {"role": args.role, "name": args.name, "port": port,
                 "host": args.host, "pid": os.getpid(), **role.describe()}
    print(READY_PREFIX + json.dumps(handshake), flush=True)
    async with server:
        await server.serve_forever()
