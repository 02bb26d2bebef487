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
* the placements run every handler on the loop, awaited where the table
  says; the replica, scheduler and server modules start no thread;
* the request boundary: an unknown op and a frame whose ``rid`` is not an
  integer are answered with an error envelope on the still-open connection;
* ``close_session`` aborts a transaction its session left open;
* the entry point imports no role module until ``--role`` names one, and
  each role imports only the packages it runs.
"""

from __future__ import annotations

import ast
import asyncio
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.config import ReplicationConfig, SystemKind
from repro.engine.table import TableSchema
from repro.errors import TransactionAborted
from repro.live.cluster import LiveCluster
from repro.live.node import ROLES, build_parser
from repro.live.scheduler import SchedulerRole
from repro.live.server import (
    ASYNC,
    INLINE,
    Op,
    Role,
    call,
    dispatch,
    lookup,
    start_server,
    write_spec,
)
from repro.live.shard import CertifierShardRole
from repro.live.wire import RemoteCallError, encode_frame, read_frame

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


def test_standby_control_plane_is_answered_and_data_plane_refused_end_to_end(standby):
    assert call(standby, "ping", {})["role"] == "scheduler"
    status = call(standby, "standby_status", {})
    assert status["standby"] and not status["promoted"] and not status["seeded"]
    assert call(standby, "stats", {})["promoted"] is False
    for op in ("system_version", "commit_status", "hello_replica"):
        with pytest.raises(RemoteCallError, match="standby not promoted"):
            call(standby, op, {"tx_id": "t", "replica": "r"})
    # The refusal happens at the server, the ASYNC certify included.
    with pytest.raises(RemoteCallError) as refusal:
        asyncio.run(dispatch(standby, "certify", {}))
    assert refusal.value.error_type == "NotPromoted"


# -- placements -------------------------------------------------------------------


class Probe(Role):
    """Every placement once; each handler reports where it ran."""

    role_name = "probe"

    def where(self, payload: dict) -> dict:
        return {"thread": threading.current_thread().name}

    async def parked(self, payload: dict) -> dict:
        return {**self.where(payload), "awaited": True}

    ops = {
        "inline": Op(where),
        "parked": Op(parked, ASYNC),
        "silent": Op(lambda self, payload: None),
    }


def test_pipelined_placements_run_where_the_table_says():
    """On the loop, the ASYNC one awaited."""
    async def scenario():
        return [await dispatch(Probe(), op, {}) for op in ("inline", "parked")]

    on_loop = {"thread": threading.current_thread().name}
    assert asyncio.run(scenario()) == [on_loop, {**on_loop, "awaited": True}]


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


# -- the request boundary, over a socket ------------------------------------------


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
                answers.append(await asyncio.wait_for(read_frame(reader), 5.0))
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
