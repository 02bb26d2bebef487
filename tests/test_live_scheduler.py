"""The scheduler role served in-process on one event loop.

A primary and a standby :class:`~repro.live.scheduler.SchedulerRole` are
served by :func:`~repro.live.server.start_server` on one loop of the test's
own, against two scripted certifier shards (the ``_MiniServer`` of
``test_live_wire.py``: they keep the WAL lines they are sent and read them
back).  The role has one thread: certify rounds, the shards'
acknowledgements, a GC and a promotion all run on that loop, and a second
``promote`` that arrives while the first one waits for the shards awaits it
instead of promoting again.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.certification import CertificationRequest
from repro.core.config import ReplicationConfig
from repro.core.writeset import make_writeset
from repro.live import codec
from repro.live.node import build_parser
from repro.live.scheduler import SchedulerRole
from repro.live.server import start_server, write_spec
from repro.live.wire import WireClient
from test_live_wire import _MiniServer

pytestmark = pytest.mark.live


class _ScriptedShard:
    """A certifier shard's WAL protocol over a :class:`_MiniServer`: appends
    deduplicated by record offset, one line per batch; ``wal_read`` answers
    only once ``reads_may_answer`` is set."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.lines: list[list[str]] = []
        self.records = 0
        self.reads_may_answer = threading.Event()
        self.server = _MiniServer(self.handle)
        self.address = f"127.0.0.1:{self.server.port}"

    def handle(self, request: dict) -> dict:
        if request["op"] == "wal_read":
            self.reads_may_answer.wait(10.0)
            with self.lock:
                return {"ok": True, "last_seq": len(self.lines), "records": self.records,
                        "batches": [{"seq": index + 1, "payloads": payloads}
                                    for index, payloads in enumerate(self.lines)]}
        with self.lock:
            seq, payloads = int(request["seq"]), request["payloads"]
            if seq <= self.records:
                return {"ok": True, "applied": False, "group": 0}
            if seq != self.records + len(payloads):
                return {"ok": False, "error": "does not continue the log",
                        "error_type": "ReproError"}
            self.lines.append(payloads)
            self.records = seq
            return {"ok": True, "applied": True, "group": len(self.lines)}


def _certify(port: int, tx_id: str, key: int, start: int = 0) -> dict:
    request = CertificationRequest(tx_start_version=start,
                                   writeset=make_writeset([("t", key)]),
                                   replica_version=start, origin_replica="r0")
    with WireClient("127.0.0.1", port, timeout=10.0) as client:
        return client.call("certify", tx_id=tx_id,
                           request=codec.encode_request(request))["result"]


def _call(port: int, op: str, **fields) -> dict:
    with WireClient("127.0.0.1", port, timeout=10.0) as client:
        return client.call(op, **fields)


def _until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


async def _shut_down(servers, roles) -> None:
    """Stop serving, close every WAL device and end every task on the loop."""
    for server in servers:
        server.close()
    for role in roles:
        for device in role.devices:
            device.close()
    tasks = asyncio.all_tasks() - {asyncio.current_task()}
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def test_one_loop_certifies_collects_garbage_and_promotes_once(tmp_path):
    shards = [_ScriptedShard() for _ in range(2)]
    spec = tmp_path / "spec.json"
    write_spec(spec, ReplicationConfig(certifier_shards=2, live_scheduler_standby=True,
                                       certifier_gc_headroom=0), ())
    argv = ["--role", "scheduler", "--spec", str(spec)]
    for shard in shards:
        argv += ["--shard", shard.address]
    primary = SchedulerRole(build_parser().parse_args(argv))
    standby = SchedulerRole(build_parser().parse_args([*argv, "--standby"]))
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, name="scheduler-loop", daemon=True)
    runner.start()
    servers = [asyncio.run_coroutine_threadsafe(
        start_server(role, "127.0.0.1", 0), loop).result(5.0) for role in (primary, standby)]
    primary_port, standby_port = (server.sockets[0].getsockname()[1] for server in servers)
    try:
        # Certify rounds: four clients at once, distinct rows, so every
        # request commits; each answer waits for the durable frontier.
        results: dict[str, dict] = {}

        def client(index: int) -> None:
            for n in range(10):
                tx_id = f"c{index}:{n}"
                results[tx_id] = _certify(primary_port, tx_id, key=100 * index + n)

        clients = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
        assert len(results) == 40 and all(r["decision"] == "commit" for r in results.values())
        assert sorted(r["tx_commit_version"] for r in results.values()) == list(range(1, 41))
        assert 1 <= primary.certify_rounds <= 40

        # A GC: the markers ride the WAL stream, and the prune happens on the
        # loop once both shards have acknowledged them.
        _call(primary_port, "register_replica", replica="r0", version=40)
        assert _call(primary_port, "collect_garbage")["pruned"] == 0  # shipped, not durable
        _until(lambda: primary.service.core.pruned_version == 40)
        for n in range(5):  # snapshots above the pruned horizon
            late = _certify(primary_port, f"late:{n}", key=1000 + n, start=40 + n)
            assert late["tx_commit_version"] == 41 + n

        # Two promotes at once: the shards answer the promotion's reads only
        # once both are in, so the second arrives while the first waits.
        answers: list[dict] = []
        promoters = [threading.Thread(
            target=lambda: answers.append(_call(standby_port, "promote")))
            for _ in range(2)]
        for thread in promoters:
            thread.start()
        _until(lambda: standby.server_stats.in_flight == 2)
        for shard in shards:
            shard.reads_may_answer.set()
        for thread in promoters:
            thread.join(timeout=30.0)
        assert sorted(answer["already"] for answer in answers) == [False, True]
        assert standby.promoted and standby.promotions == 1
        assert standby.last_promotion["pruned_version"] == 40
        assert standby.last_promotion["tx_table_rebuilt"] == 5
        # The promoted standby continues each shard's log, and answers a
        # retry of a transaction the primary decided from its rebuilt table.
        assert _certify(standby_port, "after:0", key=2000, start=45)["tx_commit_version"] == 46
        assert _call(standby_port, "commit_status", tx_id="late:4")["commit_version"] == 45

        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith(
            ("scheduler-service", "wire-reader-"))], names
    finally:
        asyncio.run_coroutine_threadsafe(
            _shut_down(servers, (primary, standby)), loop).result(5.0)
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=5.0)
        loop.close()
        for shard in shards:
            shard.reads_may_answer.set()
            shard.server.stop()
