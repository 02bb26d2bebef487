"""The live spec file: one :class:`ReplicationConfig`, read back whole.

``LiveCluster`` writes its config into the run directory's spec file and
every scheduler and replica node loads it from there.  These tests pin that
nothing is renamed, dropped or re-defaulted on the way: every field comes
back equal, and roles built from the spec (no process) agree with
``build_replicated_system`` on every setting they both read.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading

from repro.core.config import DiskConfig, NetworkConfig, ReplicationConfig, SystemKind
from repro.engine.table import TableSchema
from repro.live.cluster import LiveCluster
from repro.live.node import build_parser
from repro.live.replica import ReplicaRole
from repro.live.scheduler import SchedulerRole
from repro.live.server import load_spec, start_server
from repro.middleware.systems import build_replicated_system

#: A value other than the default for every field that has one.
EVERY_FIELD = ReplicationConfig(
    system=SystemKind.BASE,
    num_replicas=3,
    clients_per_replica=4,
    disk=DiskConfig(fsync_mean_ms=9.0, fsync_min_ms=7.0, fsync_max_ms=11.0,
                    dedicated_log_channel=True),
    network=NetworkConfig(one_way_latency_ms=0.2, per_kb_ms=0.01, jitter_ms=0.0),
    staleness_bound_ms=500.0,
    forced_abort_rate=0.1,
    local_certification=False,
    eager_pre_certification=False,
    certifier_shards=2,
    certifier_max_flush_batch=16,
    certifier_crash_schedule=((1, 10.0, 20.0), (0, 5.0, 6.5)),
    certifier_gc_headroom=3,
    live_certify_batch_window_ms=1.5,
    live_certify_batch_max=8,
    live_wal_fsync_floor_ms=2.0,
    live_scheduler_standby=True,
    rng_seed=11,
)


def parse(*argv: str):
    return build_parser().parse_args(list(argv))


def test_every_config_field_survives_the_cluster_spec(tmp_path):
    defaults = ReplicationConfig()
    assert [f.name for f in dataclasses.fields(ReplicationConfig)
            if getattr(EVERY_FIELD, f.name) == getattr(defaults, f.name)] == [
        "live_pipeline"]  # one-valued
    schemas = (TableSchema("accounts", ("id", "balance")),
               TableSchema("orders", ("oid", "item"), primary_key="oid"))
    cluster = LiveCluster(EVERY_FIELD, schemas, run_dir=tmp_path)
    cluster._write_spec()  # boots nothing
    spec = json.loads(cluster.spec_path.read_text())
    assert set(spec) == {"config", "schemas"}
    assert list(spec["config"]) == [f.name for f in dataclasses.fields(ReplicationConfig)]
    config, loaded = load_spec(parse("--role", "replica", "--spec", str(cluster.spec_path)))
    assert config == EVERY_FIELD
    assert config.certifier_crash_schedule == ((1, 10.0, 20.0), (0, 5.0, 6.5))
    assert loaded == list(schemas)


def test_no_spec_means_the_plain_defaults():
    assert load_spec(parse("--role", "replica")) == (ReplicationConfig(), [])


async def _shut_down(server: asyncio.Server) -> None:
    """Stop serving and end every task on the loop (connections, batcher)."""
    server.close()
    tasks = asyncio.all_tasks() - {asyncio.current_task()}
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def test_roles_built_from_the_spec_agree_with_build_replicated_system(tmp_path, monkeypatch):
    config = ReplicationConfig(
        system=SystemKind.TASHKENT_API_NO_CERT, forced_abort_rate=0.3, rng_seed=11,
        certifier_shards=2, certifier_gc_headroom=7, local_certification=False)
    cluster = LiveCluster(config, run_dir=tmp_path)
    cluster._write_spec()
    spec = ("--spec", str(cluster.spec_path))
    scheduler = SchedulerRole(parse("--role", "scheduler", *spec,  # shards never dialled
                                    "--shard", "127.0.0.1:1", "--shard", "127.0.0.1:2"))
    # The replica subscribes to its scheduler while it is built: serve the
    # scheduler role on a loop of our own.
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    server = asyncio.run_coroutine_threadsafe(
        start_server(scheduler, "127.0.0.1", 0), loop).result(5.0)
    monkeypatch.chdir(tmp_path)  # the replica's engine WAL file lands here
    try:
        port = server.sockets[0].getsockname()[1]
        replica = ReplicaRole(parse("--role", "replica", "--name", "replica-0", *spec,
                                    "--scheduler", f"127.0.0.1:{port}"))
        replica.cert_client.close()
    finally:
        asyncio.run_coroutine_threadsafe(_shut_down(server), loop).result(5.0)
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=5.0)
        loop.close()
        scheduler.executor.shutdown()
    functional = build_replicated_system(config)
    live_service, service = scheduler.service, functional.certifier
    assert live_service._durable is service._durable is False
    assert live_service.core.forced_abort_rate == service.core.forced_abort_rate == 0.3
    assert live_service._rng.getstate() == service._rng.getstate()  # same seed
    assert live_service.core.num_shards == service.core.num_shards == 2
    assert live_service.gc_headroom_versions == service.gc_headroom_versions == 7
    live_proxy, proxy = replica.replica.proxy, functional.replicas[0].proxy
    assert live_proxy.system is proxy.system is SystemKind.TASHKENT_API_NO_CERT
    assert live_proxy.local_certification is proxy.local_certification is False
    assert live_proxy.eager_pre_certification is proxy.eager_pre_certification is True
