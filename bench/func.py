"""Runner for the in-process functional workload (``func_allupdates``).

``build_replicated_system`` with 2 replicas, one certifier, the in-memory log
device: no wire, no processes, no fsync.  One thread alternates two sessions
(one per replica), so every count repeats exactly and a traced run sees the
whole stack — middleware, core, transport, engine — in one span tree.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.core.certification import Certifier
from repro.core.certifier_log import CertifierLog
from repro.core.config import ReplicationConfig, SystemKind
from repro.engine.database import Database
from repro.engine.wal import WriteAheadLog
from repro.middleware.certifier import CertifierService
from repro.middleware.client_api import ClientSession
from repro.middleware.proxy import TransparentProxy
from repro.middleware.sharded_certifier import ShardedCertifierService
from repro.middleware.systems import ReplicatedSystem, build_replicated_system
from repro.transport.stream import WritesetStream, WritesetSubscription
from repro.workloads import workload_by_name

from bench import checks, metrics
from bench.driver import Lane, Phase, Stack, Window, run_window
from bench.measure import process_peak_rss_mb
from bench.spec import Workload
from bench.tracing import Target, Tracer

REPLICAS = 2


def _targets(owner, layer: str, *attrs: str) -> list[Target]:
    return [Target(owner, attr, layer) for attr in attrs]


#: The public functions a traced run wraps, layer by layer.
SPAN_TARGETS = [
    *_targets(ClientSession, "middleware.client_api",
              "begin", "read", "update", "insert", "commit"),
    *_targets(TransparentProxy, "middleware.proxy",
              "begin", "read", "update", "insert", "commit", "refresh"),
    *_targets(CertifierService, "middleware.certifier", "certify", "flush"),
    *_targets(ShardedCertifierService, "middleware.certifier", "certify", "flush"),
    *_targets(Certifier, "core.certification", "certify"),
    *_targets(CertifierLog, "core.certifier_log", "append", "first_conflicting_version"),
    *_targets(WritesetStream, "transport.stream", "offer", "flush", "propagate_from_log"),
    *_targets(WritesetSubscription, "transport.stream", "poll"),
    *_targets(Database, "engine.database", "begin", "read", "update", "insert", "commit",
              "extract_writeset", "apply_writeset_batch"),
    *_targets(WriteAheadLog, "engine.wal", "append", "flush"),
]


class FuncStack(Stack):
    """An assembled, loaded, warmed in-process system with its client."""

    def __init__(self, spec: Workload, system: ReplicatedSystem, generator,
                 clients: list[list[Lane]]) -> None:
        super().__init__(spec, generator, clients)
        self.system = system

    def run(self, seconds: float, tracer: Tracer | None = None) -> Phase:
        applied_before = self.writesets_applied()
        phase = super().run(seconds, tracer)
        phase.counts["writesets_applied"] = self.writesets_applied() - applied_before
        return phase

    def writesets_applied(self) -> int:
        return sum(replica.proxy.stats.remote_writesets_applied
                   for replica in self.system.replicas)

    def counters(self) -> dict[str, float]:
        certifier = self.system.certifier
        own = os.times()
        return {"fsyncs": certifier.fsync_count,
                "wal_bytes": certifier.device.bytes_written,
                "cpu": own.user + own.system}


@contextmanager
def booted(spec: Workload, seed: int, warmup_s: float) -> Iterator[FuncStack]:
    """One full set-up: assemble, create tables, load, open sessions, fixed warm-up."""
    generator = workload_by_name(spec.generator, num_replicas=REPLICAS, scale=spec.scale)
    system = build_replicated_system(ReplicationConfig(
        system=SystemKind.TASHKENT_MW, num_replicas=REPLICAS,
        certifier_shards=spec.shards, rng_seed=7))
    system.create_tables_from_schemas(generator.schemas())
    system.load_initial_data(generator.setup)
    lanes = [Lane(system.session(index, client_name=f"bench-{index}"), index, seed)
             for index in range(REPLICAS)]
    stack = FuncStack(spec, system, generator, [lanes])
    stack.run(warmup_s)
    yield stack


def verify(stack: FuncStack) -> list[str]:
    system = stack.system
    system.refresh_all()
    states = [{name: replica.database.table(name).snapshot_state(
                   replica.database.current_version)
               for name in replica.database.tables}
              for replica in system.replicas]
    return (checks.replicas_equal(states)
            + checks.BY_GENERATOR[stack.spec.generator](
                states[0], stack.acknowledged.update_commits))


def measure(stack: FuncStack, seconds: float, trace: bool) -> tuple[Window, dict[str, float]]:
    """The measured window, and the metrics of its mode (see ``bench.live.measure``)."""
    before = stack.counters()
    window = run_window(stack.run, seconds, SPAN_TARGETS if trace else None,
                        len(stack.clients))
    after = stack.counters()
    cpu_s = after["cpu"] - before["cpu"]
    if not trace:
        return window, metrics.end_to_end(
            window, fsyncs=after["fsyncs"] - before["fsyncs"],
            wal_bytes=after["wal_bytes"] - before["wal_bytes"],
            peak_rss_mb=process_peak_rss_mb(os.getpid()))
    rows = metrics.span_layers(window, {target.layer for target in SPAN_TARGETS})
    rows.update(metrics.window_rows(window, {"driver": cpu_s}))
    return window, metrics.complete_layers(rows, "func")
