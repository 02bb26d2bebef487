"""LiveCluster: the third backend — real processes behind the same config.

The repo now has three executable forms of the replicated system:

==============  ==========================================  ===================
backend         what runs                                   entry point
==============  ==========================================  ===================
functional      in-process objects, synchronous calls       ``build_replicated_system``
sim             discrete-event model, simulated time        ``repro.cluster.experiment``
**live**        one OS process per node, asyncio TCP,       ``LiveCluster``
                real file-backed WAL fsyncs, kill -9-able
==============  ==========================================  ===================

``LiveCluster`` consumes the *same* :class:`ReplicationConfig` as the
functional backend and maps it to processes exactly the way
``build_replicated_system`` maps it to objects: ``certifier_shards`` WAL
shard processes, one scheduler process hosting the certifier service, and
``num_replicas`` replica processes named ``replica-0..n-1``.  The config
itself and the table schemas (from ``workload.schemas()``) travel to the
scheduler and replica nodes through a spec file in the run directory, so
the unmodified workload definitions drive the cluster through
:class:`~repro.live.client.LiveSession`.

Boot order is shards → scheduler → replicas (each tier's addresses are
discovered from the previous tier's stdout handshakes); the nodes of one
tier boot together, so a cold start costs about one node boot per tier.
Teardown is the harness context manager (reap + orphan check), and the
fault surface —
``kill_replica`` / ``restart_replica`` / ``kill_shard`` / ``restart_shard``
— is SIGKILL-based: no shutdown handler ever runs.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.config import ReplicationConfig
from repro.engine.table import TableSchema
from repro.errors import TransactionAborted
from repro.live import codec
from repro.live.client import CommitInDoubt, LiveSession
from repro.live.harness import NodeHandle, ProcessHarness
from repro.live.server import write_spec
from repro.live.wire import WireClient
from repro.sim.rng import RandomStreams


class LiveCluster:
    """A running multi-process replicated system on localhost."""

    def __init__(self, config: ReplicationConfig,
                 schemas: Sequence[TableSchema] = (), *,
                 run_dir: str | Path | None = None, keep_dir: bool = False,
                 replica_args: dict[str, Sequence[str]] | None = None,
                 shard_args: dict[int, Sequence[str]] | None = None,
                 scheduler_args: Sequence[str] | None = None,
                 ready_timeout_s: float = 30.0) -> None:
        self.config = config
        self.schemas = tuple(schemas)
        self.harness = ProcessHarness(run_dir=run_dir, keep_dir=keep_dir)
        self._replica_args = {k: list(v) for k, v in (replica_args or {}).items()}
        self._shard_args = {k: list(v) for k, v in (shard_args or {}).items()}
        self._scheduler_args = list(scheduler_args or [])
        self._ready_timeout_s = ready_timeout_s
        self.scheduler: NodeHandle | None = None
        self.standby_scheduler: NodeHandle | None = None
        #: Where control-plane calls and new sessions go; flipped to the
        #: standby by :meth:`promote_standby`.
        self._active_scheduler: NodeHandle | None = None
        self.shards: list[NodeHandle] = []
        self.replicas: dict[str, NodeHandle] = {}
        self._sessions: list[LiveSession] = []
        self._next_client = 0
        self._started = False

    # -- boot -----------------------------------------------------------------

    @property
    def spec_path(self) -> Path:
        return self.harness.run_dir / "cluster-spec.json"

    def _write_spec(self) -> None:
        write_spec(self.spec_path, self.config, self.schemas)

    def start(self) -> "LiveCluster":
        """Boot in stages, each tier booting together: the scheduler needs
        every shard's address and the replicas need the scheduler's."""
        if self._started:
            return self
        self._write_spec()
        for shard_id in range(self.config.certifier_shards):
            name = f"shard-{shard_id}"
            self.shards.append(self.harness.spawn(
                "certifier-shard", name,
                ["--shard-id", str(shard_id), "--wal", f"{name}.wal",
                 "--fsync-floor-ms", str(self.config.live_wal_fsync_floor_ms),
                 *self._shard_args.get(shard_id, [])],
                wait_ready=False))
        self._ready(self.shards)
        shard_flags = [arg for shard in self.shards
                       for arg in ("--shard", f"127.0.0.1:{shard.port}")]
        self.scheduler = self.harness.spawn(
            "scheduler", "scheduler",
            ["--spec", str(self.spec_path), *shard_flags, *self._scheduler_args],
            wait_ready=False)
        self._ready([self.scheduler])
        self._active_scheduler = self.scheduler
        standby_flags: list[str] = []
        if self.config.live_scheduler_standby:
            # Booted after the primary so the warm state-transfer seed
            # succeeds; stays unpromoted (NotPromoted to data-plane ops)
            # until promote_standby().
            self.standby_scheduler = self.harness.spawn(
                "scheduler", "scheduler-standby",
                ["--spec", str(self.spec_path), "--standby",
                 "--primary", f"127.0.0.1:{self.scheduler.port}", *shard_flags],
                wait_ready=False)
            self._ready([self.standby_scheduler])
            standby_flags = ["--scheduler-standby",
                             f"127.0.0.1:{self.standby_scheduler.port}"]
        for index in range(self.config.num_replicas):
            name = f"replica-{index}"
            self.replicas[name] = self.harness.spawn(
                "replica", name,
                ["--spec", str(self.spec_path),
                 "--scheduler", f"127.0.0.1:{self.scheduler.port}",
                 *standby_flags, *self._replica_args.get(name, [])],
                wait_ready=False)
        self._ready(self.replicas.values())
        self._started = True
        return self

    def _ready(self, nodes: Iterable[NodeHandle]) -> None:
        """Wait for every node of one boot stage to hand shake, under one
        deadline for the stage."""
        deadline = time.monotonic() + self._ready_timeout_s
        for node in nodes:
            node.wait_ready(timeout_s=deadline - time.monotonic())

    # -- client sessions ------------------------------------------------------

    def session(self, replica: str = "replica-0", *,
                client_name: str | None = None,
                attempt_timeout_s: float | None = 30.0) -> LiveSession:
        """Open a client session pinned to ``replica`` (the paper's routing)."""
        node = self.replicas[replica]
        scheduler = self._active_scheduler
        assert scheduler is not None and scheduler.port is not None
        if client_name is None:
            client_name = f"client-{self._next_client}"
            self._next_client += 1
        fallbacks: tuple[tuple[str, int], ...] = ()
        if (self.standby_scheduler is not None
                and scheduler is not self.standby_scheduler):
            fallbacks = (("127.0.0.1", self.standby_scheduler.port),)
        session = LiveSession(
            "127.0.0.1", node.port, "127.0.0.1", scheduler.port,
            client_name=client_name, attempt_timeout_s=attempt_timeout_s,
            scheduler_fallbacks=fallbacks,
        )
        self._sessions.append(session)
        return session

    def load_initial_data(self, workload, *, replica: str = "replica-0") -> None:
        """Run ``workload.setup`` through a live session on one replica.

        Refreshes every replica afterwards, mirroring the functional
        ``ReplicatedSystem.load_initial_data`` so both backends start their
        measured runs from identical replica versions.
        """
        with self.session(replica, client_name="loader") as loader:
            workload.setup(loader)
        self.refresh_all()

    # -- closed-loop load driver ----------------------------------------------

    def run_workload(self, workload, *, clients: int = 4,
                     transactions_per_client: int = 50, seed: int = 1,
                     client_prefix: str = "load") -> dict:
        """Drive ``workload`` with ``clients`` concurrent closed-loop clients.

        Each client is one thread with its own :class:`LiveSession` pinned to
        replica ``i % num_replicas`` (the paper's client routing), running
        ``transactions_per_client`` transactions back to back.  Returns a
        summary with the commit rate and the fsync economics of the run —
        ``fsyncs_per_commit`` (``None`` when nothing committed) below 1.0 is
        group certification: several commits shared each durable WAL write.
        """
        if not self._started:
            raise RuntimeError("cluster is not started")
        names = list(self.replicas)
        # Client names must be unique across runs on one cluster: a reused
        # name replays old "<client>:<seq>" transaction ids, and the
        # scheduler's exactly-once table would answer the new commits from
        # the stale records.
        run_id = self._next_client
        self._next_client += 1
        client_prefix = f"{client_prefix}{run_id}"
        before = self.scheduler_stats()
        results: list[dict | None] = [None] * clients
        failures: list[BaseException] = []
        started: list[float] = []  # stamped once, when the last client arrives
        barrier = threading.Barrier(
            clients, action=lambda: started.append(time.perf_counter()))

        def run_client(index: int) -> None:
            session = None
            commits = aborts = in_doubt = 0
            rng = RandomStreams(seed + index)
            try:
                session = self.session(names[index % len(names)],
                                       client_name=f"{client_prefix}-{index}")
                barrier.wait()
                for sequence in range(transactions_per_client):
                    try:
                        committed = workload.run_transaction(
                            session, rng, client_index=index,
                            sequence=sequence)
                    except TransactionAborted:
                        aborts += 1
                        continue
                    except CommitInDoubt:
                        in_doubt += 1
                        continue
                    if committed:
                        commits += 1
                    else:
                        aborts += 1
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                failures.append(exc)
                barrier.abort()  # nobody waits for a client that never starts
            finally:
                results[index] = {"commits": commits, "aborts": aborts,
                                  "in_doubt": in_doubt}
                if session is not None:
                    session.close()

        threads = [threading.Thread(target=run_client, args=(index,),
                                    name=f"{client_prefix}-{index}", daemon=True)
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        elapsed = time.perf_counter() - started[0]
        after = self.scheduler_stats()
        commits = sum(r["commits"] for r in results if r)
        aborts = sum(r["aborts"] for r in results if r)
        in_doubt = sum(r["in_doubt"] for r in results if r)
        fsyncs = after.get("fsyncs", 0) - before.get("fsyncs", 0)
        return {
            "clients": clients,
            "transactions": clients * transactions_per_client,
            "commits": commits,
            "aborts": aborts,
            "in_doubt": in_doubt,
            "elapsed_s": elapsed,
            "certs_per_sec": commits / elapsed if elapsed > 0 else 0.0,
            "fsyncs": fsyncs,
            "fsyncs_per_commit": fsyncs / commits if commits else None,
            "scheduler_stats": after,
        }

    # -- cluster-wide control plane -------------------------------------------

    @staticmethod
    def _call(node: NodeHandle | None, op: str, *, retrying: bool = False,
              timeout: float = 30.0, **fields: object) -> dict:
        """One op on ``node`` over a fresh connection; the payload, unwrapped."""
        with WireClient("127.0.0.1", node.port, name="cluster-ctl",
                        timeout=timeout) as ctl:
            response = (ctl.call_retrying(op, deadline_s=timeout, **fields)
                        if retrying else ctl.call(op, **fields))
        response.pop("ok", None)
        return response

    def refresh_all(self) -> dict[str, int]:
        """Bounded-staleness refresh on every replica (applied counts)."""
        return {name: self._call(node, "refresh")["applied"]
                for name, node in self.replicas.items()}

    def system_version(self) -> int:
        return self._call(self._active_scheduler, "system_version")["version"]

    def replication_horizon(self) -> int:
        return self._call(self._active_scheduler, "replication_horizon")["horizon"]

    def collect_garbage(self) -> int:
        return self._call(self._active_scheduler, "collect_garbage")["pruned"]

    def scheduler_stats(self) -> dict:
        return self._call(self._active_scheduler, "stats")

    def replica_version(self, replica: str) -> int:
        return self._call(self.replicas[replica], "replica_version")["version"]

    def replica_stats(self, replica: str) -> dict:
        return self._call(self.replicas[replica], "stats")

    def dump_table(self, replica: str, table: str) -> dict[object, dict[str, object]]:
        response = self._call(self.replicas[replica], "dump_table", table=table)
        return codec.decode_table_state(response["state"])

    def shard_wal_stats(self, shard_id: int) -> dict:
        return self._call(self.shards[shard_id], "wal_stats")

    def shard_stats(self, shard_id: int) -> dict:
        return self._call(self.shards[shard_id], "stats")

    def stats(self) -> dict:
        """One merged observability snapshot across every node in the cluster.

        Collects each node's ``stats`` op: the scheduler's service /
        exactly-once / certification-round counters, each replica's proxy stats
        plus certifier-wire counters, and each shard's WAL + server counters.
        """
        return {
            "scheduler": self.scheduler_stats(),
            "replicas": {name: self.replica_stats(name)
                         for name in self.replicas},
            "shards": {shard_id: self.shard_stats(shard_id)
                       for shard_id in range(len(self.shards))},
        }

    def replicas_consistent(self, tables: Iterable[str]) -> bool:
        """After refreshes, do all replicas hold identical table states?"""
        names = list(self.replicas)
        for table in tables:
            reference = self.dump_table(names[0], table)
            for name in names[1:]:
                if self.dump_table(name, table) != reference:
                    return False
        return True

    # -- fault surface --------------------------------------------------------

    def kill_replica(self, replica: str) -> None:
        self.replicas[replica].kill()

    def restart_replica(self, replica: str, *,
                        drop_args: tuple[str, ...] = ()) -> None:
        self.replicas[replica].restart(timeout_s=self._ready_timeout_s,
                                       drop_args=drop_args)

    def kill_scheduler(self) -> None:
        """SIGKILL the primary scheduler (the failover tentpole's fault)."""
        assert self.scheduler is not None
        self.scheduler.kill()

    def promote_standby(self, *, timeout_s: float = 60.0) -> dict:
        """Promote the standby scheduler and route the cluster to it.

        The promotion rebuilds the certifier from the shard WALs (completing
        any round the primary died mid-flush on) and the exactly-once table
        from the entries' tx ids; returns the standby's promotion report.
        Control-plane calls and *new* sessions go to the standby afterwards;
        existing clients re-dial on their own via their fallback addresses.
        """
        assert self.standby_scheduler is not None, "no standby configured"
        response = self._call(self.standby_scheduler, "promote", retrying=True,
                              timeout=timeout_s)
        self._active_scheduler = self.standby_scheduler
        return response

    def standby_status(self) -> dict:
        assert self.standby_scheduler is not None, "no standby configured"
        return self._call(self.standby_scheduler, "standby_status")

    def kill_shard(self, shard_id: int) -> None:
        self.shards[shard_id].kill()

    def restart_shard(self, shard_id: int, *,
                      drop_args: tuple[str, ...] = ()) -> None:
        self.shards[shard_id].restart(timeout_s=self._ready_timeout_s,
                                      drop_args=drop_args)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        for session in self._sessions:
            try:
                session.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass
        self._sessions.clear()

    def __enter__(self) -> "LiveCluster":
        self.harness.__enter__()
        try:
            return self.start()
        except BaseException:
            self.harness.__exit__(None, None, None)
            raise

    def __exit__(self, *exc: object) -> None:
        self.close()
        self.harness.__exit__(*exc)

    def __repr__(self) -> str:
        return (
            f"LiveCluster(replicas={len(self.replicas)}, "
            f"shards={len(self.shards)}, started={self._started})"
        )
