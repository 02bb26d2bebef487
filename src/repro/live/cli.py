"""``repro-cluster``: boot a live cluster and drive a workload against it.

Usage (from the repo root)::

    PYTHONPATH=src python -m repro.live.cli run --workload allupdates \\
        --replicas 2 --shards 2 --transactions 40

``run`` boots shard/scheduler/replica processes on localhost via the
:class:`~repro.live.harness.ProcessHarness`, loads the workload's initial
data, runs round-robin client transactions against every replica, refreshes,
and prints a JSON summary (commits, aborts, system version, per-replica
versions, WAL stats).  Everything is reaped on exit — including on ^C.

``spawn`` boots a cluster and holds it for interactive poking (``nc`` or a
:class:`~repro.live.wire.WireClient`) until interrupted.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.core.config import ReplicationConfig, SystemKind
from repro.live.cluster import LiveCluster
from repro.sim.rng import RandomStreams
from repro.workloads import workload_by_name


def _build_cluster(args: argparse.Namespace) -> tuple[LiveCluster, object]:
    workload = workload_by_name(args.workload, num_replicas=args.replicas,
                                scale=args.scale)
    config = ReplicationConfig(
        system=SystemKind(args.system),
        num_replicas=args.replicas,
        certifier_shards=args.shards,
        rng_seed=args.seed,
        live_scheduler_standby=args.standby,
    )
    cluster = LiveCluster(config, workload.schemas(),
                          run_dir=args.run_dir, keep_dir=args.run_dir is not None)
    return cluster, workload


def cmd_run(args: argparse.Namespace) -> int:
    cluster, workload = _build_cluster(args)
    started = time.monotonic()
    with cluster:
        cluster.load_initial_data(workload)
        cluster.refresh_all()
        if args.clients > 0:
            # Concurrent closed-loop driver: per-client counts, shared fsyncs.
            run = cluster.run_workload(
                workload, clients=args.clients,
                transactions_per_client=max(1, args.transactions // args.clients),
                seed=args.seed,
            )
            committed, aborted = run["commits"], run["aborts"]
            per_commit = run["fsyncs_per_commit"]  # None: nothing committed
            driver: dict[str, object] = {
                "clients": int(run["clients"]),
                "certs_per_sec": round(float(run["certs_per_sec"]), 1),
                "fsyncs_per_commit": None if per_commit is None else round(per_commit, 3),
            }
        else:
            sessions = [cluster.session(name) for name in cluster.replicas]
            rng = RandomStreams(args.seed)
            committed = aborted = 0
            for sequence in range(args.transactions):
                session = sessions[sequence % len(sessions)]
                if workload.run_transaction(session, rng, client_index=0,
                                            sequence=sequence):
                    committed += 1
                else:
                    aborted += 1
                if (sequence + 1) % args.refresh_every == 0:
                    cluster.refresh_all()
            driver = {"clients": 0}
        cluster.refresh_all()
        summary = build_run_summary(cluster, workload_name=args.workload,
                                    transactions=args.transactions,
                                    committed=committed, aborted=aborted,
                                    wall_clock_s=time.monotonic() - started,
                                    driver=driver)
    # No default=str fallback and no NaN: every field is a JSON-native type
    # by construction (build_run_summary), so the summary round-trips through
    # any JSON parser with the same types it was printed with.
    print(json.dumps(summary, indent=2, allow_nan=False))
    return 0


def build_run_summary(cluster: LiveCluster, *, workload_name: str,
                      transactions: int, committed: int, aborted: int,
                      wall_clock_s: float,
                      driver: dict[str, object] | None = None) -> dict:
    """Typed, JSON-native run summary (what ``repro-cluster run`` prints).

    Every leaf is an ``int``, ``float``, ``str``, ``bool`` or ``None`` so the
    document survives ``json.dumps``/``json.loads`` with types intact — no
    ``default=`` coercion hiding a non-serialisable value.
    """
    summary = {
        "workload": str(workload_name),
        "transactions": int(transactions),
        "committed": int(committed),
        "aborted": int(aborted),
        "system_version": int(cluster.system_version()),
        "replica_versions": {str(name): int(cluster.replica_version(name))
                             for name in cluster.replicas},
        "replication_horizon": int(cluster.replication_horizon()),
        "shard_wals": [{str(k): int(v) for k, v in
                        cluster.shard_wal_stats(i).items()}
                       for i in range(len(cluster.shards))],
        "wall_clock_s": round(float(wall_clock_s), 3),
    }
    if driver:
        summary["driver"] = driver
    return summary


def cmd_spawn(args: argparse.Namespace) -> int:
    cluster, _ = _build_cluster(args)
    with cluster:
        layout = {
            "run_dir": str(cluster.harness.run_dir),
            "scheduler": cluster.scheduler.port,
            "shards": [node.port for node in cluster.shards],
            "replicas": {name: node.port for name, node in cluster.replicas.items()},
        }
        if cluster.standby_scheduler is not None:
            layout["scheduler_standby"] = cluster.standby_scheduler.port
        print(json.dumps(layout, indent=2))
        print("cluster up; ^C to tear down", flush=True)
        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Boot and drive a live multi-process replicated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", cmd_run), ("spawn", cmd_spawn)):
        cmd = sub.add_parser(name)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--workload", default="allupdates")
        cmd.add_argument("--system", default=SystemKind.TASHKENT_MW.value,
                         choices=[k.value for k in SystemKind
                                  if k is not SystemKind.STANDALONE])
        cmd.add_argument("--replicas", type=int, default=2)
        cmd.add_argument("--shards", type=int, default=1)
        cmd.add_argument("--scale", type=int, default=1)
        cmd.add_argument("--seed", type=int, default=1)
        cmd.add_argument("--transactions", type=int, default=40)
        cmd.add_argument("--clients", type=int, default=0,
                         help="run this many concurrent closed-loop clients "
                              "(0 = sequential round-robin driver)")
        cmd.add_argument("--refresh-every", type=int, default=8)
        cmd.add_argument("--standby", action="store_true",
                         help="also boot a standby scheduler seeded from the "
                              "primary (kill -9 the primary, then promote "
                              "via the standby's 'promote' op)")
        cmd.add_argument("--run-dir", default=None,
                         help="keep node logs/WALs here instead of a temp dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
