"""Live-cluster node entrypoint: ``python -m repro.live.node --role ...``.

One process per node, three roles (:mod:`repro.live.shard`,
:mod:`repro.live.scheduler`, :mod:`repro.live.replica`), each one op table
behind the one server of :mod:`repro.live.server`.  The ``--wedge-*`` flags are
deterministic fault points: the node stops responding at an exact protocol
point (each role's module says which), after which the harness delivers the
actual ``kill -9`` — the in-process crash points of ``tests/faults.py`` mapped
onto real processes.
"""

from __future__ import annotations

import argparse
import asyncio
import pkgutil

from repro.live.server import serve

#: Where each role's class lives.  A node loads its own role only: the other
#: two cost every process ~25 ms of boot (consensus/, recovery/ for a shard).
ROLES = {
    "certifier-shard": "repro.live.shard:CertifierShardRole",
    "scheduler": "repro.live.scheduler:SchedulerRole",
    "replica": "repro.live.replica:ReplicaRole",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.node",
        description="One live-cluster node (certifier shard, scheduler or replica).",
    )
    parser.add_argument("--role", required=True, choices=sorted(ROLES))
    parser.add_argument("--name", default="node")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 (default) lets the kernel pick; the handshake reports it")
    parser.add_argument("--spec", default=None,
                        help="cluster spec JSON: the ReplicationConfig and the table schemas")
    parser.add_argument("--wal", default=None, help="WAL file path (certifier-shard)")
    parser.add_argument("--shard-id", type=int, default=0)
    parser.add_argument("--shard", action="append", default=None, metavar="HOST:PORT",
                        help="certifier-shard address (scheduler; repeat per shard)")
    parser.add_argument("--scheduler", default=None, metavar="HOST:PORT")
    parser.add_argument("--standby", action="store_true",
                        help="boot this scheduler as an unpromoted standby "
                             "(requires live_scheduler_standby in the spec)")
    parser.add_argument("--primary", default=None, metavar="HOST:PORT",
                        help="primary scheduler a standby seeds its state "
                             "transfer from (best effort)")
    parser.add_argument("--scheduler-standby", default=None, metavar="HOST:PORT",
                        help="standby scheduler address a replica fails over "
                             "to when the primary stops answering")
    # Deterministic fault points (see module docstring): wedge = stop
    # responding at the Nth op so the harness can land a kill -9 exactly there.
    parser.add_argument("--fsync-floor-ms", type=float, default=0.0,
                        help="wall-clock floor per WAL batch fsync (disk emulation)")
    parser.add_argument("--wedge-before-sync", type=int, default=0)
    parser.add_argument("--wedge-after-sync", type=int, default=0)
    parser.add_argument("--wedge-before-commit-op", type=int, default=0)
    parser.add_argument("--wedge-after-commit-op", type=int, default=0)
    parser.add_argument("--wedge-before-certify-round", type=int, default=0,
                        help="scheduler: wedge before admitting the Nth "
                             "certification round (nothing durable)")
    parser.add_argument("--wedge-after-certify-round", type=int, default=0,
                        help="scheduler: wedge after the Nth round's durable "
                             "flush, before any ack reaches a replica")
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    role = pkgutil.resolve_name(ROLES[args.role])(args)
    try:
        asyncio.run(serve(role, args))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass


if __name__ == "__main__":
    main()
