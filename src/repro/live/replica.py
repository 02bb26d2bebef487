"""The ``replica`` role: one database replica serving client sessions.

An engine :class:`Database` (file-backed engine WAL) behind the *unmodified*
:class:`TransparentProxy`, whose certifier is a
:class:`~repro.live.client.LiveCertifierClient` speaking the wire protocol to
the scheduler.  Serves client sessions plus the maintenance surface (refresh,
dump_table) the cluster driver uses.  Every op runs on the event loop and
nothing else touches the replica's state, so it needs no lock.  A commit's
local half runs inline up to its certification request, and a refresh's up to
its poll; the request is posted to the scheduler on one connection, and the
event loop — which reads the answers itself — finishes them in send order,
which for commits is certification (= global version) order.  Commits and
refreshes overlap on the wire; neither can overtake the other.

Fault points: ``--wedge-before-commit-op`` / ``--wedge-after-commit-op`` freeze
the node at its Nth commit — never certified, or (the ``post-flush`` point of
``tests/faults.py``) everything durable and only the client ack lost.
"""

from __future__ import annotations

import argparse
import asyncio
from functools import partial
from typing import Callable

from repro.engine.database import Database
from repro.engine.locks import LockBlockedError
from repro.engine.log_device import FileLogDevice
from repro.errors import TransactionAborted
from repro.live import codec
from repro.live.client import LiveCertifierClient
from repro.live.server import (ASYNC, WEDGE, Op, Reply, Role, envelope, load_spec, lookup,
                               parse_addr)
from repro.live.wire import RemoteCallError
from repro.middleware.client_api import ClientSession
from repro.middleware.replica import Replica


#: What a statement batch's runner is first called with: no statement ran yet.
_NOTHING = object()


class ReplicaRole(Role):
    """One database replica: engine + transparent proxy + session server."""

    role_name = "replica"

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__()
        config, schemas = load_spec(args)
        if args.scheduler is None:
            raise SystemExit("replica role requires --scheduler host:port")
        host, port = parse_addr(args.scheduler)
        self.name = args.name
        self.wedge_before_commit_op = args.wedge_before_commit_op
        self.wedge_after_commit_op = args.wedge_after_commit_op
        self.commit_ops = 0
        # Real file-backed engine WAL: Tashkent-MW replicas run with
        # synchronous commit off (the proxy turns it off), but the append
        # path and group-apply fsync accounting are the real thing.
        device = FileLogDevice(f"{self.name}.engine.wal")
        database = Database(name=self.name, synchronous_commit=True, log_device=device)
        for schema in schemas:
            database.create_table_from_schema(schema)
        fallbacks: tuple[tuple[str, int], ...] = ()
        if args.scheduler_standby:
            fallbacks = (parse_addr(args.scheduler_standby),)
        self.cert_client = LiveCertifierClient(host, port, replica_name=self.name,
                                               fallbacks=fallbacks)
        # The proxy says hello to the scheduler here, blocking: no loop yet.
        self.replica = Replica(
            self.name,
            database,
            self.cert_client,  # quacks like CertifierService for the proxy
            system=config.system,
            local_certification=config.local_certification,
            eager_pre_certification=config.eager_pre_certification,
        )
        #: session id -> ClientSession (the unmodified client API object).
        self.sessions: dict[int, ClientSession] = {}
        self._next_session = 1

    def open_session(self, payload: dict):
        session_id = self._next_session
        self._next_session += 1
        self.sessions[session_id] = ClientSession(
            self.replica.proxy, client_name=payload.get("client_name", "client"))
        return {"session_id": session_id, "replica": self.name}

    def close_session(self, payload: dict):
        session = self.sessions.pop(payload["session_id"], None)
        if session is not None and session.in_transaction:
            # A dropped session's transaction would hold its row locks
            # forever and pin vacuum at its snapshot.
            session.abort()

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self.cert_client.read_on(loop)

    def session_batch(self, payload: dict, reply: Reply) -> None:
        """Execute a fused list of session statements as one frame.

        The driver's :class:`LiveSession` defers resultless statements and
        ships them ahead of the next synchronous one, cutting the per-
        transaction frame count.  Statements run in order, the rest resumed
        once an ASYNC one (a commit) is answered; the first failure stops the
        batch and its error envelope is answered in place — the same outcome
        the client would have observed sending the statements as individual
        frames and halting at the error.
        """
        statements, results = iter(payload["ops"]), []

        def run_on(answer=_NOTHING) -> None:
            """Record the answer of the statement that ran, run the next ones."""
            while True:
                if answer is WEDGE:
                    return reply(WEDGE)
                if answer is not _NOTHING:
                    results.append(envelope(answer))
                    if not results[-1]["ok"]:
                        break
                statement = next(statements, None)
                if statement is None:
                    break
                sub = {**statement, "session_id": payload["session_id"]}
                try:
                    entry = lookup(self, sub.pop("op"))
                    if entry.placement is ASYNC:
                        return entry.handler(self, sub, run_on)
                    answer = entry.handler(self, sub)
                except Exception as exc:  # noqa: BLE001 - per-statement boundary
                    answer = exc
            reply({"results": results})

        run_on()

    def _session(self, payload: dict) -> ClientSession:
        session = self.sessions.get(payload["session_id"])
        if session is None:
            raise RemoteCallError("session",
                                  f"unknown session {payload['session_id']}")
        return session

    def begin(self, payload: dict):
        self._session(payload).begin()

    def read(self, payload: dict):
        row = self._session(payload).read(payload["table"], payload["key"])
        return {"row": codec.encode_row(row)}

    def scan(self, payload: dict):
        rows = self._session(payload).scan(payload["table"])
        return {"rows": [[key, dict(row)] for key, row in rows]}

    def write(self, payload: dict, method: str):
        """``insert`` / ``update`` / ``delete``: the ClientSession method of that name."""
        session = self._session(payload)
        try:
            getattr(session, method)(payload["table"], payload["key"],
                                     **payload.get("values", {}))
        except LockBlockedError as exc:
            # No-wait write-write policy.  The functional/sim stacks park
            # a blocked writer in the lock manager's wait queue, but the
            # live replica's event loop cannot wait for the holder's
            # commit — abort the requester instead (first-updater wins; the
            # loser retries with a fresh transaction, which is how the
            # driver counts it).
            session.abort()
            raise TransactionAborted(str(exc), reason="ww-block") from exc

    def abort(self, payload: dict):
        self._session(payload).abort()

    def commit(self, payload: dict, reply: Reply) -> None:
        """Run the commit's local half up to its certification request, post
        the request — the exactly-once tx id rides down with it — and finish
        it when the answer arrives.  A commit whose request was sent
        finishes even if its client hung up: the answer, not the waiting
        client, drives it."""
        session = self._session(payload)
        self.commit_ops += 1
        if self.commit_ops == self.wedge_before_commit_op:
            # Killed here, the transaction was never certified: the client's
            # status query finds nothing and re-executes — safely, exactly
            # once, because nothing was admitted.
            return reply(WEDGE)
        self._resume(session.commit_steps(), payload.get("tx_id"),
                     partial(self._committed, self.commit_ops, reply), None)

    def _committed(self, commit_op: int, reply: Reply, outcome) -> None:
        if isinstance(outcome, Exception):
            reply(outcome)
        elif commit_op == self.wedge_after_commit_op:
            # Killed here, the transaction IS committed (admitted, durable,
            # propagated) but the ack never reaches the client: the status
            # query answers "committed" and the client must not re-execute.
            reply(WEDGE)
        else:
            reply({"outcome": codec.encode_outcome(outcome)})

    def refresh(self, payload: dict, reply: Reply) -> None:
        """Poll the scheduler, apply what is new and report the watermark —
        each call in send order behind the commits already sent."""
        self._resume(self.replica.proxy.refresh_steps(), None, lambda applied: reply(
            applied if isinstance(applied, Exception)
            else {"applied": self.replica.count_refresh(applied)}), None)

    def _resume(self, steps, tx_id: str | None, done: Callable[[object], None],
                answer) -> None:
        """Resume a proxy's commit or refresh ``steps`` with ``answer`` — at
        first ``None``, then on the loop in send order — and post the next
        request they yield, or hand their outcome (or error) to ``done`` — or,
        if ``done`` raises, that error: the request is answered either way."""
        try:
            if isinstance(answer, Exception):
                request = steps.throw(answer)
            else:
                request = steps.send(answer)
        except StopIteration as finished:
            result = finished.value
        except Exception as exc:  # noqa: BLE001 - the request's to answer
            result = exc
        else:
            self.cert_client.send(request, partial(self._resume, steps, tx_id, done), tx_id)
            return
        try:
            done(result)
        except Exception as exc:  # noqa: BLE001 - finishing failed: that is the answer
            done(exc)

    def dump_table(self, payload: dict):
        database = self.replica.database
        table = database.table(payload["table"])
        state = table.snapshot_state(database.current_version)
        return {"state": codec.encode_table_state(state),
                "version": self.replica.replica_version}

    def stats(self, payload: dict):
        return {"stats": self.replica.stats_snapshot(),
                "commit_ops": self.commit_ops,
                "certifier_wire": self.cert_client.wire_stats(),
                "remote_writesets_received": self.cert_client.remote_writesets_received,
                "commit_wire_wait_s": self.cert_client.wire_wait_s,
                "commit_gate_wait_s": self.cert_client.gate_wait_s,
                "server": self.server_stats.as_dict()}

    #: ``commit`` and ``refresh`` are ASYNC — their local halves run on the
    #: loop around a scheduler call the loop does not wait for — and so is a
    #: ``session_batch``, which may end in a commit; everything else is
    #: local work, run inline.
    ops = {
        "open_session": Op(open_session),
        "close_session": Op(close_session),
        "session_batch": Op(session_batch, ASYNC),
        "begin": Op(begin),
        "read": Op(read),
        "scan": Op(scan),
        "insert": Op(partial(write, method="insert")),
        "update": Op(partial(write, method="update")),
        "delete": Op(partial(write, method="delete")),
        "abort": Op(abort),
        "commit": Op(commit, ASYNC),
        "refresh": Op(refresh, ASYNC),
        "dump_table": Op(dump_table),
        "replica_version": Op(lambda self, _: {"version": self.replica.replica_version}),
        "stats": Op(stats),
        "ping": Op(lambda self, _: {"role": "replica", "name": self.name,
                                    "version": self.replica.replica_version}),
    }

    def describe(self) -> dict:
        return {"replica": self.name}
