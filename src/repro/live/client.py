"""Wire-level clients for the live cluster.

Two callers live here:

:class:`LiveCertifierClient`
    Runs *inside a replica node process*.  It serves the
    :class:`~repro.middleware.certifier.CertifierService` surface the
    :class:`~repro.middleware.proxy.TransparentProxy` calls on its own —
    ``subscribe_replica`` / ``register_replica`` /
    ``extend_remote_horizons`` / ``replication_horizon`` — over the wire to
    the scheduler process, and certifies the commits the replica drives
    through :meth:`~LiveCertifierClient.certify_async`.  A commit's
    certification carries the client-supplied transaction id, which the
    scheduler uses for its exactly-once table; the call itself retries
    through scheduler outages, which is safe precisely because of that
    table.

:class:`LiveSession`
    Runs *in the driver process* (a test, a benchmark, the CLI) and mirrors
    the :class:`~repro.middleware.client_api.ClientSession` API over the
    wire, so the unmodified workload definitions (``workload.setup(session)``
    / ``workload.run_transaction(session, ...)``) drive real replica
    processes.  Its commit path implements the client half of the
    exactly-once protocol: every commit gets a fresh
    ``"<client>:<seq>"`` transaction id; if the replica connection dies
    mid-commit the session raises :class:`CommitInDoubt`, and after the test
    choreography restarts the replica, :meth:`LiveSession.resolve_commit`
    asks the scheduler for the transaction's fate — answering *committed*
    (never re-execute) or *unknown* (safe to re-execute, nothing was
    admitted).
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.certification import CertificationRequest, CertificationResult, RemoteWriteSetInfo
from repro.errors import ReproError, TransactionAborted
from repro.live import codec
from repro.live.wire import (REFUSALS, ConnectionLost, RemoteCallError, WireClient, backoff_s,
                             check_ok)
from repro.middleware.proxy import CommitOutcome


class CommitInDoubt(ReproError):
    """The replica connection died mid-commit: the outcome is unresolved.

    Carries the transaction id the commit was tagged with; once the replica
    (or its replacement) is back, :meth:`LiveSession.resolve_commit` turns
    this into a definite outcome or a licence to re-execute.
    """

    def __init__(self, tx_id: str, cause: Exception) -> None:
        super().__init__(f"commit {tx_id} in doubt: {cause}")
        self.tx_id = tx_id
        self.cause = cause


# ---------------------------------------------------------------------------
# replica-side certifier client
# ---------------------------------------------------------------------------


class LiveSubscription:
    """The proxy-facing view of a server-side writeset subscription.

    The real :class:`WritesetSubscription` lives in the scheduler process
    (created by ``hello_replica``); this object just carries the cursor ops
    the proxy performs — ``advance_to`` is buffered and shipped with the next
    ``poll_flat`` so a refresh costs one round trip, not two.
    """

    def __init__(self, client: WireClient, replica: str,
                 certifier: "LiveCertifierClient") -> None:
        self._client = client
        self.replica = replica
        self._advance_to = 0
        self._certifier = certifier  # takes the horizon each answer carries

    def advance_to(self, version: int) -> None:
        self._advance_to = max(self._advance_to, version)

    def poll_flat(self) -> list[RemoteWriteSetInfo]:
        try:
            response = self._client.call_retrying(
                "poll_writesets", replica=self.replica,
                advance_to=self._advance_to,
            )
        except RemoteCallError as exc:
            if not exc.error.startswith("unknown replica"):
                raise
            # A promoted standby (or restarted scheduler) has no server-side
            # subscription for us; re-subscribe from the applied cursor and
            # retry — the directory backfills anything committed since.
            self._client.call_retrying("hello_replica", replica=self.replica,
                                       from_version=self._advance_to)
            response = self._client.call_retrying(
                "poll_writesets", replica=self.replica,
                advance_to=self._advance_to,
            )
        self._certifier.horizon = response["horizon"]
        return [codec.decode_remote_info(i) for i in response["writesets"]]


class _Certification:
    """One commit's ``certify`` call, from its first send to its finish."""

    __slots__ = ("fields", "finish", "sent_at", "answered_at", "answer", "refused")

    def __init__(self, fields: dict, finish: Callable[[object], None]) -> None:
        self.fields = fields
        self.finish = finish
        self.sent_at = time.perf_counter()
        self.answered_at = 0.0
        #: The decoded result, or the error its answer raised.
        self.answer: CertificationResult | Exception | None = None
        self.refused = False  # answered with a refusal: waiting to be sent again


class LiveCertifierClient:
    """The proxy's certifier in a replica process; its backend is the scheduler.

    Two connections.  The control one is a plain blocking client for what
    the proxy calls on its own — ``subscribe_replica`` at boot, and
    ``register_replica`` / ``extend_remote_horizons`` / the subscription's
    poll during a refresh — so those never wait for the event loop.  Commits
    do not go through the proxy's ``certify`` at all: the replica drives
    :meth:`~repro.middleware.proxy.TransparentProxy.commit_steps` itself and
    hands each request to :meth:`certify_async`, a call posted on a
    second connection whose replies the replica's event loop reads
    (:meth:`read_on`).  Send order is certification order — the scheduler
    admits requests in arrival order — so the answers are finished in send
    order whatever order they arrive in: a later commit's finalization sees
    the earlier commit's writeset among its in-band remotes, and applying it
    first would priority-abort the earlier commit's still-open engine
    transaction.

    The scheduler piggy-backs its replication horizon on every ``certify``
    and ``poll_writesets`` answer; :meth:`replication_horizon` returns the
    latest one, so the proxy's maintenance step makes no wire call.
    """

    def __init__(self, host: str, port: int, *, replica_name: str,
                 attempt_timeout_s: float = 10.0,
                 fallbacks: tuple[tuple[str, int], ...] = ()) -> None:
        self.replica_name = replica_name
        self._client = WireClient(host, port, timeout=attempt_timeout_s,
                                  name=f"certifier-{replica_name}", fallbacks=fallbacks)
        self._certify = WireClient(host, port, timeout=attempt_timeout_s,
                                   name=f"certify-{replica_name}", fallbacks=fallbacks)
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Sent, unfinished certifications in send order.
        self._in_flight: deque[_Certification] = deque()
        self._retries = 0  # consecutive rounds of refusals: the backoff's attempt
        self._retry_armed = False
        #: The scheduler's replication horizon, as of its latest answer.
        self.horizon = 0
        #: Cumulative seconds commits spent waiting on the certify wire
        #: round trip / for every earlier commit to finish.
        self.wire_wait_s = 0.0
        self.gate_wait_s = 0.0

    def read_on(self, loop: asyncio.AbstractEventLoop) -> None:
        """``loop`` reads the certify answers and runs every ``finish``."""
        self._loop = loop
        self._certify.read_on(loop)

    def wire_stats(self) -> dict[str, int]:
        return self._certify.stats()

    def certify_async(self, request: CertificationRequest, tx_id: str | None,
                      finish: Callable[[object], None]) -> None:
        """Send ``request`` and return; ``finish(answer)`` runs on the loop —
        the :class:`CertificationResult`, or the exception the answer raised
        (a :class:`RemoteCallError`) — once every earlier call has finished.

        Refusals (``NotPromoted``, ``NotDurableYet``) are asked again after a
        backoff, in send order; a lost connection is re-dialled (rotating to
        a fallback address when refused) and every unanswered call resent.
        Retrying is safe: with a ``tx_id`` the scheduler's exactly-once table
        answers a duplicate from the record; without one the transaction
        never left this process, so a resend is the first delivery.
        """
        fields: dict[str, object] = {"request": codec.encode_request(request)}
        if tx_id is not None:
            fields["tx_id"] = tx_id
        call = _Certification(fields, finish)
        self._in_flight.append(call)
        self._send(call)

    def _send(self, call: _Certification) -> None:
        self._certify.post("certify", functools.partial(self._answered, call), **call.fields)

    def _answered(self, call: _Certification, response: dict) -> None:
        if response.get("error_type") in REFUSALS:
            call.refused = True
            if not self._retry_armed:
                self._retry_armed = True
                self._retries += 1
                self._loop.call_later(backoff_s(self._retries), self._send_refused)
            return
        self._retries = 0
        call.answered_at = time.perf_counter()
        self.wire_wait_s += call.answered_at - call.sent_at
        try:
            call.answer = codec.decode_result(check_ok("certify", response)["result"])
            self.horizon = response["horizon"]
        except Exception as exc:  # noqa: BLE001 - the commit's to raise; the loop reads on
            call.answer = exc
        in_flight = self._in_flight
        while in_flight and in_flight[0].answer is not None:
            head = in_flight.popleft()
            self.gate_wait_s += time.perf_counter() - head.answered_at
            head.finish(head.answer)

    def _send_refused(self) -> None:
        """Ask every refused call again, in send order."""
        self._retry_armed = False
        for call in self._in_flight:
            if call.refused:
                call.refused = False
                self._send(call)

    # -- CertifierService surface (what TransparentProxy + Replica call) ------

    def subscribe_replica(self, replica: str, from_version: int = 0) -> LiveSubscription:
        self._client.call_retrying("hello_replica", replica=replica,
                                   from_version=from_version)
        return LiveSubscription(self._client, replica, self)

    def register_replica(self, replica: str, version: int = 0) -> None:
        self._client.call_retrying("register_replica", replica=replica, version=version)

    def extend_remote_horizons(self, infos: list[RemoteWriteSetInfo],
                               back_to: int) -> list[RemoteWriteSetInfo]:
        response = self._client.call_retrying(
            "extend_remote_horizons",
            infos=[codec.encode_remote_info(i) for i in infos], back_to=back_to,
        )
        return [codec.decode_remote_info(i) for i in response["infos"]]

    def replication_horizon(self) -> int:
        return self.horizon

    def close(self) -> None:
        self._client.close()
        self._certify.close()


# ---------------------------------------------------------------------------
# driver-side client session
# ---------------------------------------------------------------------------


class LiveSession:
    """A :class:`ClientSession` look-alike over the wire.

    The server side holds a real ``ClientSession`` (and so a real proxy
    transaction); this object holds only the session id, the commit sequence
    for transaction ids, and the scheduler address for in-doubt resolution.
    Workload code written against ``ClientSession`` runs against it
    unchanged.
    """

    def __init__(self, replica_host: str, replica_port: int,
                 scheduler_host: str, scheduler_port: int, *,
                 client_name: str = "client",
                 attempt_timeout_s: float | None = 30.0,
                 scheduler_fallbacks: tuple[tuple[str, int], ...] = ()) -> None:
        self.client_name = client_name
        self._replica = WireClient(replica_host, replica_port,
                                   timeout=attempt_timeout_s, name=client_name)
        # The status client knows the standby too: an in-doubt commit must
        # be resolvable even when the primary scheduler is the node that died.
        self._scheduler = WireClient(scheduler_host, scheduler_port,
                                     timeout=attempt_timeout_s,
                                     name=f"{client_name}-status",
                                     fallbacks=scheduler_fallbacks)
        self.session_id: int | None = None
        self.replica_name: str | None = None
        self.commits = 0
        self.aborts = 0
        self.in_doubt_commits = 0
        self._seq = 0
        self._in_txn = False
        #: Statements with no result (begin/insert/update/delete) are not
        #: sent immediately: they queue here and ride ahead of the next
        #: synchronous statement (read/scan/commit/abort) as one
        #: ``session_batch`` frame — halving the frame count of a typical
        #: read-modify-write transaction.  Tradeoff: a deferred statement's
        #: error (e.g. a write-write block) surfaces at the next synchronous
        #: statement instead of at the deferred one.
        self._deferred: list[dict] = []
        self._open()

    def _open(self) -> None:
        response = self._replica.call("open_session", client_name=self.client_name)
        self.session_id = response["session_id"]
        self.replica_name = response["replica"]

    def _call(self, op: str, **fields: object) -> dict:
        try:
            return self._replica.call(op, session_id=self.session_id, **fields)
        except RemoteCallError as exc:
            if exc.error_type == "TransactionAborted":
                # The server-side session already dropped its transaction
                # handle (ClientSession._guarded_write semantics).
                self._in_txn = False
                self.aborts += 1
                raise TransactionAborted(exc.error, reason=exc.reason) from exc
            raise

    def _defer(self, op: str, **fields: object) -> None:
        self._deferred.append({"op": op, **fields})

    def _sync_call(self, op: str, **fields: object) -> dict:
        """Send ``op``, fusing any deferred statements ahead of it."""
        if not self._deferred:
            return self._call(op, **fields)
        ops = self._deferred + [{"op": op, **fields}]
        self._deferred = []
        response = self._call("session_batch", ops=ops)
        results = response["results"]
        last = results[-1] if results else {}
        if not last.get("ok", False):
            failed_op = str(ops[max(len(results) - 1, 0)]["op"])
            error = RemoteCallError(
                failed_op,
                str(last.get("error", "unknown remote error")),
                error_type=str(last.get("error_type", "error")),
                reason=last.get("reason"),
            )
            if error.error_type == "TransactionAborted":
                self._in_txn = False
                self.aborts += 1
                raise TransactionAborted(error.error,
                                         reason=error.reason) from error
            raise error
        return last

    # -- transaction control (ClientSession mirror) ---------------------------

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

    def begin(self) -> None:
        self._defer("begin")
        self._in_txn = True

    def commit(self) -> CommitOutcome:
        """Commit the open transaction, tagged for exactly-once retry.

        Raises :class:`CommitInDoubt` when the replica vanishes mid-commit —
        the caller must restart/reconnect and call :meth:`resolve_commit`.
        """
        self._seq += 1
        tx_id = f"{self.client_name}:{self._seq}"
        self._in_txn = False
        try:
            response = self._sync_call("commit", tx_id=tx_id)
        except ConnectionLost as exc:
            self.in_doubt_commits += 1
            raise CommitInDoubt(tx_id, exc) from exc
        outcome = codec.decode_outcome(response["outcome"])
        if outcome.committed:
            self.commits += 1
        else:
            self.aborts += 1
        return outcome

    def abort(self) -> None:
        self._in_txn = False
        self._sync_call("abort")
        self.aborts += 1

    @contextmanager
    def transaction(self) -> Iterator["LiveSession"]:
        """Begin, then commit on success / abort on error (ClientSession mirror)."""
        self.begin()
        try:
            yield self
        except TransactionAborted:
            if self._in_txn:
                self.abort()
            raise
        except Exception:
            if self._in_txn:
                self.abort()
            raise
        else:
            if self._in_txn:
                self.commit()

    def run_readonly(self, table: str, key: object) -> dict | None:
        """One-shot read-only transaction."""
        self.begin()
        value = self.read(table, key)
        self.commit()
        return value

    # -- statement API --------------------------------------------------------

    def read(self, table: str, key: object) -> dict | None:
        return self._sync_call("read", table=table, key=key)["row"]

    def scan(self, table: str) -> list[tuple[object, dict]]:
        return [(key, row)
                for key, row in self._sync_call("scan", table=table)["rows"]]

    def insert(self, table: str, key: object, **values: object) -> None:
        self._defer("insert", table=table, key=key, values=values)

    def update(self, table: str, key: object, **values: object) -> None:
        self._defer("update", table=table, key=key, values=values)

    def delete(self, table: str, key: object) -> None:
        self._defer("delete", table=table, key=key)

    # -- crash recovery -------------------------------------------------------

    def reconnect(self, *, deadline_s: float = 30.0) -> None:
        """Re-attach to the (restarted) replica with a fresh server session.

        The old server-side session died with the old process; any open
        transaction is gone with it, which is exactly the semantics a crashed
        database gives a client.
        """
        self._deferred.clear()
        self._replica.close()
        deadline = time.monotonic() + deadline_s
        while True:
            try:
                self._open()
                return
            except (ConnectionLost, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)

    def resolve_commit(self, tx_id: str, *, wait_known_s: float = 0.0,
                       deadline_s: float = 30.0) -> CommitOutcome | None:
        """Resolve an in-doubt commit against the scheduler's tx table.

        Returns the definite :class:`CommitOutcome` when the transaction was
        admitted (the client must NOT re-execute it), or ``None`` when the
        scheduler never saw it (nothing was admitted; re-executing is safe
        and preserves exactly-once).

        ``wait_known_s`` keeps polling an *unknown* status for that long
        before concluding ``None``.  Pass a positive wait when the replica
        that was executing the commit is still alive (e.g. the fault hit a
        certifier shard): its certification is merely stalled and will be
        recorded once the shard is back.  When the executing replica itself
        was killed, nothing can still arrive and ``0.0`` is truthful.
        """
        poll_until = time.monotonic() + wait_known_s
        while True:
            response = self._scheduler.call_retrying(
                "commit_status", tx_id=tx_id, deadline_s=deadline_s,
            )
            if response["known"]:
                break
            if time.monotonic() >= poll_until:
                return None
            time.sleep(0.1)
        outcome = CommitOutcome(
            committed=response["committed"],
            readonly=False,
            commit_version=response["commit_version"],
            abort_reason=None if response["committed"] else "resolved-abort",
        )
        if outcome.committed:
            self.commits += 1
        else:
            self.aborts += 1
        return outcome

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._deferred.clear()
        if self.session_id is not None and self._replica.connected:
            try:
                self._replica.call("close_session", session_id=self.session_id)
            except (ConnectionLost, RemoteCallError):
                pass
        self._replica.close()
        self._scheduler.close()

    def __enter__(self) -> "LiveSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"LiveSession(client={self.client_name!r}, replica={self.replica_name!r}, "
            f"commits={self.commits}, aborts={self.aborts})"
        )
