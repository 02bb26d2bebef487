"""Client-facing session API.

Clients of the replicated system talk JDBC to the proxy in the paper; here
:class:`ClientSession` is the equivalent convenience layer: it owns at most
one open transaction at a time, retries nothing on its own, and exposes
begin/read/insert/update/delete/commit/abort plus a context-manager form for
read-only work.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.errors import InvalidTransactionState, TransactionAborted
from repro.middleware.proxy import CommitOutcome, CommitSteps, ProxyTransaction, TransparentProxy


class ClientSession:
    """A client connection to one replica's proxy."""

    def __init__(self, proxy: TransparentProxy, *, client_name: str = "client") -> None:
        self.proxy = proxy
        self.client_name = client_name
        self._txn: ProxyTransaction | None = None
        self.commits = 0
        self.aborts = 0

    # -- transaction control -----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin(self) -> None:
        """Start a transaction (implicit BEGIN)."""
        if self._txn is not None:
            raise InvalidTransactionState(
                f"client {self.client_name!r} already has an open transaction"
            )
        self._txn = self.proxy.begin(label=self.client_name)

    def commit(self) -> CommitOutcome:
        """Commit the open transaction and return the outcome."""
        txn = self._take_txn()
        try:
            outcome = self.proxy.commit(txn)
        except TransactionAborted as exc:
            outcome = CommitOutcome(committed=False, abort_reason=exc.reason)
        return self._counted(outcome)

    def commit_steps(self) -> CommitSteps:
        """:meth:`commit` split at its certification call, as
        :meth:`TransparentProxy.commit_steps` is (:meth:`commit` itself calls
        :meth:`TransparentProxy.commit`, which drives them)."""
        txn = self._take_txn()
        try:
            outcome = yield from self.proxy.commit_steps(txn)
        except TransactionAborted as exc:
            outcome = CommitOutcome(committed=False, abort_reason=exc.reason)
        return self._counted(outcome)

    def _take_txn(self) -> ProxyTransaction:
        txn = self._require_txn()
        self._txn = None
        return txn

    def _counted(self, outcome: CommitOutcome) -> CommitOutcome:
        if outcome.committed:
            self.commits += 1
        else:
            self.aborts += 1
        return outcome

    def abort(self) -> None:
        """Abort the open transaction (ROLLBACK)."""
        txn = self._require_txn()
        self._txn = None
        self.proxy.abort(txn)
        self.aborts += 1

    # -- statements -----------------------------------------------------------------

    def read(self, table: str, key: object) -> Mapping[str, object] | None:
        return self.proxy.read(self._require_txn(), table, key)

    def scan(self, table: str) -> list[tuple[object, Mapping[str, object]]]:
        return self.proxy.scan(self._require_txn(), table)

    def insert(self, table: str, key: object, **values: object) -> None:
        self._guarded_write("insert", table, key, values)

    def update(self, table: str, key: object, **values: object) -> None:
        self._guarded_write("update", table, key, values)

    def delete(self, table: str, key: object) -> None:
        self._guarded_write("delete", table, key, {})

    def _guarded_write(self, kind: str, table: str, key: object,
                       values: Mapping[str, object]) -> None:
        txn = self._require_txn()
        try:
            if kind == "insert":
                self.proxy.insert(txn, table, key, **values)
            elif kind == "update":
                self.proxy.update(txn, table, key, **values)
            else:
                self.proxy.delete(txn, table, key)
        except TransactionAborted:
            # The transaction is gone (conflict, deadlock victim, eager
            # pre-certification...); drop our handle so the client can retry
            # with a fresh transaction.
            self._txn = None
            self.aborts += 1
            raise

    # -- convenience ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["ClientSession"]:
        """Context manager: begin, then commit on success / abort on error."""
        self.begin()
        try:
            yield self
        except TransactionAborted:
            if self._txn is not None:
                self.abort()
            raise
        except Exception:
            if self._txn is not None:
                self.abort()
            raise
        else:
            if self._txn is not None:
                self.commit()

    def run_readonly(self, table: str, key: object) -> Mapping[str, object] | None:
        """One-shot read-only transaction."""
        self.begin()
        value = self.read(table, key)
        self.commit()
        return value

    def _require_txn(self) -> ProxyTransaction:
        if self._txn is None:
            raise InvalidTransactionState(
                f"client {self.client_name!r} has no open transaction"
            )
        return self._txn

    def __repr__(self) -> str:
        return (
            f"ClientSession(client={self.client_name!r}, commits={self.commits}, "
            f"aborts={self.aborts}, open={self.in_transaction})"
        )
