"""The list-scan proxy: the oracle the indexed ``proxy_log`` is checked against.

Until the proxy's log became a :class:`~repro.core.certifier_log.CertifierLog`
it was a Python list of every writeset the replica had ever applied, walked
in full on every write (eager pre-certification) and every commit (local
certification).  Those two loops live on here, verbatim, over a list that is
never trimmed — so whatever the indexed, pruned log decides can be compared
with what remembering everything would have decided.
"""

from __future__ import annotations

from repro.core.writeset import WriteSet
from repro.errors import CertificationAborted
from repro.middleware.proxy import ProxyTransaction, TransparentProxy


class ScanProxy(TransparentProxy):
    """A :class:`TransparentProxy` whose two checks scan a never-trimmed list."""

    def __init__(self, *args, **kwargs) -> None:
        self.scan_log: list[tuple[int, WriteSet]] = []
        super().__init__(*args, **kwargs)

    def _remember(self, commit_version: int, writeset: WriteSet) -> None:
        super()._remember(commit_version, writeset)
        self.scan_log.append((commit_version, writeset))

    def _eager_pre_certify(self, txn: ProxyTransaction, table: str, key: object) -> None:
        if not self.eager_pre_certification:
            return
        for commit_version, writeset in self.scan_log:
            if commit_version <= txn.versions.effective_start_version:
                continue
            if writeset.touches(table, key):
                self.database.abort(txn.engine_txn, reason="eager-pre-certification")
                self.stats.eager_precert_aborts += 1
                raise CertificationAborted(
                    f"write to {(table, key)!r} conflicts with remote writeset "
                    f"committed at version {commit_version}"
                )

    def _locally_certify(self, txn: ProxyTransaction, writeset: WriteSet) -> bool:
        effective = txn.versions.effective_start_version
        for commit_version, remote_ws in self.scan_log:
            if commit_version <= effective:
                continue
            if writeset.conflicts_with(remote_ws):
                return False
            if commit_version == effective + 1:
                effective = commit_version
        txn.versions.advance_effective_start(effective)
        return True
