"""The linear-scan certifier log: the oracle the inverted index is checked against.

Before :class:`~repro.core.certifier_log.CertifierLog` kept an inverted
item → versions index, every conflict check walked the logged records of its
window and intersection-tested each writeset.  Those scans live on here,
verbatim, over the retained records of any log.  :class:`ScanCertifierLog`
answers every query with them — the property suite checks the index against
it after every operation, and the certifier micro-benchmark times it as the
seed baseline.
"""

from __future__ import annotations

from repro.core.certifier_log import CertifierLog
from repro.core.writeset import WriteSet


def scan_conflicts(log: CertifierLog, writeset: WriteSet, after_version: int,
                   end: int) -> bool:
    for record in log.records_between(after_version, end):
        if writeset.conflicts_with(record.writeset):
            return True
    return False


def scan_first_conflicting_version(log: CertifierLog, writeset: WriteSet,
                                   after_version: int) -> int | None:
    for record in log.records_after(after_version):
        if writeset.conflicts_with(record.writeset):
            return record.commit_version
    return None


def scan_first_writer(log: CertifierLog, table: str, key: object,
                      after_version: int) -> int | None:
    for record in log.records_after(after_version):
        if record.writeset.touches(table, key):
            return record.commit_version
    return None


class ScanCertifierLog(CertifierLog):
    """A :class:`CertifierLog` whose conflict checks scan the retained records.

    The window and GC-horizon rules are restated here rather than inherited,
    so a bug in them shows up as a disagreement too.  ``extend_certification``
    is inherited and runs on the scanning :meth:`conflicts`.
    """

    def conflicts(self, writeset: WriteSet, after_version: int,
                  up_to_version: int | None = None) -> bool:
        end = self.last_version if up_to_version is None else min(up_to_version, self.last_version)
        if after_version >= end:
            return False
        if after_version < self.pruned_version:
            return True
        return scan_conflicts(self, writeset, after_version, end)

    def first_conflicting_version(self, writeset: WriteSet,
                                  after_version: int) -> int | None:
        if after_version >= self.last_version:
            return None
        if after_version < self.pruned_version:
            return self.pruned_version
        return scan_first_conflicting_version(self, writeset, after_version)

    def first_writer_version(self, table: str, key: object,
                             after_version: int) -> int | None:
        if after_version >= self.last_version:
            return None
        if after_version < self.pruned_version:
            return self.pruned_version
        return scan_first_writer(self, table, key, after_version)
