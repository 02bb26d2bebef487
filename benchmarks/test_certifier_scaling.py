"""Certifier micro-benchmark: certifications/sec vs log length and writeset size.

The certifier is the shared, serialized heart of the system: every update
transaction in the cluster funnels through ``Certifier.certify``.  The seed
implementation intersection-tested the incoming writeset against *every*
logged record after the snapshot — O(log length × |writeset|) per request —
so certification throughput collapsed as the log grew.  The inverted version
index (see :mod:`repro.core.certifier_log`) makes the check O(|writeset|).

This module measures the index against the seed scan (the oracle in
``tests/certifier_log_oracle.py``) head-to-head on identical pre-seeded
logs, with the transaction snapshot pinned at version 0 so the conflict
window spans the whole log (the scan's worst case and the steady
state of a long-running cluster without GC).  Results land in
``BENCH_certifier.json`` at the repo root so the perf trajectory is tracked
across PRs.  Axes and measurement window are env-tunable — see
``benchmarks/conftest.py``.
"""

from __future__ import annotations

import platform
import time

from certifier_log_oracle import ScanCertifierLog
from conftest import CERT_LOG_LENGTHS, CERT_MEASURE_SECONDS, CERT_WS_SIZES, write_bench_json

from repro.analysis.report import format_table
from repro.core.certification import CertificationRequest, Certifier
from repro.core.certifier_log import CertifierLog
from repro.core.writeset import make_writeset

#: The acceptance point: the indexed certifier must beat the seed scan by at
#: least this factor at log length 10k with 10-item writesets.
SPEEDUP_FLOOR = 10.0
ACCEPTANCE_LOG_LEN = 10_000
ACCEPTANCE_WS_SIZE = 10


def _seed_certifier(log_class: type[CertifierLog], log_length: int,
                    ws_size: int) -> Certifier:
    """Build a certifier over a pre-populated log of ``log_length`` records."""
    certifier = Certifier(log_class())
    for i in range(log_length):
        writeset = make_writeset(
            [("bench", i * ws_size + j) for j in range(ws_size)]
        )
        start = certifier.system_version.version
        result = certifier.certify(CertificationRequest(
            tx_start_version=start,
            writeset=writeset,
            replica_version=start,
        ))
        assert result.committed
    return certifier


def _measure_certifications_per_second(certifier: Certifier, ws_size: int,
                                       seconds: float) -> tuple[float, int]:
    """Drive commit-bound requests whose window spans the entire log."""
    key = 1_000_000_000  # disjoint from the seeded keyspace: always commits
    ops = 0
    started = time.perf_counter()
    deadline = started + seconds
    now = started
    while now < deadline:
        writeset = make_writeset(
            [("bench", key + j) for j in range(ws_size)]
        )
        key += ws_size
        result = certifier.certify(CertificationRequest(
            tx_start_version=0,
            writeset=writeset,
            replica_version=certifier.system_version.version,
        ))
        assert result.committed
        ops += 1
        now = time.perf_counter()
    return ops / (now - started), ops


def _run_matrix() -> list[dict]:
    rows = []
    for log_length in CERT_LOG_LENGTHS:
        for ws_size in CERT_WS_SIZES:
            indexed_cps, indexed_ops = _measure_certifications_per_second(
                _seed_certifier(CertifierLog, log_length, ws_size),
                ws_size, CERT_MEASURE_SECONDS)
            scan_cps, scan_ops = _measure_certifications_per_second(
                _seed_certifier(ScanCertifierLog, log_length, ws_size),
                ws_size, CERT_MEASURE_SECONDS)
            rows.append({
                "log_length": log_length,
                "ws_size": ws_size,
                "indexed_cps": round(indexed_cps, 1),
                "scan_cps": round(scan_cps, 1),
                "speedup": round(indexed_cps / scan_cps, 1) if scan_cps else 0.0,
                "indexed_ops": indexed_ops,
                "scan_ops": scan_ops,
            })
    return rows


def _gc_snapshot() -> dict:
    """Show GC bounding the log: retained records after a low-water prune."""
    log_length = max(CERT_LOG_LENGTHS)
    certifier = _seed_certifier(CertifierLog, log_length, 2)
    certifier.log.mark_durable(certifier.log.last_version)
    certifier.note_replica_version("bench-replica", certifier.system_version.version)
    headroom = 128
    pruned = certifier.collect_garbage(headroom=headroom)
    return {
        "log_length": log_length,
        "headroom": headroom,
        "pruned_records": pruned,
        "retained_records": certifier.log.retained_count,
        "index_item_count": certifier.log.index_item_count,
    }


def test_certifier_scaling_and_emit_bench_json():
    rows = _run_matrix()
    gc_stats = _gc_snapshot()

    payload = {
        "benchmark": "certifier_scaling",
        "python": platform.python_version(),
        "measure_seconds": CERT_MEASURE_SECONDS,
        "scaling": rows,
        "gc": gc_stats,
    }
    write_bench_json("BENCH_certifier.json", payload)

    print()
    print("Certifier scaling: indexed vs seed linear scan "
          f"({CERT_MEASURE_SECONDS:.2f}s per cell, window = whole log)")
    print(format_table(
        ["log_length", "ws_size", "indexed_cps", "scan_cps", "speedup"],
        [{k: row[k] for k in
          ("log_length", "ws_size", "indexed_cps", "scan_cps", "speedup")}
         for row in rows],
    ))
    print(f"GC: pruned {gc_stats['pruned_records']} of {gc_stats['log_length']} "
          f"records, {gc_stats['retained_records']} retained "
          f"({gc_stats['index_item_count']} indexed items)")

    # Indexed certification must never lose to the scan, at any size.
    for row in rows:
        assert row["indexed_cps"] >= row["scan_cps"] * 0.8, row

    # Acceptance: ≥ 10× at the paper-scale point (armed only when that point
    # is part of the measured matrix, so CI smoke runs with tiny axes pass).
    for row in rows:
        if (row["log_length"] >= ACCEPTANCE_LOG_LEN
                and row["ws_size"] >= ACCEPTANCE_WS_SIZE):
            assert row["speedup"] >= SPEEDUP_FLOOR, (
                f"indexed certifier only {row['speedup']}× faster than the "
                f"seed scan at log length {row['log_length']}, "
                f"writeset size {row['ws_size']}"
            )

    # GC keeps the log bounded by low-water mark + headroom.
    assert gc_stats["retained_records"] <= gc_stats["headroom"] + 1
    assert gc_stats["pruned_records"] >= gc_stats["log_length"] - gc_stats["headroom"] - 1
