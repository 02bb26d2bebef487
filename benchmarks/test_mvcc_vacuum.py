"""MVCC storage micro-benchmark: vacuum keeps hot-path reads flat.

Two measurements, both on the functional engine (no simulation):

* **Sustained group-apply** — a replica applies certified writesets the way
  the transport delivers them (``apply_writeset_batch``): hot-row updates
  grow version chains, insert/delete churn grows the row directory.  With
  maintenance on (one horizon-clamped vacuum pass of the proxy's inline
  budget, ``MAINTENANCE_VACUUM_ROWS``, after every batch) chains stay at their live suffix and dead rows leave the
  directory; without it both grow with history, and snapshot scans pay for
  every dead version.  The emitted rows record the deterministic structure
  metrics (max chain length, retained rows — functions of the axes alone)
  and the wall-clock scan throughputs, guarded by their on/off ratio.

* **Row-layout micro-benchmark** — raw installs into one long chain, the
  seed's list layout (``insert(0)`` + stamped head copies, the oracle in
  ``tests/row_oracle.py``) against the O(1) linked chain, plus deep snapshot reads (a full-chain walk in both).

Results land in ``BENCH_mvcc_vacuum.json`` at the repo root (see
``tools/check_bench_regression.py``).  Axes are env-tunable — see
``benchmarks/conftest.py``.
"""

from __future__ import annotations

import platform
import time

from conftest import MVCC_CHAIN_LENGTHS, MVCC_HISTORIES, MVCC_MEASURE_SECONDS, write_bench_json
from row_oracle import LegacyVersionedRow

from repro.analysis.report import format_table
from repro.core.writeset import WriteSet
from repro.engine.database import Database
from repro.engine.rows import RowVersion, VersionedRow
from repro.middleware.proxy import MAINTENANCE_VACUUM_ROWS

#: Live working set (rows a scan returns), hot keys absorbing the update
#: stream, writesets per applied batch, and how many versions a churn row
#: lives before its delete arrives.  Fixed: they shape the deterministic
#: structure metrics, so they must not drift between CI and local runs.
LIVE_ROWS = 64
HOT_KEYS = 8
BATCH_WRITESETS = 64
CHURN_LIFETIME = 32
CHURN_BASE = 1_000_000

#: Acceptance (ISSUE 7): at the longest history point the maintained replica
#: must scan at least twice as fast as the unmaintained one, with its max
#: chain length bounded (independent of history).  Armed only when the axes
#: include the paper-scale point, so reduced smoke runs still pass.
ACCEPTANCE_HISTORY = 8_000
READ_SPEEDUP_FLOOR = 2.0
CHAIN_BOUND = 2


def _seeded_database(name: str) -> Database:
    db = Database(name, synchronous_commit=False)
    db.create_table("bench", ["id", "value"])
    seed = WriteSet()
    for key in range(LIVE_ROWS):
        seed.add_insert("bench", key, id=key, value=0)
    db.apply_writeset_batch([(1, seed)])
    return db


def _churn_writeset(version: int) -> WriteSet:
    """One certified commit: a hot-row update plus directory churn."""
    ws = WriteSet()
    ws.add_update("bench", version % HOT_KEYS, value=version)
    ws.add_insert("bench", CHURN_BASE + version, id=CHURN_BASE + version, value=version)
    expiring = version - CHURN_LIFETIME
    if expiring > 1:
        ws.add_delete("bench", CHURN_BASE + expiring)
    return ws


def _drive_replica(history: int, *, vacuum_on: bool) -> tuple[Database, float]:
    """Apply ``history`` commits in transport-sized batches; time the loop."""
    db = _seeded_database("vacuum-on" if vacuum_on else "vacuum-off")
    version = db.current_version
    started = time.perf_counter()
    applied = 0
    while applied < history:
        batch = []
        for _ in range(min(BATCH_WRITESETS, history - applied)):
            version += 1
            applied += 1
            batch.append((version, _churn_writeset(version)))
        db.apply_writeset_batch(batch)
        if vacuum_on:
            db.vacuum(replication_horizon=db.current_version,
                      max_rows=MAINTENANCE_VACUUM_ROWS)
    elapsed = time.perf_counter() - started
    return db, elapsed


def _scan_throughput(db: Database, seconds: float) -> tuple[float, int]:
    """Full snapshot scans per second at the current version."""
    table = db.table("bench")
    snapshot = db.current_version
    scans = 0
    rows = len(table.snapshot_state(snapshot))
    started = time.perf_counter()
    deadline = started + seconds
    now = started
    while now < deadline:
        table.snapshot_state(snapshot)
        scans += 1
        now = time.perf_counter()
    return scans / (now - started), rows


def _sustained_matrix() -> list[dict]:
    rows = []
    for history in MVCC_HISTORIES:
        on_db, on_apply_s = _drive_replica(history, vacuum_on=True)
        off_db, off_apply_s = _drive_replica(history, vacuum_on=False)
        # Equivalence check: maintenance must not change what the current
        # snapshot reads.
        state_on = on_db.table("bench").snapshot_state(on_db.current_version)
        state_off = off_db.table("bench").snapshot_state(off_db.current_version)
        assert state_on == state_off
        on_scans, live_rows = _scan_throughput(on_db, MVCC_MEASURE_SECONDS)
        off_scans, _ = _scan_throughput(off_db, MVCC_MEASURE_SECONDS)
        stats_on = on_db.mvcc_stats()
        stats_off = off_db.mvcc_stats()
        rows.append({
            "history": history,
            "live_rows": live_rows,
            "max_chain_on": stats_on.max_chain_length,
            "max_chain_off": stats_off.max_chain_length,
            "retained_rows_on": len(on_db.table("bench")._rows),
            "retained_rows_off": len(off_db.table("bench")._rows),
            "versions_reclaimed": stats_on.versions_reclaimed,
            "scan_per_s_on": round(on_scans, 1),
            "scan_per_s_off": round(off_scans, 1),
            "read_speedup": round(on_scans / off_scans, 1) if off_scans else 0.0,
            "apply_tps_on": round(history / on_apply_s, 1),
            "apply_tps_off": round(history / off_apply_s, 1),
        })
    return rows


def _build_chain(row, length: int) -> None:
    for version in range(1, length + 1):
        row.install(RowVersion(created_version=version, values={"value": version}))


def _install_throughput(factory, length: int, seconds: float) -> float:
    """Installs per second, building chains of ``length`` repeatedly."""
    installs = 0
    started = time.perf_counter()
    deadline = started + seconds
    now = started
    while now < deadline:
        _build_chain(factory(1), length)
        installs += length
        now = time.perf_counter()
    return installs / (now - started)


def _deep_read_throughput(row, seconds: float) -> float:
    """Deep snapshot reads per second (a full-chain walk: snapshot 1)."""
    reads = 0
    started = time.perf_counter()
    deadline = started + seconds
    now = started
    while now < deadline:
        row.version_for_snapshot(1)
        reads += 1
        now = time.perf_counter()
    return reads / (now - started)


def _layout_matrix() -> list[dict]:
    rows = []
    for length in MVCC_CHAIN_LENGTHS:
        linked_installs = _install_throughput(VersionedRow, length, MVCC_MEASURE_SECONDS)
        legacy_installs = _install_throughput(LegacyVersionedRow, length, MVCC_MEASURE_SECONDS)
        linked_row, legacy_row = VersionedRow(1), LegacyVersionedRow(1)
        _build_chain(linked_row, length)
        _build_chain(legacy_row, length)
        linked_reads = _deep_read_throughput(linked_row, MVCC_MEASURE_SECONDS / 2)
        legacy_reads = _deep_read_throughput(legacy_row, MVCC_MEASURE_SECONDS / 2)
        rows.append({
            "chain_length": length,
            "linked_installs_per_s": round(linked_installs, 1),
            "legacy_installs_per_s": round(legacy_installs, 1),
            "install_speedup": round(linked_installs / legacy_installs, 2)
            if legacy_installs else 0.0,
            "linked_deep_reads_per_s": round(linked_reads, 1),
            "legacy_deep_reads_per_s": round(legacy_reads, 1),
        })
    return rows


def test_mvcc_vacuum_and_emit_bench_json():
    sustained = _sustained_matrix()
    layout = _layout_matrix()

    payload = {
        "benchmark": "mvcc_vacuum",
        "python": platform.python_version(),
        "measure_seconds": MVCC_MEASURE_SECONDS,
        "live_rows": LIVE_ROWS,
        "hot_keys": HOT_KEYS,
        "batch_writesets": BATCH_WRITESETS,
        "sustained": sustained,
        "layout": layout,
    }
    write_bench_json("BENCH_mvcc_vacuum.json", payload)

    print()
    print("Sustained group-apply: vacuum on vs off "
          f"({MVCC_MEASURE_SECONDS:.2f}s per scan measurement)")
    print(format_table(
        ["history", "max_chain_on", "max_chain_off", "retained_rows_on",
         "retained_rows_off", "scan_per_s_on", "scan_per_s_off", "read_speedup"],
        [{k: row[k] for k in
          ("history", "max_chain_on", "max_chain_off", "retained_rows_on",
           "retained_rows_off", "scan_per_s_on", "scan_per_s_off", "read_speedup")}
         for row in sustained],
    ))
    print("Row layout: O(1) linked chain vs seed list layout")
    print(format_table(
        ["chain_length", "linked_installs_per_s", "legacy_installs_per_s",
         "install_speedup"],
        [{k: row[k] for k in
          ("chain_length", "linked_installs_per_s", "legacy_installs_per_s",
           "install_speedup")}
         for row in layout],
    ))

    for row in sustained:
        # Maintained chains are bounded by the batch cadence, not history:
        # the final vacuum pass cuts every chain to its live suffix.
        assert row["max_chain_on"] <= CHAIN_BOUND, row
        # The unmaintained replica demonstrates the problem: chains grow
        # with history (each hot key absorbs history/HOT_KEYS updates).
        assert row["max_chain_off"] >= row["history"] // HOT_KEYS, row
        # ...and its directory retains every churned row ever inserted.
        assert row["retained_rows_off"] >= row["history"] - CHURN_LIFETIME
        assert row["retained_rows_on"] <= LIVE_ROWS + CHURN_LIFETIME + BATCH_WRITESETS

    # Acceptance: at the paper-scale history the maintained replica scans
    # >= 2x faster (armed only when that point is in the measured axes).
    for row in sustained:
        if row["history"] >= ACCEPTANCE_HISTORY:
            assert row["read_speedup"] >= READ_SPEEDUP_FLOOR, (
                f"vacuum-on scans only {row['read_speedup']}x faster than "
                f"vacuum-off at history {row['history']}"
            )

    # The linked layout must never lose to the seed layout on installs.
    for row in layout:
        assert row["install_speedup"] >= 1.0, row
