"""Anti-entropy bootstrap benchmark: state-transfer size and modeled time.

A group node of the replicated sharded certifier dies early; the workload
keeps committing, GC advances the horizon and compaction truncates the
Paxos logs beneath it; the node then rejoins through the snapshot-plus-
suffix bootstrap path (:func:`repro.recovery.snapshots.bootstrap_group_node`).
Everything is functional and deterministic — the axes are the commit-history
length and the GC headroom (which trades snapshot cadence against
retained-suffix length), and the reported seconds come from the Section 9.6
timing model applied to the actually-transferred snapshot bytes and suffix
entries (→ ``BENCH_bootstrap.json``, guarded by
``tools/check_bench_regression.py``):

* ``modeled_bootstrap_ms`` — snapshot + suffix over the paper's LAN; must
  scale with the retained state, not with the full history;
* ``failover_window_ms`` — the sim's calibrated failover window for the
  shard (suffix-only transfer of the retained log);
* ``max_node_log_entries`` — the compaction win itself: the per-node log
  stays bounded by the headroom while the history grows without bound.
"""

from __future__ import annotations

import platform

from conftest import BOOTSTRAP_HEADROOMS, BOOTSTRAP_HISTORIES, write_bench_json

from repro.analysis.report import format_table
from repro.consensus.sharded import ReplicatedShardedCertifier
from repro.core.certification import CertificationRequest
from repro.core.writeset import make_writeset
from repro.recovery.snapshots import bootstrap_group_node, compact_certifier
from repro.recovery.timings import RecoveryTimingModel

SHARDS = 2
#: The observed node goes down after this many commits.
CRASH_AFTER = 10


def _commit(certifier: ReplicatedShardedCertifier, key: int) -> None:
    version = certifier.core.last_version
    result = certifier.certify(
        CertificationRequest(
            writeset=make_writeset([("t0", key)]),
            tx_start_version=version,
            replica_version=version,
            origin_replica="client",
        ),
        tx_id=("tx", key),
    )
    assert result.committed


def _sync(certifier: ReplicatedShardedCertifier) -> None:
    version = certifier.core.last_version
    for name in ("r1", "r2", "client"):
        certifier.note_replica_version(name, version)


def _run_cell(history: int, headroom: int) -> dict:
    model = RecoveryTimingModel()
    certifier = ReplicatedShardedCertifier(
        SHARDS, nodes_per_shard=3, gc_headroom=headroom)
    max_log = 0
    for key in range(history):
        if key == CRASH_AFTER:
            certifier.groups.crash_node(0, 2)
        _commit(certifier, key)
        # GC + compact periodically, as the certifier does every N requests.
        if key % 10 == 9:
            _sync(certifier)
            certifier.collect_garbage()
            compact_certifier(certifier)
        max_log = max(max_log, *certifier.groups.node_log_lengths(0),
                      *certifier.groups.node_log_lengths(1))
    # The outage tail: GC stalls (replicas stop reporting, so it
    # cannot advance) for half the history again — the state the bootstrap
    # must transfer as retained suffix, scaling with the outage length.
    for key in range(history, history + history // 2):
        _commit(certifier, key)
    report = bootstrap_group_node(certifier.groups, 0, 2)
    assert report.verified
    plan = report.plan
    return {
        "history": history,
        "headroom": headroom,
        "suffix_entries": plan.suffix_entries,
        "snapshot_bytes": plan.snapshot_bytes,
        "snapshot_installed": report.snapshot_installed,
        "entries_transferred": report.entries_transferred,
        "modeled_bootstrap_ms": round(plan.estimated_seconds * 1e3, 6),
        "failover_window_ms": round(
            model.certifier_bootstrap_seconds(
                0, certifier.core.shards[0].log.retained_count) * 1e3, 6),
        "max_node_log_entries": max_log,
        "ack_entries_dropped": certifier.stats.ack_entries_dropped,
        "compactions": certifier.stats.compactions,
    }


def test_bootstrap_state_transfer_scaling_and_emit_bench_json():
    rows = [_run_cell(history, headroom)
            for history in BOOTSTRAP_HISTORIES
            for headroom in BOOTSTRAP_HEADROOMS]

    payload = {
        "benchmark": "replica_bootstrap",
        "python": platform.python_version(),
        "shards": SHARDS,
        "nodes_per_shard": 3,
        "crash_after_commits": CRASH_AFTER,
        "time_base": "modeled (Section 9.6 calibration, deterministic)",
        "results": rows,
    }
    write_bench_json("BENCH_bootstrap.json", payload)

    print()
    print("Anti-entropy bootstrap: node down from commit "
          f"{CRASH_AFTER}, rejoining via snapshot + suffix")
    columns = ["history", "headroom", "suffix_entries", "snapshot_bytes",
               "modeled_bootstrap_ms", "failover_window_ms",
               "max_node_log_entries"]
    print(format_table(columns, [{k: row[k] for k in columns}
                                 for row in rows]))

    by_cell = {(row["history"], row["headroom"]): row for row in rows}
    for row in rows:
        # Every cell compacted past the dead node's prefix: the rejoin went
        # through the snapshot path, and the transfer equals the plan.
        assert row["snapshot_installed"]
        assert row["entries_transferred"] == row["suffix_entries"]
        assert row["compactions"] >= 1
        assert row["ack_entries_dropped"] > 0
    for headroom in BOOTSTRAP_HEADROOMS:
        cells = [by_cell[(history, headroom)] for history in BOOTSTRAP_HISTORIES]
        # While GC runs, the node log is horizon-bound: it does NOT
        # grow with the history...
        spread = max(c["max_node_log_entries"] for c in cells) \
            - min(c["max_node_log_entries"] for c in cells)
        assert spread <= 2 * headroom + 4
        assert all(c["max_node_log_entries"] < c["history"] for c in cells
                   if c["history"] >= 40)
        # ...and the state-transfer time scales with the retained suffix
        # (the outage tail), not with the total history.
        for smaller, larger in zip(cells, cells[1:]):
            assert larger["suffix_entries"] > smaller["suffix_entries"]
            assert larger["modeled_bootstrap_ms"] > smaller["modeled_bootstrap_ms"]
            assert larger["failover_window_ms"] > smaller["failover_window_ms"]
    for history in BOOTSTRAP_HISTORIES:
        # A larger headroom retains a longer suffix on top of the tail.
        ordered = [by_cell[(history, headroom)]
                   for headroom in sorted(BOOTSTRAP_HEADROOMS)]
        for smaller, larger in zip(ordered, ordered[1:]):
            assert larger["suffix_entries"] >= smaller["suffix_entries"]
            assert larger["modeled_bootstrap_ms"] >= smaller["modeled_bootstrap_ms"]
