"""Section 9.6: recovery times.

Reproduces the recovery-time table: Tashkent-MW needs periodic dumps (230 s
to take one, 140 s to restore) and writeset replay (~222 s per hour of down
time at 900 writesets/s), whereas Base / Tashkent-API databases recover with
their own WAL in a few seconds; the certifier recovers by transferring ~56 MB
of log per hour of down time (~1 s on the LAN).  The table is emitted as
``BENCH_recovery_times.json`` (deterministic model outputs, guarded by
``tools/check_bench_regression.py``), and the functional replay path is also
exercised end to end on real engine instances.
"""

import platform
from functools import lru_cache

from conftest import write_bench_json
from repro.analysis.report import format_table
from repro.core.certification import CertificationRequest
from repro.core.writeset import make_writeset
from repro.engine.checkpoint import CheckpointStore
from repro.engine.database import Database
from repro.middleware.certifier import CertifierService
from repro.recovery.replica_recovery import recover_tashkent_mw_replica
from repro.recovery.timings import RecoveryTimingModel


@lru_cache(maxsize=None)
def _timing_rows():
    model = RecoveryTimingModel()
    rows = []
    for downtime_hours in (0.5, 1.0, 2.0):
        timings = model.timings(downtime_hours=downtime_hours)
        missed = model.writesets_missed(downtime_hours)
        rows.append({
            "downtime_h": downtime_hours,
            "mw_dump_s": round(timings.dump_seconds, 0),
            "mw_restore_s": round(timings.restore_seconds, 0),
            "base_wal_recovery_s": timings.wal_recovery_seconds,
            "writeset_replay_s": round(timings.writeset_replay_seconds, 0),
            "certifier_transfer_s": round(timings.certifier_transfer_seconds, 2),
            # The snapshot-plus-suffix decomposition: with no snapshot the
            # whole outage rides the retained suffix and the bootstrap time
            # equals the classic whole-log transfer above.
            "bootstrap_suffix_entries": missed,
            "certifier_bootstrap_s": round(
                model.certifier_bootstrap_seconds(0, missed), 2),
        })
    return rows


def test_section96_recovery_time_table(benchmark):
    rows = benchmark.pedantic(_timing_rows, rounds=1, iterations=1)
    print()
    print("Section 9.6: recovery times (TPC-W configuration, 15 replicas)")
    print(format_table(list(rows[0].keys()), rows))

    payload = {
        "benchmark": "recovery_times",
        "python": platform.python_version(),
        "time_base": "modeled (Section 9.6 calibration, deterministic)",
        "results": rows,
    }
    write_bench_json("BENCH_recovery_times.json", payload)

    one_hour = next(row for row in rows if row["downtime_h"] == 1.0)
    assert abs(one_hour["mw_dump_s"] - 230) <= 5
    assert abs(one_hour["mw_restore_s"] - 140) <= 5
    assert 2 <= one_hour["base_wal_recovery_s"] <= 4
    assert abs(one_hour["writeset_replay_s"] - 222) <= 15
    assert one_hour["certifier_transfer_s"] <= 3.0
    assert one_hour["certifier_bootstrap_s"] == one_hour["certifier_transfer_s"]


def test_functional_writeset_replay_throughput(benchmark):
    """Measure the real engine's writeset replay rate on a recovery path."""
    certifier = CertifierService()
    for i in range(400):
        certifier.certify(CertificationRequest(
            tx_start_version=i,
            writeset=make_writeset([("accounts", i % 50)]),
            replica_version=i,
        ))

    def recover():
        db = Database("replica", synchronous_commit=False)
        db.create_table("accounts", ["id"])
        store = CheckpointStore()
        store.add(db.dump())
        report = recover_tashkent_mw_replica(store, certifier.log)
        return report

    report = benchmark(recover)
    assert report.writesets_replayed == 400
    assert report.final_version == certifier.system_version
