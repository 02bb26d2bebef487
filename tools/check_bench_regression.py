#!/usr/bin/env python3
"""Benchmark regression gate: fresh BENCH_*.json vs the committed files.

The repository commits the benchmark result files (``BENCH_*.json`` at the
repo root) alongside the code that produced them.  CI re-emits them and this
script fails the build when a *guarded metric* regressed by more than the
tolerance (default 25%).

Only metrics that are stable across machines are guarded:

* **deterministic** metrics come from the discrete-event simulation and must
  reproduce almost exactly on any host (tolerance still applies, so a
  deliberate re-calibration inside the band does not need a baseline bump);
* **ratio** metrics (speedups) divide out the host's
  absolute speed, so wall-clock micro-benchmarks are compared by their
  shape, not by the raw ops/sec of whatever runner CI landed on.

Each guard names the file, how to key rows, the metric field, and the good
direction (``higher``/``lower``).  A fresh row missing a committed
counterpart fails — silently dropping a measured point is itself a
regression.  Intentional performance changes are shipped by regenerating the
committed file in the same PR (run the benchmark, commit the JSON).

Run as:  python tools/check_bench_regression.py [--tolerance 0.25]
(standard library only; benchmarks must have been run first with
``pytest --refresh-bench-baselines`` so the fresh files exist at the repo
root — a default run writes to the untracked ``benchmarks/out/`` — then this
compares them against ``git show HEAD:<file>``.)
"""

from __future__ import annotations

import argparse
import json
import subprocess
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Guard:
    """One guarded metric inside one benchmark file."""

    file: str
    #: Dotted path to the list of result rows (e.g. "results" or "scaling").
    rows_key: str
    #: Fields identifying a row (the join key between fresh and committed).
    key_fields: tuple[str, ...]
    #: The numeric field to compare.
    metric: str
    #: "higher" = larger is better (throughput); "lower" = smaller is better.
    direction: str
    #: Per-guard tolerance override.  Deterministic simulated metrics use the
    #: strict default; wall-clock ratios carry host-speed noise (their op
    #: counts per window shift with the runner), so they only guard against
    #: catastrophic regressions — e.g. losing the index or the batching.
    tolerance: float | None = None


GUARDS: tuple[Guard, ...] = (
    # Deterministic simulated throughput: the sharding win itself.
    Guard("BENCH_certifier_shards.json", "results",
          ("shards", "cross_ratio"), "certifications_per_sec", "higher"),
    Guard("BENCH_certifier_shards.json", "results",
          ("shards", "cross_ratio"), "speedup_vs_single", "higher"),
    # Deterministic simulated availability: throughput with and without a
    # shard-leader outage, and how fast the pipeline drains on recovery
    # (recovery_lag_ms only exists in the crash-scenario row; the steady row
    # is skipped for that metric).
    Guard("BENCH_recovery.json", "results",
          ("scenario",), "certifications_per_sec", "higher"),
    Guard("BENCH_recovery.json", "results",
          ("scenario",), "recovery_lag_ms", "lower"),
    # Deterministic modeled recovery table (Section 9.6 calibration): the
    # classic whole-log transfer and its snapshot-plus-suffix decomposition.
    Guard("BENCH_recovery_times.json", "results",
          ("downtime_h",), "certifier_transfer_s", "lower"),
    Guard("BENCH_recovery_times.json", "results",
          ("downtime_h",), "certifier_bootstrap_s", "lower"),
    Guard("BENCH_recovery_times.json", "results",
          ("downtime_h",), "writeset_replay_s", "lower"),
    # Deterministic functional bootstrap: state-transfer time must keep
    # scaling with retained state (suffix + snapshot), never with the full
    # history, and compaction must keep the per-node log bounded.
    Guard("BENCH_bootstrap.json", "results",
          ("history", "headroom"), "modeled_bootstrap_ms", "lower"),
    Guard("BENCH_bootstrap.json", "results",
          ("history", "headroom"), "failover_window_ms", "lower"),
    Guard("BENCH_bootstrap.json", "results",
          ("history", "headroom"), "max_node_log_entries", "lower"),
    # Wall-clock micro-benchmarks: guard the machine-independent ratios,
    # loosely (indexed-vs-scan stays >10x even at 60% tolerance; a lost
    # index is a ~100x collapse and still fails loudly).
    Guard("BENCH_certifier.json", "scaling",
          ("log_length", "ws_size"), "speedup", "higher", tolerance=0.6),
    # MVCC vacuum: the structure metrics are deterministic functions of the
    # benchmark axes (chain length and retained rows after maintenance must
    # not creep up); the scan and install speedups are wall-clock ratios,
    # guarded loosely — losing the vacuum or the O(1) install layout is an
    # order-of-magnitude collapse and still fails at 60%.
    Guard("BENCH_mvcc_vacuum.json", "sustained",
          ("history",), "max_chain_on", "lower"),
    Guard("BENCH_mvcc_vacuum.json", "sustained",
          ("history",), "retained_rows_on", "lower"),
    Guard("BENCH_mvcc_vacuum.json", "sustained",
          ("history",), "read_speedup", "higher", tolerance=0.6),
    Guard("BENCH_mvcc_vacuum.json", "layout",
          ("chain_length",), "install_speedup", "higher", tolerance=0.6),
)


def load_fresh(name: str) -> dict | None:
    path = REPO_ROOT / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


def load_committed(name: str) -> dict | None:
    """The committed baseline, read from git so the working tree's freshly
    emitted file cannot shadow it."""
    result = subprocess.run(
        ["git", "show", f"HEAD:{name}"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def rows_by_key(payload: dict, guard: Guard) -> dict[tuple, dict]:
    rows = payload.get(guard.rows_key, [])
    return {tuple(row[k] for k in guard.key_fields): row for row in rows}


def check_guard(guard: Guard, default_tolerance: float) -> list[str]:
    tolerance = guard.tolerance if guard.tolerance is not None else default_tolerance
    fresh_payload = load_fresh(guard.file)
    committed_payload = load_committed(guard.file)
    if fresh_payload is None:
        return [f"{guard.file}: fresh file missing (benchmarks not run?)"]
    fresh_rows = rows_by_key(fresh_payload, guard)
    errors: list[str] = []
    if committed_payload is None:
        # A brand-new benchmark file has no baseline yet; it becomes one at
        # the commit that introduces it.
        return errors
    for key, committed_row in rows_by_key(committed_payload, guard).items():
        if committed_row.get(guard.metric) is None:
            # Conditionally-present metrics (e.g. recovery_lag_ms exists only
            # in the crash-scenario row, and is null when unmeasurable) are
            # not guarded for rows whose baseline lacks them.
            continue
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            errors.append(
                f"{guard.file}: row {key} present in the committed baseline "
                f"but missing from the fresh run"
            )
            continue
        if fresh_row.get(guard.metric) is None:
            # A fresh row dropping (or nulling) a guarded metric its baseline
            # has is a regression, reported cleanly rather than as a KeyError.
            errors.append(
                f"{guard.file}: metric {guard.metric!r} of row {key} present "
                f"in the committed baseline but missing from the fresh run"
            )
            continue
        baseline = float(committed_row[guard.metric])
        fresh = float(fresh_row[guard.metric])
        if baseline == 0:
            continue
        if guard.direction == "higher":
            regressed = fresh < baseline * (1.0 - tolerance)
        else:
            regressed = fresh > baseline * (1.0 + tolerance)
        if regressed:
            errors.append(
                f"{guard.file}: {guard.metric}{key} regressed "
                f"{baseline:g} -> {fresh:g} "
                f"(>{tolerance:.0%} in the '{guard.direction}-is-better' direction)"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (default 0.25)")
    args = parser.parse_args(argv)

    errors: list[str] = []
    checked = 0
    for guard in GUARDS:
        guard_errors = check_guard(guard, args.tolerance)
        errors.extend(guard_errors)
        checked += 1
    for error in errors:
        print(f"FAIL {error}")
    if errors:
        print(f"check_bench_regression: {len(errors)} regression(s) across "
              f"{checked} guarded metric(s)")
        return 1
    print(f"check_bench_regression: OK — {checked} guarded metric(s) within "
          f"{args.tolerance:.0%} of the committed baselines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
