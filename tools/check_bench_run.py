#!/usr/bin/env python3
"""CI smoke for the repo benchmark: one short ``bench/run.py`` run per trace mode.

``bench/`` reads the nodes' ``stats`` keys, the shard WAL files and a few
``repro.live`` entry points directly, and no PR may edit it alongside a
performance claim — so a renamed stats key or a changed WAL record would
otherwise surface only in the benchmark pipeline.  This runs the command
``BENCHMARK.json`` declares, untraced and traced, and fails on ``correct:
false``, on a failed operation, or on a declared metric missing from the
result (standard library only).  The runs also carry the shape guards
(:data:`SHAPE_GUARDS`), which is why every invocation adds one untraced
``tpcb_2shard_fsync8`` run and one traced ``func_allupdates`` run.  It also
adds one untraced ``tpcw_fsync8`` run, with no timing guard: the only
workload where two sessions' commits and reads interleave on one replica's
event loop, so the in-order finishing of commits gets a real-process run.

Run as:  python tools/check_bench_run.py --workload allupdates_fsync8 --seed 7 --seconds 3
"""

from __future__ import annotations

import argparse
import json
import operator
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (workload, trace) -> (metric, relation, bound) the run must satisfy.
SHAPE_GUARDS = {
    # Group commit amortizes: several commits share each shard fsync (0.50).
    ("allupdates_fsync8", 0): ("fsyncs_per_commit", "<", 1.0),
    # The log writer sits beside the log and keeps the 8 ms disk busy
    # (~0.95; 0.82 while every group waited for the previous ack's wire hop).
    ("allupdates_fsync8", 1): ("live.wal.device_busy_share", ">=", 0.9),
    # A round's shard flushes overlap: a 2-shard commit stays under three
    # 8 ms floors (16.3 ms; 36.3 while the flushes ran back to back).
    ("tpcb_2shard_fsync8", 0): ("update_p50_ms", "<", 24.0),
    # The proxy's checks are index probes over a pruned log (~50 us of proxy
    # self time; 574-945 us and growing while they scanned every writeset
    # the replica had ever applied).
    ("func_allupdates", 1): ("middleware.proxy.self_us_per_txn", "<", 200.0),
}
RELATIONS = {"<": operator.lt, ">=": operator.ge}


def check(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    label = f"{' '.join(command)}:"
    if done.returncode != 0:
        return [f"{label} exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"]:
        problems.append(f"{label} correct is false")
    if result["failed"]:
        problems.append(f"{label} {result['failed']} of {result['attempted']} operations failed")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        problems.append(f"{label} metrics missing from the result: {missing}")
    guard = SHAPE_GUARDS.get((workload, trace))
    if guard is not None and guard[0] in result["metrics"]:  # missing: reported above
        metric, relation, bound = guard
        value = result["metrics"][metric]["value"]
        if not RELATIONS[relation](value, bound):
            problems.append(f"{label} {metric} = {value:g}, must be {relation} {bound:g}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="allupdates_fsync8")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    # In order, and once each when --workload is itself one of the added runs.
    runs = dict.fromkeys([(args.workload, 0), (args.workload, 1),
                          ("tpcb_2shard_fsync8", 0), ("tpcw_fsync8", 0),
                          ("func_allupdates", 1)])
    problems = [problem for workload, trace in runs
                for problem in check(spec, workload, args.seed, args.seconds, trace)]
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"check_bench_run: OK — {args.workload} ran correct, untraced and traced, "
              "and the shape guards hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
