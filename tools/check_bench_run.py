#!/usr/bin/env python3
"""CI smoke for the repo benchmark: one short ``bench/run.py`` run per trace mode.

``bench/`` reads the nodes' ``stats`` keys, the shard WAL files and a few
``repro.live`` entry points directly, and no PR may edit it alongside a
performance claim — so a renamed stats key or a changed WAL line would
otherwise surface only in the benchmark pipeline.  This runs the command
``BENCHMARK.json`` declares, untraced and traced, and fails on ``correct:
false``, on a failed operation, or on a declared metric missing from the
result (standard library only).

Run as:  python tools/check_bench_run.py --workload allupdates_fsync8 --seed 7 --seconds 3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


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
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="allupdates_fsync8")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    problems = [problem for trace in (0, 1)
                for problem in check(spec, args.workload, args.seed, args.seconds, trace)]
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"check_bench_run: OK — {args.workload} ran correct, untraced and traced")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
