"""Every workload, repeated: the file ``bench/compare.py`` compares.

    python3 bench/suite.py --runs 3 --out bench/out/A.json

Runs ``bench/run.py`` as the driver does — one process per (workload, seed,
trace mode), seeds ``seed0 .. seed0 + runs - 1`` — collects the result lines
with an environment fingerprint, and prints per (workload, metric) the median
and the spread between runs (quartile distance / median, the driver's
measure) next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from bench import spec  # noqa: E402
from bench.measure import fingerprint, relative_iqr  # noqa: E402


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    lost = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Its own process group, so that a hung run can be killed with its nodes.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=spec.CEILING_SECONDS + 60)
    except subprocess.TimeoutExpired:
        # run.py's own ceiling did not fire: one failed attempt, and the runs
        # collected so far are kept.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"workload": workload, "seed": seed, "trace": trace, "exit": -1,
                "elapsed_s": time.perf_counter() - started, **lost}
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = lost
    if process.returncode != 0:
        sys.stderr.write(stderr)
    return {"workload": workload, "seed": seed, "trace": trace, "exit": process.returncode,
            "elapsed_s": time.perf_counter() - started, **result}


def summarize(runs: list[dict]) -> list[dict]:
    """Per (workload, trace mode, metric): median, relative IQR, sample count."""
    grouped: dict[tuple[str, int, str], list[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            grouped.setdefault((run["workload"], run["trace"], name), []).append(metric["value"])
    return [{"workload": workload, "trace": trace, "metric": name, "runs": len(values),
             "median": statistics.median(values), "spread": relative_iqr(values)}
            for (workload, trace, name), values in grouped.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--workloads", default=",".join(w.name for w in spec.WORKLOADS))
    parser.add_argument("--trace", default="0,1", help="comma-separated trace modes to run")
    parser.add_argument("--out", type=Path, default=spec.OUT_DIR / "suite.json")
    args = parser.parse_args(argv)

    environment = {**fingerprint(), "git_commit": git_commit()}
    if environment["loadavg_1m"] > environment["nproc"]:
        print(f"warning: load average {environment['loadavg_1m']:.2f} exceeds nproc "
              f"{environment['nproc']}: a noisy box", file=sys.stderr)
    runs = []
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            for index in range(args.runs):
                run = run_once(workload, args.seed0 + index, args.seconds, trace)
                runs.append(run)
                print(f"{workload} trace={trace} seed={run['seed']} exit={run['exit']} "
                      f"correct={run['correct']} failed={run['failed']}/{run['attempted']} "
                      f"{run['elapsed_s']:.1f}s", flush=True)
    environment["loadavg_1m_end"] = fingerprint()["loadavg_1m"]
    summary = summarize(runs)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"environment": environment, "run_seconds": args.seconds,
                                    "flush_policy": spec.FLUSH_POLICY, "runs": runs,
                                    "summary": summary}, indent=1) + "\n", encoding="utf-8")
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    print(f"\n{'workload':<20} {'metric':<44} {'median':>12} {'spread':>8} {'bound':>6}")
    for row in summary:
        bound = bounds.get(row["metric"])
        flag = "" if bound is None or row["spread"] <= bound / 3 else (
            "  > bound/3" if row["spread"] <= bound else "  > BOUND")
        print(f"{row['workload']:<20} {row['metric']:<44} {row['median']:>12.4f} "
              f"{row['spread']:>8.3f} {'' if bound is None else format(bound, '.2f'):>6}{flag}")
    bad = [run for run in runs if run["exit"] != 0 or not run["correct"] or run["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
