"""One measured run of one workload: the command ``BENCHMARK.json`` names.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Sets the workload up (several times; ``setup_s`` is the median), measures for
``--seconds`` in a closed loop, checks the outputs, and prints every metric of
the mode by name and unit — end-to-end metrics untraced, layer metrics traced
— with the last stdout line the one JSON object the driver reads.  Exits
non-zero when an output check fails, a transaction fails, or the wall-clock
ceiling is hit.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    if not (_ROOT / "src" / "repro").is_dir():
        sys.exit("bench/run.py: no src/repro next to bench/ — nothing to measure")
    # Import ``bench`` as a package from the repo root, and the program from src/.
    sys.path[0] = str(_ROOT)
    sys.path.insert(1, str(_ROOT / "src"))

from bench import func, live, spec  # noqa: E402
from bench.measure import fingerprint  # noqa: E402


class CeilingHit(Exception):
    """The run outlived its wall-clock ceiling."""


def _ceiling(signum, frame):
    raise CeilingHit(f"run exceeded its {spec.CEILING_SECONDS}s ceiling")


def _spare_setup(runner, chosen, seed: int, warmup: float, mark: float):
    """Set up once more and tear down again: how long it took, what its clients saw.

    Only those leave this function: a spare stack kept alive would sit in
    ``peak_rss_mb`` of the in-process workload.
    """
    with runner.booted(chosen, seed, warmup) as stack:
        return time.perf_counter() - mark, stack.acknowledged


def execute(workload: str, *, seed: int, seconds: float, trace: bool,
            smoke: bool = False, started: float | None = None) -> dict:
    """Set up, measure, check; returns the result object (see ``main``)."""
    chosen = spec.WORKLOAD_BY_NAME[workload]
    runner = live if chosen.kind == "live" else func
    setups = 1 if smoke else spec.SETUPS_PER_RUN
    warmup = 0.1 if smoke else spec.WARMUP_SECONDS
    load_start = os.getloadavg()[0]
    spec.OUT_DIR.mkdir(exist_ok=True)
    mark = time.perf_counter() if started is None else started
    setup_times = []
    #: What the clients of every set-up saw over every phase: warm-ups, the
    #: window, the idle probes.  A failure in any of them fails the run.
    seen = []
    for _ in range(setups - 1):
        elapsed, acknowledged = _spare_setup(runner, chosen, seed, warmup, mark)
        setup_times.append(elapsed)
        seen.append(acknowledged)
        mark = time.perf_counter()
    with runner.booted(chosen, seed, warmup) as stack:
        setup_times.append(time.perf_counter() - mark)
        window, values = runner.measure(stack, seconds, trace)
        violations = runner.verify(stack)
    seen.append(stack.acknowledged)
    if trace:
        window.tracer.write_jsonl(spec.OUT_DIR / f"{workload}.spans.jsonl")
    else:
        values["setup_s"] = statistics.median(setup_times)
    samples = window.everything
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    return {
        "correct": not violations,
        "attempted": sum(each.attempted for each in seen),
        "failed": sum(each.failed for each in seen) + len(violations),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in declared},
        "problems": violations + [error for each in seen for error in each.errors],
        "context": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "clients": chosen.clients, "shards": chosen.shards,
            "fsync_floor_ms": chosen.fsync_floor_ms, "flush_policy": spec.FLUSH_POLICY,
            "setup_times_s": setup_times, "commits": samples.commits,
            "aborts": samples.aborts, "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0], **fingerprint(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up, token warm-up: a plumbing check, not a measurement")
    args = parser.parse_args(argv)

    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(f"warning: 1-min load average {load:.2f} exceeds nproc "
              f"{os.cpu_count()}: numbers from this run are suspect", file=sys.stderr)
    signal.signal(signal.SIGALRM, _ceiling)
    signal.alarm(spec.CEILING_SECONDS)
    try:
        result = execute(args.workload, seed=args.seed, seconds=args.seconds,
                         trace=bool(args.trace), smoke=args.smoke, started=_STARTED)
    except CeilingHit as exc:
        # Counted as a failed attempt; every node was reaped on the way out.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                          "problems": [str(exc)]}))
        return 1
    finally:
        signal.alarm(0)

    detail = spec.OUT_DIR / f"{args.workload}.trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>14.4f} {metric['unit']}")
    for problem in result["problems"]:
        print(f"VIOLATION: {problem}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
