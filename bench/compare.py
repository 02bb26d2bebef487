"""Compare two ``bench/suite.py`` result files: the A/B — and the A/A — verdict table.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the ratio B/A with
its base, the metric's bound, the threshold the pair is judged at, and a
verdict:

* ``unresolved`` — the spread between repeated runs (quartile distance /
  median) on either side is wider than the bound, so the bound cannot tell a
  change from noise;
* ``worse`` / ``better`` — B's median moved past A's by more than the
  threshold, in the metric's bad / good direction;
* ``same`` — anything else.

The threshold is the metric's bound, tightened to what this workload can
resolve: a bound is per metric and has to cover the noisiest (CPU-bound)
workload, while the fsync-bound ones repeat within 1-2 %, where a 20 % loss is
no noise.  So a pair is judged at ``RESOLUTION_SPREADS`` x its own measured
spread, not below ``RESOLUTION_FLOOR`` and never above the bound.

Exits non-zero on any ``worse`` row or when B failed a larger share of its
attempts than A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import spec  # noqa: E402
from bench.suite import summarize  # noqa: E402


#: With ten runs a side, the difference of two medians of the same code has
#: a standard error of ~0.4 spreads; three spreads is far outside it, and
#: still holds with three runs a side (~0.8 spreads).
RESOLUTION_SPREADS = 3.0
#: Medians of two sets taken minutes apart differ by up to ~5 % on the
#: reference box even where single runs repeat within 1 % (the host drifts).
RESOLUTION_FLOOR = 0.05


def untraced_summary(suite: dict) -> dict[tuple[str, str], dict]:
    """(workload, metric) -> its ``suite.summarize`` row, untraced runs only."""
    return {(row["workload"], row["metric"]): row
            for row in summarize(suite["runs"]) if row["trace"] == 0}


def failed_share(suite: dict) -> float:
    attempted = sum(run["attempted"] for run in suite["runs"])
    return sum(run["failed"] for run in suite["runs"]) / attempted if attempted else 0.0


def verdict(metric: spec.EndToEnd, a: dict, b: dict) -> dict:
    base, other = a["median"], b["median"]
    spread = max(a["spread"], b["spread"])
    change = (other - base) / base if base else 0.0
    worsening = change if metric.better == "lower" else -change
    threshold = min(metric.bound, max(RESOLUTION_SPREADS * spread, RESOLUTION_FLOOR))
    if spread > metric.bound:
        outcome = "unresolved"
    elif worsening > threshold:
        outcome = "worse"
    elif worsening < -threshold:
        outcome = "better"
    else:
        outcome = "same"
    return {"a": base, "b": other, "ratio": other / base if base else 0.0,
            "spread": spread, "threshold": threshold, "verdict": outcome}


def compare(a: dict, b: dict) -> list[dict]:
    rows_a, rows_b = untraced_summary(a), untraced_summary(b)
    return [{"workload": workload.name, "metric": metric.name, "unit": metric.unit,
             "bound": metric.bound,
             **verdict(metric, rows_a[workload.name, metric.name],
                       rows_b[workload.name, metric.name])}
            for workload in spec.WORKLOADS for metric in spec.END_TO_END
            if (workload.name, metric.name) in rows_a and (workload.name, metric.name) in rows_b]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows = compare(a, b)
    print(f"{'workload':<20} {'metric':<22} {'A':>11} {'B':>11} {'B/A':>7} "
          f"{'spread':>7} {'bound':>6} {'judged':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<20} {row['metric']:<22} {row['a']:>11.4f} {row['b']:>11.4f} "
              f"{row['ratio']:>7.3f} {row['spread']:>7.3f} {row['bound']:>6.2f} "
              f"{row['threshold']:>6.3f}  "
              f"{row['verdict']}  (base A = {row['a']:.4g} {row['unit']})")
    share_a, share_b = failed_share(a), failed_share(b)
    print(f"failed share: A {share_a:.5f}, B {share_b:.5f}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse or share_b > share_a else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
