"""Arithmetic the benchmark reports with: percentiles, counter deltas, /proc reads."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- percentiles ---------------------------------------------------------------


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of an ascending list."""
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int, cap: float = 0.99) -> float:
    """The highest quantile <= ``cap`` that still has >= 10 samples beyond it.

    A p99 over 400 samples is decided by its four largest values; the rule
    trades the label for a number that repeats.  Below 20 samples there is
    no tail to speak of and the median is returned.
    """
    if count < 20:
        return 0.5
    return min(cap, (count - 10) / count)


def relative_iqr(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (the driver's spread)."""
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0


# -- counter deltas ------------------------------------------------------------


def stats_delta(before: object, after: object) -> object:
    """``after - before`` over nested ``stats`` payloads.

    Numbers subtract, dicts and lists recurse (lists position-wise), and
    anything else — names, flags, a key the ``before`` side lacks — is taken
    from ``after``.  Booleans are flags, not counters.
    """
    if isinstance(after, bool) or isinstance(before, bool):
        return after
    if isinstance(after, (int, float)) and isinstance(before, (int, float)):
        return after - before
    if isinstance(after, dict) and isinstance(before, dict):
        return {key: stats_delta(before.get(key), value) if key in before else value
                for key, value in after.items()}
    if isinstance(after, list) and isinstance(before, list) and len(after) == len(before):
        return [stats_delta(b, a) for b, a in zip(before, after)]
    return after


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- /proc ----------------------------------------------------------------------


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` (all its threads), from ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may contain spaces or parentheses; fields resume
    # after the last ')'.  utime and stime are fields 14 and 15 (1-based).
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` — the resident-set high-water mark — of ``pid`` in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def fingerprint() -> dict:
    """Where a result came from: printed next to the numbers it produced."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
