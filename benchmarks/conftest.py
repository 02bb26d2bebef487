"""Shared infrastructure for the benchmark harness.

Each benchmark module regenerates one table or figure from the paper's
evaluation (Section 9).  The sweeps run the discrete-event simulation with
reduced measurement windows and a compressed replica-count axis so the whole
harness finishes in a few minutes; set ``REPRO_BENCH_MEASURE_MS`` /
``REPRO_BENCH_REPLICAS`` to trade time for smoother curves.

The certifier micro-benchmark (``test_certifier_scaling.py``) has its own
knobs: ``REPRO_BENCH_CERT_LOG_LENS`` (comma-separated pre-seeded log
lengths, default ``1000,10000``), ``REPRO_BENCH_CERT_WS_SIZES``
(comma-separated writeset sizes, default ``1,10``) and
``REPRO_BENCH_CERT_SECONDS`` (measurement window per configuration and
mode, default ``0.4``).  CI smoke runs shrink all three; the indexed-vs-scan
speedup assertion only arms itself for configurations at the paper-scale
point (log length ≥ 10000, writeset size ≥ 10).

Result files: every ``BENCH_*.json`` goes through :func:`write_bench_json`.
A default run (tier-1 included) writes them to the untracked
``benchmarks/out/``; only ``pytest --refresh-bench-baselines`` writes the
tracked baselines at the repo root, which is what CI does before it uploads
and compares them (``tools/check_bench_regression.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
# src/ for the library, tests/ for the oracles the baselines are timed on.
for _path in (_REPO_ROOT / "src", _REPO_ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.core.config import SystemKind, WorkloadName  # noqa: E402
from repro.cluster.experiment import ExperimentConfig  # noqa: E402
from repro.cluster.sweeps import ReplicaSweep, run_replica_sweep  # noqa: E402

#: Where a default run leaves its result files (git-ignored).
BENCH_OUT_DIR = Path(__file__).resolve().parent / "out"
_refresh_baselines = False


def pytest_addoption(parser):
    parser.addoption(
        "--refresh-bench-baselines", action="store_true", default=False,
        help="write BENCH_*.json to the repo root (the tracked baselines) "
             "instead of the untracked benchmarks/out/")


def pytest_configure(config):
    global _refresh_baselines
    _refresh_baselines = bool(
        config.getoption("--refresh-bench-baselines", default=False))


def write_bench_json(name: str, payload: dict) -> Path:
    """Emit one benchmark result file; returns where it went."""
    directory = _REPO_ROOT if _refresh_baselines else BENCH_OUT_DIR
    directory.mkdir(exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _tracked_baseline_status() -> str | None:
    """``git status`` of the tracked result files; None outside a checkout."""
    try:
        result = subprocess.run(
            ["git", "status", "--porcelain", "--", "BENCH_*.json"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout if result.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def tracked_baselines_stay_clean():
    """A default benchmark run must not rewrite a tracked ``BENCH_*.json``."""
    before = _tracked_baseline_status()
    yield
    if not _refresh_baselines and before is not None:
        assert _tracked_baseline_status() == before, (
            "this run modified tracked BENCH_*.json files; result files belong "
            "in benchmarks/out/ unless --refresh-bench-baselines is given")


#: Measurement window per experiment point (simulated milliseconds).
MEASURE_MS = float(os.environ.get("REPRO_BENCH_MEASURE_MS", "1500"))
WARMUP_MS = float(os.environ.get("REPRO_BENCH_WARMUP_MS", "400"))

#: Replica counts on the x axis (the paper uses 1..15).
REPLICA_COUNTS = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_REPLICAS", "1,4,8,15").split(",")
)

#: Certifier micro-benchmark axes (see test_certifier_scaling.py).
CERT_LOG_LENGTHS = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_CERT_LOG_LENS", "1000,10000").split(",")
)
CERT_WS_SIZES = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_CERT_WS_SIZES", "1,10").split(",")
)
CERT_MEASURE_SECONDS = float(os.environ.get("REPRO_BENCH_CERT_SECONDS", "0.4"))

#: Certifier-sharding benchmark axes (test_certifier_sharding.py): shard
#: counts, cross-shard writeset ratios, closed-loop client count, the
#: bounded fsync group (records per certifier log flush — the knob that
#: makes a single log device saturable) and the simulated windows.  These
#: are deliberately independent of the global MEASURE_MS so the emitted
#: JSON is identical between CI and a local run (the bench-regression job
#: compares it against the committed file).
SHARD_COUNTS = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_SHARDS", "1,2,4").split(",")
)
SHARD_CROSS_RATIOS = tuple(
    float(x) for x in os.environ.get("REPRO_BENCH_SHARD_CROSS", "0,0.1,0.5").split(",")
)
SHARD_CLIENTS = int(os.environ.get("REPRO_BENCH_SHARD_CLIENTS", "48"))
SHARD_FLUSH_CAP = int(os.environ.get("REPRO_BENCH_SHARD_FLUSH_CAP", "8"))
SHARD_WARMUP_MS = float(os.environ.get("REPRO_BENCH_SHARD_WARMUP_MS", "300"))
SHARD_MEASURE_MS = float(os.environ.get("REPRO_BENCH_SHARD_MEASURE_MS", "1500"))

#: Availability benchmark axes (test_availability_recovery.py): shard count,
#: closed-loop clients, bounded fsync group, the crash window of the injected
#: shard-leader outage (absolute simulated ms) and the windows.  Independent
#: of the global MEASURE_MS for the same reason as the sharding axes: the
#: emitted JSON must be identical between CI and a local run.
RECOVERY_SHARDS = int(os.environ.get("REPRO_BENCH_RECOVERY_SHARDS", "2"))
RECOVERY_CLIENTS = int(os.environ.get("REPRO_BENCH_RECOVERY_CLIENTS", "32"))
RECOVERY_FLUSH_CAP = int(os.environ.get("REPRO_BENCH_RECOVERY_FLUSH_CAP", "8"))
RECOVERY_CRASH_AT_MS = float(os.environ.get("REPRO_BENCH_RECOVERY_CRASH_AT", "600"))
RECOVERY_RECOVER_AT_MS = float(os.environ.get("REPRO_BENCH_RECOVERY_RECOVER_AT", "900"))
RECOVERY_WARMUP_MS = float(os.environ.get("REPRO_BENCH_RECOVERY_WARMUP_MS", "300"))
RECOVERY_MEASURE_MS = float(os.environ.get("REPRO_BENCH_RECOVERY_MEASURE_MS", "1500"))

#: Anti-entropy bootstrap benchmark axes (test_replica_bootstrap.py): the
#: commit-history lengths driven while one group node is down, and the GC
#: headrooms swept (headroom trades snapshot cadence against retained-suffix
#: length).  Fixed defaults, independent of the global windows: the emitted
#: ``BENCH_bootstrap.json`` must be identical between CI and a local run.
BOOTSTRAP_HISTORIES = tuple(
    int(n) for n in os.environ.get(
        "REPRO_BENCH_BOOTSTRAP_HISTORIES", "40,80,160").split(",")
)
BOOTSTRAP_HEADROOMS = tuple(
    int(n) for n in os.environ.get(
        "REPRO_BENCH_BOOTSTRAP_HEADROOMS", "0,8").split(",")
)

#: MVCC vacuum benchmark axes (test_mvcc_vacuum.py): sustained group-apply
#: history lengths (committed versions), the wall-clock window of each read
#: throughput measurement, and the chain lengths of the row-layout
#: micro-benchmark.  The chain-length / retained-row metrics are
#: deterministic (they depend only on the axes); the read/install
#: throughputs are wall-clock, so only their on/off *ratios* are guarded.
MVCC_HISTORIES = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_MVCC_HISTORIES", "2000,8000").split(",")
)
MVCC_MEASURE_SECONDS = float(os.environ.get("REPRO_BENCH_MVCC_SECONDS", "0.25"))
MVCC_CHAIN_LENGTHS = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_MVCC_CHAIN_LENS", "512,2048").split(",")
)

#: The four curves of the throughput/response figures.
FIGURE_SYSTEMS = (
    SystemKind.BASE,
    SystemKind.TASHKENT_MW,
    SystemKind.TASHKENT_API,
    SystemKind.TASHKENT_API_NO_CERT,
)


@lru_cache(maxsize=None)
def cached_sweep(workload: WorkloadName, dedicated_io: bool,
                 forced_abort_rate: float = 0.0,
                 systems: tuple[SystemKind, ...] = FIGURE_SYSTEMS,
                 replica_counts: tuple[int, ...] = REPLICA_COUNTS) -> ReplicaSweep:
    """Run (once) and cache the sweep shared by a figure's benchmarks."""
    return run_replica_sweep(
        ExperimentConfig(workload=workload, dedicated_io=dedicated_io,
                         forced_abort_rate=forced_abort_rate,
                         warmup_ms=WARMUP_MS, measure_ms=MEASURE_MS),
        systems=systems,
        replica_counts=replica_counts,
    )


def largest_replica_count() -> int:
    return max(REPLICA_COUNTS)
