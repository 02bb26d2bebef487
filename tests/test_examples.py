"""Smoke tests running the runnable examples to completion.

The examples double as end-to-end documentation of the public API; running
them under pytest means API drift (a renamed builder, a changed stats key, a
broken refresh path) is caught by the tier-1 suite instead of by a reader.
Only the fast, deterministic examples run here — the long sweeps
(``scalability_study.py``) stay manual.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)  # each example runs once; every test asserts on it
def run_example(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
        cwd=REPO_ROOT,
    )


@pytest.mark.parametrize("script", ["quickstart.py", "bank_tpcb.py"])
def test_example_runs_to_completion(script):
    result = run_example(script)
    assert result.returncode == 0, (
        f"{script} failed with rc={result.returncode}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def test_quickstart_reports_consistency_and_fsync_story():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    # The core claim in miniature: both systems converge...
    assert "replicas consistent: True" in result.stdout
    # ...and the Tashkent-MW replicas never issued a synchronous write.
    assert "[tashkent-mw] synchronous writes — replicas: 0" in result.stdout


def test_bank_tpcb_all_designs_converge():
    result = run_example("bank_tpcb.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("True") >= 3  # consistent column for 3 designs

