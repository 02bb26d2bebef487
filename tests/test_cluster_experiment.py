"""Tests for the simulated cluster models and the experiment runner.

These use deliberately small windows and replica counts so the whole file
runs in a few seconds; the full-size sweeps live in ``benchmarks/``.
"""

import pytest

from repro.analysis.report import render_figure
from repro.analysis.results import crossover_replicas, summarize_sweep, sweep_to_table
from repro.core.config import SystemKind, WorkloadName
from repro.cluster.experiment import ExperimentConfig, build_model, run_experiment
from repro.cluster.sweeps import run_replica_sweep
from repro.errors import ConfigurationError

FAST = dict(warmup_ms=200.0, measure_ms=800.0)


def run(system, workload=WorkloadName.ALL_UPDATES, replicas=2, **overrides):
    config = ExperimentConfig(system=system, workload=workload, num_replicas=replicas,
                              **{**FAST, **overrides})
    return run_experiment(config)


# ----------------------------------------------------------------- configuration

def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(num_replicas=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(system=SystemKind.STANDALONE, num_replicas=3)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(measure_ms=0)
    config = ExperimentConfig()
    assert config.with_overrides(num_replicas=4).num_replicas == 4


# ----------------------------------------------------------------- single points

def test_standalone_groups_commits_and_beats_serial_commits():
    standalone = run(SystemKind.STANDALONE, replicas=1)
    base = run(SystemKind.BASE, replicas=1)
    assert standalone.throughput_tps > 2 * base.throughput_tps
    assert standalone.completed_transactions > 0
    assert base.replica_fsyncs > 0


def test_tashkent_mw_replicas_never_fsync():
    result = run(SystemKind.TASHKENT_MW, replicas=2)
    assert result.replica_fsyncs == 0
    assert result.certifier_fsyncs > 0
    assert result.writesets_per_fsync >= 1.0


def test_base_needs_two_fsyncs_per_local_commit_with_remote_writesets():
    result = run(SystemKind.BASE, replicas=2)
    committed = result.throughput_tps * result.config.measure_ms / 1000.0
    assert result.replica_fsyncs >= 1.5 * committed  # ~2 fsyncs per commit


def test_deterministic_given_seed():
    a = run(SystemKind.TASHKENT_MW, replicas=2, seed=11)
    b = run(SystemKind.TASHKENT_MW, replicas=2, seed=11)
    assert a.throughput_tps == b.throughput_tps
    assert a.mean_response_ms == b.mean_response_ms


def test_paper_certifier_point_is_pinned():
    """Simulated time is deterministic: the one-shard (paper) certifier's
    Tashkent-MW AllUpdates x4 point at the default windows is a constant.
    A different number is a behaviour change of the simulated certifier."""
    result = run_experiment(ExperimentConfig(
        system=SystemKind.TASHKENT_MW, workload=WorkloadName.ALL_UPDATES,
        num_replicas=4))
    assert result.config.certifier_shards == 1
    assert result.throughput_tps == 1835.0


def test_one_certifier_node_with_or_without_a_crash_schedule():
    """There is one simulated certifier: an outage scheduled after the run
    ends changes neither the class that serves it nor a single number."""
    plain = ExperimentConfig(system=SystemKind.TASHKENT_MW, num_replicas=2, **FAST)
    scheduled = plain.with_overrides(
        certifier_crash_schedule=((0, 50_000.0, 50_100.0),))
    assert (type(build_model(plain)[0].certifier_node)
            is type(build_model(scheduled)[0].certifier_node))
    idle, armed = run_experiment(plain), run_experiment(scheduled)
    assert armed.utilization["certifier_crash_events"] == 0.0
    assert armed.throughput_tps == idle.throughput_tps
    assert armed.p95_response_ms == idle.p95_response_ms


def test_forced_abort_rate_reduces_goodput():
    clean = run(SystemKind.TASHKENT_MW, replicas=2)
    lossy = run(SystemKind.TASHKENT_MW, replicas=2, forced_abort_rate=0.4)
    assert lossy.abort_rate > 0.25
    assert lossy.throughput_tps < clean.throughput_tps
    assert lossy.offered_tps > lossy.throughput_tps


def test_dedicated_io_never_hurts():
    shared = run(SystemKind.BASE, workload=WorkloadName.TPC_B, replicas=2)
    dedicated = run(SystemKind.BASE, workload=WorkloadName.TPC_B, replicas=2, dedicated_io=True)
    assert dedicated.throughput_tps >= 0.9 * shared.throughput_tps


def test_tpcw_readonly_transactions_dominate():
    result = run(SystemKind.TASHKENT_MW, workload=WorkloadName.TPC_W, replicas=2,
                 warmup_ms=300.0, measure_ms=1500.0)
    assert result.readonly_response_ms > 0
    assert result.update_response_ms > 0
    assert result.abort_rate < 0.05


def test_api_model_reports_artificial_conflicts_on_tpcb():
    result = run(SystemKind.TASHKENT_API, workload=WorkloadName.TPC_B, replicas=3,
                 warmup_ms=300.0, measure_ms=1200.0)
    assert "artificial_conflict_rate" in result.utilization
    assert result.utilization["remote_groups_planned"] > 0


# ----------------------------------------------------------------- headline comparison

def test_tashkent_systems_beat_base_at_moderate_scale():
    base = run(SystemKind.BASE, replicas=4)
    mw = run(SystemKind.TASHKENT_MW, replicas=4)
    api = run(SystemKind.TASHKENT_API, replicas=4)
    assert mw.throughput_tps > 2.0 * base.throughput_tps
    assert api.throughput_tps > 1.2 * base.throughput_tps
    assert mw.mean_response_ms < base.mean_response_ms
    assert api.mean_response_ms < base.mean_response_ms


# ----------------------------------------------------------------- sweeps and analysis

def test_sweep_and_analysis_helpers():
    sweep = run_replica_sweep(
        ExperimentConfig(workload=WorkloadName.ALL_UPDATES, warmup_ms=200.0,
                         measure_ms=600.0),
        systems=(SystemKind.BASE, SystemKind.TASHKENT_MW, SystemKind.TASHKENT_API),
        replica_counts=(1, 3),
    )
    assert len(sweep.points) == 6
    assert len(sweep.curve(SystemKind.BASE)) == 2
    assert sweep.max_throughput(SystemKind.TASHKENT_MW) > 0
    assert sweep.speedup_over(SystemKind.TASHKENT_MW, SystemKind.BASE, num_replicas=3) > 1.5

    summary = summarize_sweep(sweep)
    assert summary.num_replicas == 3
    assert summary.mw_speedup > 1.5

    table = sweep_to_table(sweep)
    assert len(table) == 6
    assert set(table.column("system")) == {"base", "tashkent-mw", "tashkent-api"}
    assert len(table.filter(system="base")) == 2

    crossover = crossover_replicas(sweep, SystemKind.TASHKENT_MW, SystemKind.BASE)
    assert crossover in (1, 3)

    figure = render_figure(sweep, metric="throughput")
    assert "tashMW" in figure and "base" in figure
    response_figure = render_figure(sweep, metric="response")
    assert "response" in response_figure
