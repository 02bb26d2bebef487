"""Crash-schedule coverage for the fault-tolerant sharded certifier.

Three layers:

* an **exhaustive grid** over every crash point × every certify index of a
  fixed workload that mixes single-shard, cross-shard and conflicting
  transactions with polls and GC — every cell must recover to the fault-free
  shards=1 oracle (``tests/faults.py`` asserts the equivalence inline);
* **Hypothesis cells**: generated workloads × crash points × crash indices ×
  shard counts, extending the PR 4 equivalence strategy to faulty runs;
* **quorum behaviour**: losing a majority of one shard's group surfaces as
  :class:`QuorumUnavailableError` (never a wrong decision) and only for the
  transactions that touch that shard; plus the simulated
  ``certifier_crash_schedule`` axis (deterministic outages, counted and
  costed).
"""

import pytest
from hypothesis import given, settings, strategies as st

from faults import CRASH_POINTS, run_crash_schedule
from repro.cluster.experiment import ExperimentConfig, run_experiment
from repro.cluster.sweeps import run_replica_sweep
from repro.consensus.sharded import ReplicatedShardedCertifier
from repro.core.certification import CertificationRequest
from repro.core.config import SystemKind, WorkloadName
from repro.core.writeset import WriteSet, make_writeset
from repro.errors import ConfigurationError, QuorumUnavailableError
from repro.recovery.sharded_recovery import recover_sharded_certifier

# ----------------------------------------------------------------- exhaustive grid

#: A workload whose five certifications cover the interesting shapes: a
#: multi-item (usually cross-shard) writeset, single-item writesets, a
#: guaranteed write-write conflict (fraction 0.0 snapshots at version 0),
#: plus polls and a GC round between them.
GRID_WORKLOAD = [
    ("certify", [(0, 1), (0, 2), (1, 3)], 1.0),
    ("certify", [(0, 4)], 1.0),
    ("certify", [(0, 1)], 0.0),
    ("poll",),
    ("certify", [(1, 3), (0, 5)], 1.0),
    ("gc",),
    ("certify", [(0, 2), (1, 6)], 0.5),
    ("poll",),
]
GRID_CERTIFY_COUNT = sum(1 for op in GRID_WORKLOAD if op[0] == "certify")


def test_harness_covers_at_least_seven_crash_points():
    assert len(CRASH_POINTS) >= 7
    assert len(set(CRASH_POINTS)) == len(CRASH_POINTS)


@pytest.mark.parametrize("crash_point", CRASH_POINTS)
def test_grid_every_crash_point_and_request_recovers_to_oracle(crash_point):
    fired_somewhere = False
    for crash_at in range(GRID_CERTIFY_COUNT):
        report = run_crash_schedule(
            GRID_WORKLOAD, shards=2,
            crash_point=crash_point, crash_at_request=crash_at)
        fired_somewhere = fired_somewhere or report["crash_fired"]
        if report["crash_fired"]:
            assert report["crashes"] == 1
            assert report["recoveries"] >= 1
    # Every point is reachable by some cell of this workload (commit-path
    # points cannot fire on the aborting request, but others commit).
    assert fired_somewhere


def test_grid_three_shards_spot_check():
    for crash_at in (0, GRID_CERTIFY_COUNT - 1):
        for crash_point in ("mid-flush", "post-flush", "mid-directory-rebuild"):
            report = run_crash_schedule(
                GRID_WORKLOAD, shards=3,
                crash_point=crash_point, crash_at_request=crash_at)
            assert report["crash_fired"]


def test_fault_free_run_matches_oracle():
    report = run_crash_schedule(GRID_WORKLOAD, shards=2, crash_point=None)
    assert report["crashes"] == 0
    assert report["commits"] == 4  # one op is a guaranteed conflict


# ----------------------------------------------------------------- Hypothesis cells

_entries = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=9)),
    min_size=1, max_size=4)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("certify"), _entries, st.floats(0.0, 1.0)),
        st.just(("poll",)),
        st.just(("gc",)),
    ),
    min_size=1, max_size=25)


@given(operations=_ops,
       shards=st.integers(min_value=1, max_value=3),
       crash_point=st.sampled_from(CRASH_POINTS),
       crash_at=st.integers(min_value=0, max_value=24))
@settings(max_examples=60, deadline=None)
def test_property_crashing_runs_recover_to_shards1_oracle(
        operations, shards, crash_point, crash_at):
    """Workload × crash-schedule cells: decisions, versions and replica
    state after recovery equal the fault-free shards=1 oracle (the
    equivalence assertions live inside the harness)."""
    run_crash_schedule(operations, shards=shards,
                       crash_point=crash_point, crash_at_request=crash_at)


# ----------------------------------------------------------------- quorum behaviour

def _request(writeset: WriteSet, version: int) -> CertificationRequest:
    return CertificationRequest(
        tx_start_version=version, writeset=writeset,
        replica_version=version, origin_replica="client")


def _key_on_shard(certifier: ReplicatedShardedCertifier, shard_id: int,
                  table: str = "t0") -> object:
    for key in range(1000):
        if certifier.partitioner.shard_of((table, key)) == shard_id:
            return key
    raise AssertionError("no key found for shard")  # pragma: no cover


def test_quorum_loss_on_one_shard_only_stalls_that_shard():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    key0 = _key_on_shard(certifier, 0)
    key1 = _key_on_shard(certifier, 1)
    certifier.groups.crash_node(1, 0)
    certifier.groups.crash_node(1, 2)
    # Shard 1 has no majority: updates touching it are refused, loudly.
    with pytest.raises(QuorumUnavailableError):
        certifier.certify(_request(make_writeset([("t0", key1)]), 0))
    with pytest.raises(QuorumUnavailableError):
        certifier.certify(_request(make_writeset([("t0", key0), ("t0", key1)]), 0))
    # Nothing was mutated by the refused cross-shard request.
    assert certifier.core.last_version == 0
    # Shard 0 updates and read-only transactions proceed.
    assert certifier.certify(_request(make_writeset([("t0", key0)]), 0)).committed
    assert certifier.certify(_request(WriteSet(), 1)).committed
    # A single recovered node restores the majority.
    certifier.groups.recover_node(1, 0)
    assert certifier.certify(_request(make_writeset([("t0", key1)]), 1)).committed


def test_shard_leader_crash_fails_over_and_continues():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    key0 = _key_on_shard(certifier, 0)
    assert certifier.certify(_request(make_writeset([("t0", key0)]), 0)).committed
    crashed = certifier.groups.crash_leader(0)
    result = certifier.certify(_request(make_writeset([("t0", key0)]), 1))
    assert result.committed
    assert certifier.groups.leader_id(0) != crashed
    assert certifier.stats.per_shard[0].leader_changes == 1


def test_crashed_coordinator_refuses_requests_until_recovered():
    from repro.core.sharding import ShardedCertifier
    from repro.errors import RecoveryError

    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    certifier.crash()
    assert certifier.crashed
    assert "crashed" in repr(certifier)
    with pytest.raises(RecoveryError):
        certifier.certify(_request(make_writeset([("t0", 1)]), 0))
    with pytest.raises(RecoveryError):
        certifier.fetch_remote_writesets(0)
    with pytest.raises(RecoveryError):
        certifier.note_replica_version("r", 0)
    with pytest.raises(RecoveryError):
        certifier.collect_garbage()
    # A recovered coordinator must cover the same shards as the groups.
    with pytest.raises(RecoveryError):
        certifier.adopt_core(ShardedCertifier(3), {})
    recover_sharded_certifier(certifier)
    assert not certifier.crashed
    assert "version=0" in repr(certifier)


def test_recovery_below_quorum_is_refused():
    certifier = ReplicatedShardedCertifier(2, nodes_per_shard=3)
    key0 = _key_on_shard(certifier, 0)
    certifier.certify(_request(make_writeset([("t0", key0)]), 0))
    certifier.crash()
    certifier.groups.crash_node(0, 1)
    certifier.groups.crash_node(0, 2)
    with pytest.raises(QuorumUnavailableError):
        recover_sharded_certifier(certifier)
    assert certifier.crashed
    # With the majority back, the same call succeeds.
    certifier.groups.recover_node(0, 1)
    report = recover_sharded_certifier(certifier)
    assert report.rounds_recovered == 1
    assert not certifier.crashed


# ----------------------------------------------------------------- simulated outages

def _sim_config(**overrides) -> ExperimentConfig:
    base = dict(
        system=SystemKind.TASHKENT_MW,
        workload=WorkloadName.ALL_UPDATES,
        num_replicas=2,
        certifier_shards=2,
        certifier_max_flush_batch=8,
        warmup_ms=100.0,
        measure_ms=900.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_sim_crash_schedule_is_deterministic_and_counted():
    config = _sim_config(certifier_crash_schedule=((0, 300.0, 600.0),))
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.throughput_tps == second.throughput_tps
    assert first.completed_transactions == second.completed_transactions
    assert first.utilization["certifier_crash_events"] == 1.0
    assert first.utilization["certifier_downtime_ms"] == pytest.approx(300.0)
    assert first.utilization["certifier_stalled_requests"] > 0


def test_sim_crash_schedule_costs_throughput():
    steady = run_experiment(_sim_config())
    faulty = run_experiment(_sim_config(certifier_crash_schedule=((0, 300.0, 600.0),)))
    assert faulty.throughput_tps < steady.throughput_tps


def test_sim_crash_schedule_on_single_shard_certifier():
    # Any schedule routes to the sharded node, whose 1-shard core is
    # equivalence-tested against the seed certifier.
    result = run_experiment(_sim_config(
        certifier_shards=1, certifier_crash_schedule=((0, 300.0, 500.0),)))
    assert result.utilization["certifier_crash_events"] == 1.0
    assert result.utilization["certifier_shards"] == 1.0


def test_sim_crash_schedule_validation():
    with pytest.raises(ConfigurationError):
        _sim_config(certifier_crash_schedule=((5, 100.0, 200.0),))
    with pytest.raises(ConfigurationError):
        _sim_config(certifier_crash_schedule=((0, 300.0, 200.0),))
    # Overlapping windows on the same shard would double-count the outage
    # and strand transactions parked on the replaced recovery event.
    with pytest.raises(ConfigurationError):
        _sim_config(certifier_crash_schedule=((0, 100.0, 500.0), (0, 200.0, 300.0)))
    # ...and the ReplicationConfig front door agrees (shared validator).
    from repro.core.config import ReplicationConfig
    with pytest.raises(ConfigurationError):
        ReplicationConfig(certifier_shards=2,
                          certifier_crash_schedule=((0, 100.0, 500.0),
                                                    (0, 200.0, 300.0)))
    # Distinct shards may overlap, and same-shard windows may touch.
    _sim_config(certifier_crash_schedule=((0, 100.0, 500.0), (1, 200.0, 300.0)))
    _sim_config(certifier_crash_schedule=((0, 100.0, 200.0), (0, 200.0, 300.0)))


def test_sim_touching_crash_windows_behave_as_one_outage():
    joined = run_experiment(_sim_config(
        certifier_crash_schedule=((0, 300.0, 450.0), (0, 450.0, 600.0))))
    single = run_experiment(_sim_config(
        certifier_crash_schedule=((0, 300.0, 600.0),)))
    assert joined.utilization["certifier_downtime_ms"] == pytest.approx(300.0)
    assert joined.utilization["certifier_crash_events"] == 2.0
    # Throughput matches the single 300 ms window: nobody wakes up (or is
    # stranded) at the 450 ms seam.
    assert joined.throughput_tps == pytest.approx(single.throughput_tps, rel=0.05)
    # And the cluster fully recovers after the last window.
    steady = run_experiment(_sim_config())
    assert joined.throughput_tps > 0.5 * steady.throughput_tps


def test_sweep_accepts_crash_schedule_axis():
    sweep = run_replica_sweep(
        ExperimentConfig(workload=WorkloadName.ALL_UPDATES, certifier_shards=2,
                         certifier_crash_schedule=((0, 200.0, 400.0),),
                         warmup_ms=100.0, measure_ms=500.0),
        systems=(SystemKind.TASHKENT_MW,),
        replica_counts=(1,),
    )
    point = sweep.points[0]
    assert point.result.utilization["certifier_crash_events"] == 1.0
