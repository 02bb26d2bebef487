"""Unit tests for artificial-conflict detection (paper Section 5.2.1)."""

from repro.core.artificial_conflicts import ArtificialConflictDetector
from repro.core.certification import RemoteWriteSetInfo
from repro.core.writeset import make_writeset


def info(version, *keys, horizon=0):
    return RemoteWriteSetInfo(
        commit_version=version,
        writeset=make_writeset([("t", k) for k in keys]),
        origin_replica="remote",
        conflict_free_back_to=horizon,
    )


def test_no_conflicts_yields_single_concurrent_group():
    detector = ArtificialConflictDetector()
    plan = detector.plan([info(1, "a"), info(2, "b"), info(3, "c")], replica_version=0)
    assert len(plan.groups) == 1
    assert plan.artificial_conflicts == 0
    assert plan.serialization_points == 0
    assert plan.flush_count() == 1
    assert plan.total_writesets == 3


def test_paper_example_w43_w45_conflict_forces_serialization():
    # W43 sets x=17 and W45 sets x=39: they must be serialised (Figure 3).
    detector = ArtificialConflictDetector()
    plan = detector.plan([info(43, "x"), info(45, "x")], replica_version=42)
    assert len(plan.groups) == 2
    assert plan.artificial_conflicts == 1
    assert plan.flush_count() == 2


def test_conflicting_writesets_in_separate_groups_keep_order():
    detector = ArtificialConflictDetector()
    plan = detector.plan(
        [info(1, "a"), info(2, "a"), info(3, "b"), info(4, "b")], replica_version=0
    )
    versions = [[i.commit_version for i in group] for group in plan.groups]
    flat = [v for group in versions for v in group]
    assert flat == [1, 2, 3, 4]  # commit order is never reordered
    assert plan.artificial_conflicts >= 2


def test_insufficient_certifier_horizon_forces_serialization():
    # The certifier could only vouch for version 5 back to version 3, but the
    # replica is at version 2: the proxy cannot submit it concurrently.
    detector = ArtificialConflictDetector(use_pairwise_check=False)
    plan = detector.plan([info(4, "a", horizon=2), info(5, "b", horizon=3)], replica_version=2)
    assert len(plan.groups) == 2


def test_empty_plan_and_flush_count_with_local_commit_only():
    detector = ArtificialConflictDetector()
    plan = detector.plan([], replica_version=10)
    assert plan.groups == []
    assert plan.flush_count(include_local_commit=True) == 1
    assert plan.flush_count(include_local_commit=False) == 0


def test_worst_case_every_writeset_serialised_degrades_to_base():
    detector = ArtificialConflictDetector()
    infos = [info(v, "hot") for v in range(1, 6)]
    plan = detector.plan(infos, replica_version=0)
    assert len(plan.groups) == 5
    # One flush per group: exactly the Base behaviour the paper warns about.
    assert plan.flush_count() == 5


def test_pairwise_conflict_rate_helper():
    writesets = [make_writeset([("t", "a")]), make_writeset([("t", "a")]),
                 make_writeset([("t", "b")])]
    rate = ArtificialConflictDetector.pairwise_conflict_rate(writesets)
    assert rate == 0.5
    assert ArtificialConflictDetector.pairwise_conflict_rate([]) == 0.0
    assert ArtificialConflictDetector.pairwise_conflict_rate(writesets[:1]) == 0.0


def test_detector_accumulates_statistics():
    detector = ArtificialConflictDetector()
    detector.plan([info(1, "x"), info(2, "x")], replica_version=0)
    detector.plan([info(3, "y")], replica_version=2)
    assert detector.batches_planned == 2
    assert detector.artificial_conflicts_found == 1
