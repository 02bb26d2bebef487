"""Unit tests for the certifier's persistent log."""

import pytest
from certifier_log_oracle import ScanCertifierLog

from repro.core.certifier_log import CertifierLog, LogRecord
from repro.core.writeset import make_writeset
from repro.errors import ConfigurationError, LogPrunedError


def record(version, *keys):
    return LogRecord(commit_version=version, writeset=make_writeset([("t", k) for k in keys]))


def build_log(n=5):
    log = CertifierLog()
    for version in range(1, n + 1):
        log.append(record(version, version))
    return log


def test_append_requires_dense_versions():
    log = CertifierLog()
    log.append(record(1, 1))
    with pytest.raises(ConfigurationError):
        log.append(record(3, 3))


def test_records_between_matches_remote_writeset_semantics():
    log = build_log(5)
    versions = [r.commit_version for r in log.records_between(2, 4)]
    assert versions == [3, 4]
    assert log.records_between(4, 2) == []
    assert [r.commit_version for r in log.records_after(3)] == [4, 5]


def test_conflicts_scans_only_requested_window():
    log = build_log(5)
    probe = make_writeset([("t", 2)])
    assert log.conflicts(probe, after_version=0)
    assert not log.conflicts(probe, after_version=2)  # version 2 not in window
    assert log.first_conflicting_version(probe, 0) == 2
    assert log.first_conflicting_version(make_writeset([("t", 99)]), 0) is None


def test_durable_horizon_is_monotonic_and_bounded():
    log = build_log(3)
    assert log.durable_version == 0
    assert log.pending_flush_count == 3
    log.mark_durable(2)
    assert log.durable_version == 2
    with pytest.raises(ConfigurationError):
        log.mark_durable(1)
    with pytest.raises(ConfigurationError):
        log.mark_durable(9)


def test_truncate_to_durable_simulates_crash():
    log = build_log(4)
    log.mark_durable(2)
    lost = log.truncate_to_durable()
    assert lost == 2
    assert log.last_version == 2


def test_replay_covers_only_durable_suffix():
    log = build_log(4)
    log.mark_durable(3)
    seen = []
    replayed = log.replay(lambda r: seen.append(r.commit_version), after_version=1)
    assert replayed == 2
    assert seen == [2, 3]


def test_extend_certification_tracks_horizon():
    log = CertifierLog()
    log.append(LogRecord(1, make_writeset([("t", 1)]), certified_back_to=0))
    log.append(LogRecord(2, make_writeset([("t", 2)]), certified_back_to=1))
    # Version 2 does not conflict with version 1, so it can be certified back to 0.
    assert log.extend_certification(2, 0)
    assert log.certified_back_to(2) == 0
    # Asking again (or for a later horizon) is a no-op that reports success.
    assert log.extend_certification(2, 1)


def test_extend_certification_detects_earlier_conflict():
    log = CertifierLog()
    log.append(LogRecord(1, make_writeset([("t", 7)]), certified_back_to=0))
    log.append(LogRecord(2, make_writeset([("t", 7)]), certified_back_to=1))
    assert not log.extend_certification(2, 0)
    assert log.certified_back_to(2) == 1  # horizon unchanged


def test_from_records_round_trip_and_sizes():
    log = build_log(3)
    rebuilt = CertifierLog.from_records(log.iter_records())
    assert rebuilt.last_version == 3
    assert rebuilt.durable_version == 3
    assert rebuilt.total_size_bytes() > 0
    assert len(rebuilt) == 3


def test_record_at_bounds_checked():
    log = build_log(2)
    with pytest.raises(KeyError):
        log.record_at(0)
    with pytest.raises(KeyError):
        log.record_at(3)
    assert log.record_at(2).commit_version == 2


# -- inverted index (and the scan oracle it replaced) -------------------------

LOG_CLASSES = pytest.mark.parametrize(
    "log_class", [CertifierLog, ScanCertifierLog], ids=["indexed", "scan"])


@LOG_CLASSES
def test_conflict_checks_agree_across_modes(log_class):
    log = log_class()
    for version, key in enumerate([1, 2, 1, 3], start=1):
        log.append(record(version, key))
    probe = make_writeset([("t", 1)])
    assert log.conflicts(probe, 0)
    assert log.first_conflicting_version(probe, 0) == 1
    assert log.first_conflicting_version(probe, 1) == 3
    assert log.first_conflicting_version(probe, 3) is None
    # Bounded windows (the extend-certification case).
    assert log.conflicts(probe, 0, 2)
    assert not log.conflicts(probe, 1, 2)
    assert log.conflicts(probe, 2, 3)


def test_index_tracks_multiple_writers_per_item():
    log = CertifierLog()
    log.append(record(1, 7))
    log.append(record(2, 8))
    log.append(record(3, 7))
    probe = make_writeset([("t", 7)])
    # The intermediate writer must be found even though a later one exists.
    assert log.conflicts(probe, 0, 1)
    assert not log.conflicts(probe, 1, 2)
    assert log.conflicts(probe, 2, 3)


# -- garbage collection -------------------------------------------------------


def test_prune_to_discards_durable_prefix_only():
    log = build_log(6)
    log.mark_durable(4)
    assert log.prune_to(5) == 4  # clamped to the durable horizon
    assert log.pruned_version == 4
    assert log.last_version == 6
    assert log.retained_count == 2
    assert log.pruned_records_total == 4
    assert log.prune_to(4) == 0  # idempotent


def test_offset_aware_reads_after_prune():
    log = build_log(6)
    log.mark_durable(6)
    log.prune_to(3)
    assert [r.commit_version for r in log.records_after(3)] == [4, 5, 6]
    assert [r.commit_version for r in log.records_between(4, 6)] == [5, 6]
    assert log.record_at(5).commit_version == 5
    seen = []
    assert log.replay(lambda r: seen.append(r.commit_version), after_version=4) == 2
    assert seen == [5, 6]


def test_reads_below_gc_horizon_raise_log_pruned_error():
    log = build_log(6)
    log.mark_durable(6)
    log.prune_to(3)
    with pytest.raises(LogPrunedError):
        log.records_after(1)
    with pytest.raises(LogPrunedError):
        log.record_at(2)
    with pytest.raises(LogPrunedError):
        log.replay(lambda r: None, after_version=0)


def test_conflict_window_below_gc_horizon_is_conservative():
    log = build_log(6)
    log.mark_durable(6)
    log.prune_to(3)
    fresh = make_writeset([("t", 99)])
    # Genuinely conflict-free, but the window reaches into the pruned prefix:
    # the answer is the conservative "snapshot too old" conflict.
    assert log.conflicts(fresh, 0)
    assert log.first_conflicting_version(fresh, 0) == 3
    # At or above the horizon the precise answer returns.
    assert not log.conflicts(fresh, 3)
    assert log.first_conflicting_version(fresh, 3) is None


def test_prune_removes_index_entries():
    log = CertifierLog()
    log.append(record(1, 1))
    log.append(record(2, 1, 2))
    log.append(record(3, 3))
    log.mark_durable(3)
    assert log.index_item_count == 3
    log.prune_to(2)
    # Key 1's versions (1, 2) and key 2's version (2) are gone; key 3 stays.
    assert log.index_item_count == 1
    assert not log.conflicts(make_writeset([("t", 1)]), 2)
    assert log.conflicts(make_writeset([("t", 3)]), 2)


def test_extend_certification_below_gc_horizon_returns_false():
    log = CertifierLog()
    for version in range(1, 5):
        log.append(LogRecord(version, make_writeset([("t", version)]),
                             certified_back_to=version - 1))
    log.mark_durable(4)
    log.prune_to(2)
    # Version 4 cannot be vouched for back to 0: records 1-2 are pruned.
    assert not log.extend_certification(4, 0)
    assert log.certified_back_to(4) == 3


def test_from_records_rebuilds_a_pruned_suffix():
    log = build_log(6)
    log.mark_durable(6)
    log.prune_to(3)
    rebuilt = CertifierLog.from_records(log.iter_records())
    assert rebuilt.pruned_version == 3
    assert rebuilt.last_version == 6
    assert rebuilt.durable_version == 6
    assert rebuilt.record_at(4).commit_version == 4
    assert rebuilt.conflicts(make_writeset([("t", 5)]), 3)


# -- crash (suffix truncation) consistency ------------------------------------


@LOG_CLASSES
def test_truncate_keeps_index_and_horizons_consistent(log_class):
    log = log_class()
    log.append(record(1, 1))
    log.append(record(2, 2))
    log.append(record(3, 1))
    log.append(record(4, 4))
    log.mark_durable(2)
    assert log.extend_certification(2, 0)
    lost = log.truncate_to_durable()
    assert lost == 2
    # Index entries of the lost suffix are gone: key 1's second writer
    # (version 3) and key 4's only writer (version 4).
    assert log.first_conflicting_version(make_writeset([("t", 1)]), 1) is None
    assert not log.conflicts(make_writeset([("t", 4)]), 0)
    assert log.index_item_count == 2
    # Extension horizons of lost records are dropped, surviving ones kept.
    assert log.certified_back_to(2) == 0
    assert log.certified_back_to(3) == 2  # back to default
    # The log certifies correctly after the crash: version 3's slot is free
    # again and the re-appended record is found by the index.
    log.append(record(3, 9))
    assert log.first_conflicting_version(make_writeset([("t", 9)]), 1) == 3
    assert log.first_conflicting_version(make_writeset([("t", 2)]), 1) == 2


def test_certify_after_crash_truncation_matches_fresh_log():
    """Crash-injection: decisions after truncate == decisions of a rebuilt log."""
    crashed = CertifierLog()
    for version, keys in enumerate([(1,), (2, 3), (1, 4), (5,)], start=1):
        crashed.append(record(version, *keys))
    crashed.mark_durable(2)
    crashed.truncate_to_durable()
    fresh = CertifierLog.from_records(crashed.iter_records(), durable=True)
    for keys in [(1,), (3,), (4,), (5,), (1, 5)]:
        probe = make_writeset([("t", k) for k in keys])
        for after in range(0, 3):
            assert crashed.conflicts(probe, after) == fresh.conflicts(probe, after)
            assert (crashed.first_conflicting_version(probe, after)
                    == fresh.first_conflicting_version(probe, after))
