"""Tests for the certifier service (log durability + forced aborts)."""

import pytest

from repro.core.certification import CertificationRequest
from repro.core.writeset import make_writeset
from repro.core.config import ReplicationConfig, SystemKind
from repro.middleware.certifier import GC_INTERVAL_REQUESTS, CertifierService


def request(keys, start=0, replica_version=0, replica="replica-0"):
    return CertificationRequest(
        tx_start_version=start,
        writeset=make_writeset([("t", k) for k in keys]),
        replica_version=replica_version,
        origin_replica=replica,
    )


def test_commit_decisions_are_durable_before_release():
    service = CertifierService()
    result = service.certify(request(["a"]))
    assert result.committed
    assert service.log.durable_version == 1
    assert service.fsync_count == 1


def test_durability_disabled_skips_the_critical_path_flush():
    service = CertifierService(ReplicationConfig(system=SystemKind.TASHKENT_API_NO_CERT))
    result = service.certify(request(["a"]))
    assert result.committed
    assert service.fsync_count == 0
    assert service.log.durable_version == 0
    # A later explicit flush (off the critical path) makes it durable.
    assert service.flush() == 1
    assert service.log.durable_version == 1


def test_flush_groups_all_pending_writesets():
    service = CertifierService(ReplicationConfig(system=SystemKind.TASHKENT_API_NO_CERT))
    for key in "abcde":
        service.certify(request([key]))
    flushed = service.flush()
    assert flushed == 5
    assert service.fsync_count == 1
    assert service.writesets_per_fsync == pytest.approx(5.0)


def test_aborted_requests_write_nothing():
    service = CertifierService()
    service.certify(request(["x"]))
    fsyncs = service.fsync_count
    result = service.certify(request(["x"]))
    assert not result.committed
    assert service.fsync_count == fsyncs


def test_forced_abort_rate_is_deterministic_per_seed():
    config = ReplicationConfig(forced_abort_rate=0.5, rng_seed=7)
    outcomes_a = [
        CertifierService(config).certify(request([f"k{i}"])).committed for i in range(20)
    ]
    outcomes_b = [
        CertifierService(config).certify(request([f"k{i}"])).committed for i in range(20)
    ]
    assert outcomes_a == outcomes_b


def test_forced_abort_rate_roughly_matches_target():
    service = CertifierService(ReplicationConfig(forced_abort_rate=0.4, rng_seed=3))
    total = 400
    aborted = 0
    for i in range(total):
        result = service.certify(request([f"key-{i}"]))
        if not result.committed:
            aborted += 1
            assert result.forced_abort
    assert 0.3 < aborted / total < 0.5


def test_fetch_remote_writesets_serves_staleness_refresh():
    service = CertifierService()
    for key in "abc":
        service.certify(request([key]))
    remote = service.fetch_remote_writesets(1)
    assert [info.commit_version for info in remote] == [2, 3]


def test_stats_expose_paper_metrics():
    service = CertifierService()
    service.certify(request(["a"]))
    stats = service.stats()
    assert stats["fsyncs"] == 1.0
    assert stats["commits"] == 1
    assert stats["writesets_per_fsync"] == pytest.approx(1.0)


def test_automatic_gc_bounds_the_log():
    service = CertifierService(ReplicationConfig(certifier_gc_headroom=5))
    count = GC_INTERVAL_REQUESTS
    for i in range(count):
        version = service.system_version
        service.certify(request([f"k{i}"], start=version, replica_version=version))
    # The replica reported up to version count - 1; GC keeps the headroom suffix.
    assert service.log.last_version == count
    assert service.log.pruned_version > 0
    assert service.log.retained_count <= count - service.log.pruned_version
    assert service.log.pruned_version >= count - 5 - 1
    # Decisions above the horizon are unaffected.
    version = service.system_version
    result = service.certify(request([f"k{count - 1}"], start=version - 1,
                                     replica_version=version))
    assert not result.committed  # k{count - 1} committed at version count
    assert result.conflicting_version == count


def test_gc_still_runs_with_durability_disabled():
    """Regression: tashAPInoCERT (no critical-path flush) must still GC.

    Without the lazy flush on the GC tick, durable_version would stay 0 and
    prune_to would clamp every collection to a no-op forever.
    """
    service = CertifierService(ReplicationConfig(
        system=SystemKind.TASHKENT_API_NO_CERT, certifier_gc_headroom=0))
    for i in range(GC_INTERVAL_REQUESTS):
        version = service.system_version
        service.certify(request([f"k{i}"], start=version, replica_version=version))
    assert service.log.durable_version > 0  # lazily flushed off the critical path
    assert service.log.pruned_version > 0  # ...which unblocks GC
    assert service.log.retained_count < GC_INTERVAL_REQUESTS


def test_idle_registered_replica_blocks_gc():
    service = CertifierService(ReplicationConfig(certifier_gc_headroom=0))
    service.register_replica("idle-replica")  # never advances past 0
    for i in range(50):
        version = service.system_version
        service.certify(request([f"k{i}"], start=version, replica_version=version))
    service.collect_garbage()
    assert service.log.pruned_version == 0  # the idle replica pins the log
    service.disconnect_replica("idle-replica")
    service.collect_garbage()
    assert service.log.pruned_version > 0
