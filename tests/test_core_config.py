"""Unit tests for configuration objects and their validation."""

import pytest

from repro.core.config import (
    DiskConfig,
    NetworkConfig,
    ReplicationConfig,
    SystemKind,
    WorkloadName,
    WRITESET_SIZE_BYTES,
)
from repro.errors import ConfigurationError


def test_system_kind_durability_placement_matches_paper():
    assert SystemKind.BASE.durability_in_database
    assert SystemKind.BASE.durability_in_certifier
    assert not SystemKind.TASHKENT_MW.durability_in_database
    assert SystemKind.TASHKENT_MW.durability_in_certifier
    assert SystemKind.TASHKENT_API.durability_in_database
    assert SystemKind.TASHKENT_API.durability_in_certifier
    assert not SystemKind.TASHKENT_API_NO_CERT.durability_in_certifier
    assert SystemKind.STANDALONE.durability_in_database
    assert not SystemKind.STANDALONE.durability_in_certifier


def test_only_api_variants_support_ordered_commit():
    assert SystemKind.TASHKENT_API.supports_ordered_commit
    assert SystemKind.TASHKENT_API_NO_CERT.supports_ordered_commit
    assert not SystemKind.BASE.supports_ordered_commit
    assert not SystemKind.TASHKENT_MW.supports_ordered_commit


def test_writeset_sizes_match_paper_constants():
    assert WRITESET_SIZE_BYTES[WorkloadName.ALL_UPDATES] == 54
    assert WRITESET_SIZE_BYTES[WorkloadName.TPC_B] == 158
    assert WRITESET_SIZE_BYTES[WorkloadName.TPC_W] == 275


def test_disk_config_defaults_match_paper_fsync():
    disk = DiskConfig()
    assert disk.fsync_mean_ms == pytest.approx(8.0)
    assert disk.fsync_min_ms == pytest.approx(6.0)
    assert disk.fsync_max_ms == pytest.approx(12.0)
    assert not disk.dedicated_log_channel


def test_disk_config_validation():
    with pytest.raises(ConfigurationError):
        DiskConfig(fsync_min_ms=0)
    with pytest.raises(ConfigurationError):
        DiskConfig(fsync_mean_ms=20.0)


def test_network_config_message_delay_scales_with_size():
    net = NetworkConfig()
    small = net.message_delay_ms(64)
    large = net.message_delay_ms(64 * 1024)
    assert large > small > 0
    with pytest.raises(ConfigurationError):
        NetworkConfig(one_way_latency_ms=-1)


def test_replication_config_validation():
    with pytest.raises(ConfigurationError):
        ReplicationConfig(num_replicas=0)
    with pytest.raises(ConfigurationError):
        ReplicationConfig(forced_abort_rate=1.5)
    with pytest.raises(ConfigurationError):
        ReplicationConfig(clients_per_replica=0)
    with pytest.raises(ConfigurationError):
        ReplicationConfig(staleness_bound_ms=0)


def test_replication_config_with_helpers_preserve_other_fields():
    config = ReplicationConfig(num_replicas=3, forced_abort_rate=0.2)
    as_base = config.with_system(SystemKind.BASE)
    assert as_base.system is SystemKind.BASE
    assert as_base.num_replicas == 3
    assert as_base.forced_abort_rate == pytest.approx(0.2)
    wider = config.with_replicas(10)
    assert wider.num_replicas == 10
    assert wider.system is config.system
