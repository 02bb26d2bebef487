"""Functional tests for the replicated live scheduler machinery.

No sockets or subprocesses: `LiveReplicatedCertifierService` runs on
in-memory counting devices and `rebuild_from_shard_wals` is fed the
devices' durable payloads — exactly what a promoted standby reads out of
the shard processes' WAL files, minus the wire.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.certification import CertificationRequest
from repro.core.config import ReplicationConfig
from repro.engine.log_device import CountingLogDevice
from repro.errors import ReproError
from repro.live.codec import (
    decode_shard_log_entry,
    decode_state_transfer,
    encode_shard_log_entry,
    encode_state_transfer,
)
from repro.live.replicated import (
    LiveReplicatedCertifierService,
    decode_entry_payload,
    encode_entry_payload,
    rebuild_from_shard_wals,
)
from repro.core.writeset import WriteSet, make_writeset
from repro.consensus.sharded import ENTRY_GC, ShardLogEntry


def ws(*keys: object, table: str = "t") -> WriteSet:
    return make_writeset([(table, key) for key in keys])


def _config(shards, **overrides):
    return dataclasses.replace(
        ReplicationConfig(certifier_shards=shards), **overrides)


def _service(shards):
    devices = [CountingLogDevice() for _ in range(shards)]
    service = LiveReplicatedCertifierService(_config(shards), log_devices=devices)
    return service, devices


def _request(version, writeset, origin="replica-0"):
    return CertificationRequest(
        tx_start_version=version, writeset=writeset,
        replica_version=version, origin_replica=origin)


def _certify_tx(service, request, tx_id):
    """One request through the round path, stamped with its ``tx_id``."""
    (outcome,) = service.admit_batch_tx([request], [tx_id])
    if isinstance(outcome, ReproError):
        raise outcome
    return outcome


def _durable_entries(devices):
    return [[decode_entry_payload(p) for p in device.durable_payloads]
            for device in devices]


def _drive(service, count=6, shards=2):
    committed = []
    for i in range(count):
        version = service.system_version
        tx_id = f"client-{i}:1"
        # Alternate single-shard and cross-shard writesets.
        keys = (i, i + shards) if i % 2 else (i,)
        result = _certify_tx(service, _request(version, ws(*keys)), tx_id)
        assert result.committed
        committed.append((tx_id, result.tx_commit_version))
    return committed


def test_wal_payloads_are_full_entries():
    service, devices = _service(2)
    committed = _drive(service)
    entries = [e for per_shard in _durable_entries(devices) for e in per_shard]
    assert entries, "flush wrote no payloads"
    for entry in entries:
        assert entry.kind == "commit"
        assert entry.writeset is not None and len(list(entry.writeset)) > 0
        assert entry.touched
        assert entry.origin_replica == "replica-0"
    # Every committed round's tx_id appears in at least one shard's WAL.
    logged_tx = {e.tx_id for e in entries}
    assert {tx for tx, _ in committed} <= logged_tx


def test_cross_shard_round_is_on_every_touched_wal():
    service, devices = _service(2)
    result = _certify_tx(service, _request(0, ws(0, 1)), "xshard:1")
    assert result.committed
    per_shard = _durable_entries(devices)
    for shard_id in (0, 1):
        match = [e for e in per_shard[shard_id]
                 if e.global_version == result.tx_commit_version]
        assert len(match) == 1
        assert match[0].touched == (0, 1)


def test_rebuild_from_wals_matches_primary():
    service, devices = _service(2)
    committed = _drive(service, count=8)
    certifier, report, completions = rebuild_from_shard_wals(
        _durable_entries(devices), config=_config(2))
    assert completions == []
    assert report.rounds_completed == 0
    assert report.system_version == service.system_version
    assert report.durable_version == service.core.durable_version
    # Decisions, versions and horizons are bit-equivalent: the recovered
    # coordinator exports the same rounds the primary would have.
    assert certifier.core.export_rounds() == service.export_rounds() \
        if hasattr(certifier.core, "export_rounds") else True
    rebuilt = LiveReplicatedCertifierService.from_recovered_core(
        certifier.core, config=_config(2),
        log_devices=[CountingLogDevice(), CountingLogDevice()])
    assert rebuilt.export_rounds() == service.export_rounds()
    assert certifier.committed_acks() == {tx: v for tx, v in committed}


def test_rebuild_completes_round_missing_on_one_shard():
    # Simulate the primary dying mid-flush of a cross-shard round: the
    # entry reached shard 0's WAL but not shard 1's.
    service, devices = _service(2)
    _drive(service, count=4)
    result = _certify_tx(service, _request(0, ws(10, 11)), "torn:1")
    assert result.committed
    per_shard = _durable_entries(devices)
    # Drop the final (cross-shard) entry from shard 1's WAL.
    assert per_shard[1][-1].global_version == result.tx_commit_version
    per_shard[1] = per_shard[1][:-1]
    certifier, report, completions = rebuild_from_shard_wals(
        per_shard, config=_config(2))
    assert report.rounds_completed == 1
    assert completions == [(1, per_shard[0][-1])] or (
        completions[0][0] == 1
        and completions[0][1].global_version == result.tx_commit_version)
    assert report.system_version == service.system_version
    assert certifier.committed_acks()["torn:1"] == result.tx_commit_version


def test_rebuild_refuses_a_version_hole_instead_of_renumbering():
    # Streaming durability's double fault: shard 0 was down (v2, a
    # single-shard round, only ever sat in the dead primary's resend queue)
    # while healthy shard 1 went on to make v3 durable — and then the primary
    # died.  No surviving fragment can complete v2, so promotion must fail
    # with a clear error, never serve a history with v3 but no v2.
    from repro.errors import RecoveryError

    service, devices = _service(2)
    partitioner = service.core.partitioner
    on_shard = [next(k for k in range(100) if partitioner.shard_of(("t", k)) == shard)
                for shard in (0, 1)]
    for number, shard in enumerate((1, 0, 1), start=1):  # v1, v2, v3
        _certify_tx(service, _request(service.system_version, ws(on_shard[shard])),
                    f"tx:{number}")
    per_shard = _durable_entries(devices)
    assert [e.global_version for e in per_shard[0]] == [2]
    per_shard[0] = []  # v2 never reached shard 0's disk
    with pytest.raises(RecoveryError, match="not dense: expected 2, got 3"):
        rebuild_from_shard_wals(per_shard, config=_config(2))


def test_rebuild_restores_gc_horizon_and_prunes_ack_table():
    config = _config(2, certifier_gc_headroom=0)
    devices = [CountingLogDevice() for _ in range(2)]
    service = LiveReplicatedCertifierService(config, log_devices=devices)
    committed = _drive(service, count=6)
    # Both replicas fully applied: GC can prune everything below the
    # low-water mark (headroom forced to 0).
    service.register_replica("replica-0", service.system_version)
    service.register_replica("replica-1", service.system_version)
    pruned = service.collect_garbage()
    assert pruned > 0
    horizon = service.core.pruned_version
    certifier, report, _ = rebuild_from_shard_wals(
        _durable_entries(devices), config=config)
    assert report.pruned_version == horizon
    # Acks at or below the replicated horizon are dropped on rebuild too.
    expected = {tx: v for tx, v in committed if v > horizon}
    assert certifier.committed_acks() == expected


def test_gc_prunes_only_once_every_shard_holds_the_marker():
    # On streaming devices the GC markers ride the WAL stream like the round
    # entries: marker-before-prune means nothing is pruned until the last
    # shard has acknowledged its marker.
    from faults import SplitPhaseDevice

    config = _config(2, certifier_gc_headroom=0)
    devices = [SplitPhaseDevice(manual=True) for _ in range(2)]
    service = LiveReplicatedCertifierService(config, log_devices=devices)
    for i in range(4):
        _certify_tx(service, _request(service.system_version, ws(i, i + 2)), f"c-{i}:1")
    for device in devices:
        device.ack(len(device.in_flight))
    service.register_replica("replica-0", service.system_version)
    assert service.collect_garbage() == 0  # shipped, not yet durable anywhere
    devices[0].ack()
    assert service.core.pruned_version == 0 and len(service._tx_for_version) == 4
    devices[1].ack()
    assert service.core.pruned_version == 4 and service._tx_for_version == {}
    markers = [decode_entry_payload(d.durable_payloads[-1]) for d in devices]
    assert [(m.kind, m.global_version) for m in markers] == [(ENTRY_GC, 4)] * 2


def test_duplicate_certify_after_rebuild_is_replayed_not_readmitted():
    service, devices = _service(2)
    result = _certify_tx(service, _request(0, ws(5)), "dup:1")
    certifier, _, _ = rebuild_from_shard_wals(
        _durable_entries(devices), config=_config(2))
    replay = certifier.certify(_request(0, ws(5)), tx_id="dup:1")
    assert replay.committed
    assert replay.tx_commit_version == result.tx_commit_version
    assert certifier.stats.replayed_acks == 1


def test_single_shard_mode_rebuilds_too():
    service, devices = _service(1)
    committed = _drive(service, count=5, shards=1)
    certifier, report, completions = rebuild_from_shard_wals(
        _durable_entries(devices), config=_config(1))
    assert completions == []
    assert report.system_version == service.system_version
    assert certifier.committed_acks() == dict(committed)


# -- codec round trips --------------------------------------------------------


def test_shard_log_entry_codec_round_trip():
    entry = ShardLogEntry(
        kind="commit", global_version=7, writeset=ws(1, "k", 3),
        touched=(0, 2), origin_replica="replica-1",
        certified_back_to=4, tx_id="c:9")
    decoded = decode_shard_log_entry(encode_shard_log_entry(entry))
    assert decoded.kind == entry.kind
    assert decoded.global_version == entry.global_version
    assert decoded.touched == entry.touched
    assert decoded.origin_replica == entry.origin_replica
    assert decoded.certified_back_to == entry.certified_back_to
    assert decoded.tx_id == entry.tx_id
    assert sorted(map(repr, decoded.writeset.item_ids)) == \
        sorted(map(repr, entry.writeset.item_ids))
    gc = ShardLogEntry(kind=ENTRY_GC, global_version=12)
    raw = encode_entry_payload(gc)
    assert decode_entry_payload(raw).kind == ENTRY_GC
    assert decode_entry_payload(raw).writeset is None


def test_state_transfer_codec_round_trip_validates():
    service, _ = _service(2)
    _drive(service, count=6)
    package = service.export_state_transfer()
    decoded = decode_state_transfer(encode_state_transfer(package))
    decoded.validate()  # checksum recomputes identically after the wire
    assert decoded.num_shards == package.num_shards
    assert decoded.horizon == package.horizon
    assert len(decoded.rounds) == len(package.rounds)
    rebuilt = LiveReplicatedCertifierService.from_state_transfer(
        decoded, config=_config(2),
        log_devices=[CountingLogDevice(), CountingLogDevice()])
    assert rebuilt.system_version == service.system_version
    assert rebuilt.export_rounds() == service.export_rounds()


def test_tampered_state_transfer_fails_validation():
    service, _ = _service(2)
    _drive(service, count=4)
    payload = encode_state_transfer(service.export_state_transfer())
    payload["horizon"] = payload["horizon"] + 1
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        decode_state_transfer(payload).validate()
