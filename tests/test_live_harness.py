"""Unit tests for the live process harness: ports, handshakes, reaping.

These are the anti-flake guarantees the rest of the live suite stands on:
kernel-assigned ports announced via stdout handshake (no hardcoded ports,
no sleep-based readiness), restart pinned to the dead incarnation's port,
and context-manager teardown that provably leaves no orphan processes.
"""

from __future__ import annotations

import pytest

from repro.live.harness import HarnessError, ProcessHarness
from repro.live.wal import read_wal_batches
from repro.live.wire import WireClient

pytestmark = pytest.mark.live


def test_twenty_harnesses_boot_concurrently_without_port_collisions(tmp_path):
    """Satellite: 20 simultaneous harnesses, zero port coordination.

    Every node binds to port 0 and reports the kernel's choice through its
    handshake, so concurrent harnesses can never collide.  All 20 children
    are spawned before any readiness wait, making the boots truly
    concurrent.
    """
    harnesses = [ProcessHarness(run_dir=tmp_path / f"run-{i}") for i in range(20)]
    try:
        handles = [
            harness.spawn("certifier-shard", "shard",
                          ["--shard-id", "0", "--wal", "shard.wal"],
                          wait_ready=False)
            for harness in harnesses
        ]
        ports = [handle.wait_ready(timeout_s=60)["port"] for handle in handles]
        assert len(set(ports)) == 20, f"port collision among {sorted(ports)}"
        for handle in handles:
            with WireClient("127.0.0.1", handle.port, name="probe") as probe:
                assert probe.call("ping")["role"] == "certifier-shard"
    finally:
        for harness in harnesses:
            harness.reap_all()
    for harness in harnesses:
        harness.assert_no_orphans()


def test_handshake_reports_bound_port_and_pid(tmp_path):
    with ProcessHarness(run_dir=tmp_path) as harness:
        handle = harness.spawn("certifier-shard", "s0",
                               ["--shard-id", "0", "--wal", "s0.wal"])
        info = handle.ready_info
        assert info["role"] == "certifier-shard"
        assert info["name"] == "s0"
        assert info["port"] == handle.port and handle.port > 0
        assert info["pid"] == handle.pid


def test_restart_pins_previous_port_and_wal_survives(tmp_path):
    """kill -9, restart: same port, WAL replayed, duplicate batch deduped."""
    with ProcessHarness(run_dir=tmp_path) as harness:
        handle = harness.spawn("certifier-shard", "s0",
                               ["--shard-id", "0", "--wal", "s0.wal"])
        first_port = handle.port
        with WireClient("127.0.0.1", first_port, name="probe") as probe:
            # ``seq`` is the record offset the batch ends at.
            probe.call("wal_append", seq=1, payloads=["aa"])
            probe.call("wal_append", seq=3, payloads=["bb", "cc"])

        handle.kill()
        assert not handle.alive and handle.poll() is not None
        handle.restart()
        assert handle.alive and handle.port == first_port

        with WireClient("127.0.0.1", first_port, name="probe") as probe:
            stats = probe.call("wal_stats")
            assert stats["last_seq"] == 2 and stats["batches"] == 2
            assert stats["records"] == 3
            # A resend of an already-fsynced batch is acknowledged, not
            # re-written: the idempotence the crash tests depend on.
            assert probe.call("wal_append", seq=3, payloads=["bb", "cc"])["applied"] is False
            assert probe.call("wal_stats")["duplicate_batches_skipped"] == 1

        batches = read_wal_batches(tmp_path / "s0.wal")
        assert [b["seq"] for b in batches] == [1, 2]


def test_exit_reaps_children_and_asserts_no_orphans(tmp_path):
    with ProcessHarness(run_dir=tmp_path) as harness:
        handles = [
            harness.spawn("certifier-shard", f"s{i}",
                          ["--shard-id", str(i), "--wal", f"s{i}.wal"])
            for i in range(3)
        ]
        assert all(handle.alive for handle in handles)
    # __exit__ ran reap_all + assert_no_orphans; every child must be gone.
    assert all(not handle.alive for handle in handles)
    assert harness.poll_all() == {f"s{i}": handles[i].poll() for i in range(3)}
    harness.assert_no_orphans()


def test_wait_ready_fails_fast_when_the_node_dies_on_boot(tmp_path):
    with ProcessHarness(run_dir=tmp_path) as harness:
        with pytest.raises(HarnessError, match="exited"):
            # An unknown role makes argparse exit(2) before any handshake.
            harness.spawn("no-such-role", "bad")


def test_captured_logs_are_collected_per_node(tmp_path):
    with ProcessHarness(run_dir=tmp_path) as harness:
        harness.spawn("certifier-shard", "s0", ["--shard-id", "0", "--wal", "s0.wal"])
        logs = harness.collect_logs()
        out, err = logs["s0"]
        assert out.exists() and "REPRO-LIVE-READY" in out.read_text()
