"""Property: ``certify_batch`` is sequentially equivalent (hypothesis).

The live scheduler's group-certification round promises that batching
coalesces only the *IO* — decisions, commit versions, abort causes and
remote writeset windows must be exactly what certifying one request at a
time would produce (``docs`` of :meth:`ShardedCertifier.certify_batch`).
This property drives the same randomly generated request stream through two
identically configured sharded certifiers — one certifying strictly rounds
of one, one in randomly sized rounds — and asserts every outcome is
bit-equivalent, across shard counts 1..3.  A lone request is a round of one
(the sharded core has no other entry point), so the same stream also runs
through the seed :class:`~repro.core.certification.Certifier`, one
``certify`` at a time: the independent sequential reference both arms must
match in decision, commit version, conflicting version, forced abort and
remote-window versions.

A second property pins the service layer's streaming durability (ship every
touched shard's batch, release at the durable frontier) to the blocking
per-shard loop it replaced (kept here, as the reference): same outcomes,
durable frontier, per-device payload sequences and per-replica propagation
order, at 1..4 shards.  A third acknowledges the shipped batches in a random
order across shards and checks nothing is ever propagated ahead of the
frontier.

Request construction mirrors the live arrival pattern: every request of one
round is built against the pre-round certifier state (concurrent clients
snapshot their versions before any batchmate commits), which is exactly the
interleaving the batch must serialize.
"""

from __future__ import annotations

from faults import SplitPhaseDevice
from hypothesis import given, settings, strategies as st

from repro.core.certification import CertificationRequest, CertificationResult, Certifier
from repro.core.config import ReplicationConfig, SystemKind
from repro.core.sharding import ShardedCertifier
from repro.core.writeset import make_writeset
from repro.engine.log_device import CountingLogDevice
from repro.errors import ReproError
from repro.middleware.sharded_certifier import ShardedCertifierService

# A small key alphabet keeps genuine write-write conflicts frequent.
key_lists = st.lists(st.integers(min_value=0, max_value=6),
                     min_size=1, max_size=4)
#: One request spec: row keys + how stale the client's snapshot is.
request_specs = st.tuples(key_lists, st.integers(min_value=0, max_value=3))
#: One round: the requests that arrive concurrently (batch size 1..5).
rounds = st.lists(request_specs, min_size=1, max_size=5)


def build_round(certifier: ShardedCertifier | Certifier,
                specs) -> list[CertificationRequest]:
    """Construct one round's requests against the pre-round state."""
    current = certifier.system_version.version
    return [
        CertificationRequest(
            tx_start_version=max(0, current - staleness),
            writeset=make_writeset([("t", key) for key in keys]),
            replica_version=current,
            origin_replica=f"r{i % 2}",
        )
        for i, (keys, staleness) in enumerate(specs)
    ]


def fingerprint(outcome: CertificationResult | ReproError) -> tuple:
    """Everything the caller can observe about one certification outcome."""
    if isinstance(outcome, ReproError):
        return ("error", type(outcome).__name__)
    return (
        outcome.decision.name,
        outcome.tx_commit_version,
        outcome.forced_abort,
        outcome.conflicting_version,
        tuple(
            (info.commit_version, info.origin_replica,
             info.conflict_free_back_to,
             tuple(sorted((item.table, item.key, item.op.name)
                          for item in info.writeset)))
            for info in outcome.remote_writesets
        ),
    )


def decision(outcome: CertificationResult) -> tuple:
    """What the seed certifier is compared on (its horizons differ)."""
    return (
        outcome.decision.name,
        outcome.tx_commit_version,
        outcome.conflicting_version,
        outcome.forced_abort,
        tuple(info.commit_version for info in outcome.remote_writesets),
    )


@given(shards=st.sampled_from([1, 2, 3]),
       stream=st.lists(rounds, min_size=0, max_size=8))
@settings(max_examples=80, deadline=None)
def test_certify_batch_is_sequentially_equivalent(shards, stream):
    seed = Certifier()
    sequential = ShardedCertifier(shards)
    batched = ShardedCertifier(shards)
    for specs in stream:
        seed_outcomes = [seed.certify(request)
                         for request in build_round(seed, specs)]
        seq_outcomes = [sequential.certify_batch([request])[0]
                        for request in build_round(sequential, specs)]
        bat_outcomes = batched.certify_batch(build_round(batched, specs))

        assert [fingerprint(o) for o in seq_outcomes] == [
            fingerprint(o) for o in bat_outcomes]
        assert [decision(o) for o in seed_outcomes] == [
            decision(o) for o in bat_outcomes]
        # The logs stay in lockstep too — next rounds diverge otherwise.
        assert (seed.system_version.version
                == sequential.system_version.version
                == batched.system_version.version)


# -- streaming durability == the blocking per-shard loop ----------------------


class SequentialFlushService(ShardedCertifierService):
    """Reference: the flush this repo shipped before durability became a
    stream — one shard after the other, each blocking in ``sync()``."""

    def _ship(self, shard_ids):
        for shard_id in sorted(shard_ids):
            batch, self._unshipped[shard_id] = self._unshipped[shard_id], []
            if not batch:
                continue
            shard = self.core.shards[shard_id]
            device = self.devices[shard_id]
            for _global_version, local_version in batch:
                record = shard.log.record_at(local_version)
                device.append(record.writeset.size_bytes().to_bytes(4, "big"))
            device.sync()
            self._flush_stats[shard_id].record_flush(len(batch))
            shard.log.mark_durable(max(local for _, local in batch))
            self.core.advance_durable_frontier()
            self._propagate_up_to()


def _delivered(subscriptions) -> list[list[int]]:
    return [[info.commit_version for info in subscription.poll_flat()]
            for subscription in subscriptions]


@given(shards=st.sampled_from([1, 2, 3, 4]), durable=st.booleans(),
       stream=st.lists(rounds, min_size=0, max_size=8))
@settings(max_examples=80, deadline=None)
def test_streaming_flush_matches_the_sequential_loop(shards, durable, stream):
    config = ReplicationConfig(
        certifier_shards=shards, certifier_gc_headroom=1,
        system=SystemKind.TASHKENT_MW if durable else SystemKind.TASHKENT_API_NO_CERT)
    reference = SequentialFlushService(
        config, log_devices=[CountingLogDevice() for _ in range(shards)])
    service = ShardedCertifierService(
        config, log_devices=[SplitPhaseDevice() for _ in range(shards)])
    ref_subs = [reference.subscribe_replica(f"r{i}", 0) for i in range(2)]
    new_subs = [service.subscribe_replica(f"r{i}", 0) for i in range(2)]
    for specs in stream:
        ref_outcomes = reference.certify_batch(build_round(reference.core, specs))
        new_outcomes = service.certify_batch(build_round(service.core, specs))
        assert [fingerprint(o) for o in ref_outcomes] == [
            fingerprint(o) for o in new_outcomes]
        assert reference.core.durable_version == service.core.durable_version
        assert _delivered(ref_subs) == _delivered(new_subs)
        assert reference.collect_garbage() == service.collect_garbage()
    reference.flush()
    service.flush()
    assert reference.core.durable_version == service.core.durable_version
    assert _delivered(ref_subs) == _delivered(new_subs)
    assert ([d.durable_payloads for d in reference.devices]
            == [d.durable_payloads for d in service.devices])
    assert ([d.sync_count for d in reference.devices]
            == [d.sync_count for d in service.devices])
    assert reference.stats() == service.stats()


@given(shards=st.sampled_from([1, 2, 3, 4]),
       stream=st.lists(rounds, min_size=1, max_size=6), data=st.data())
@settings(max_examples=80, deadline=None)
def test_nothing_is_released_ahead_of_the_durable_frontier(shards, stream, data):
    """Rounds are admitted back to back while the test acknowledges the
    shipped batches in an arbitrary interleaving across shards: decisions
    still equal the blocking reference's, the frontier is exactly the
    longest prefix durable on every touched shard, and no replica ever sees
    a version above it."""
    config = ReplicationConfig(certifier_shards=shards)
    reference = SequentialFlushService(
        config, log_devices=[CountingLogDevice() for _ in range(shards)])
    devices = [SplitPhaseDevice(manual=True) for _ in range(shards)]
    service = ShardedCertifierService(config, log_devices=devices)
    subscription = service.subscribe_replica("r0", 0)
    frontiers: list[int] = []
    service.on_frontier = frontiers.append
    seen: list[int] = []

    def check_release_rule() -> None:
        core = service.core
        expected = 0
        while (expected < core.last_version and core.is_record_durable(expected + 1)):
            expected += 1
        assert core.durable_version == expected
        seen.extend(info.commit_version for info in subscription.poll_flat())
        assert seen == list(range(1, len(seen) + 1)) and len(seen) <= expected

    for specs in stream:
        ref_outcomes = reference.certify_batch(build_round(reference.core, specs))
        new_outcomes = service.admit_batch(build_round(service.core, specs))
        assert [fingerprint(o) for o in ref_outcomes] == [
            fingerprint(o) for o in new_outcomes]
        for device in data.draw(st.lists(st.sampled_from(devices), max_size=4)):
            if device.in_flight:
                device.ack()
                check_release_rule()
    for device in devices:
        device.ack(len(device.in_flight))
        check_release_rule()
    assert frontiers == sorted(frontiers)
    assert service.core.durable_version == reference.core.durable_version
    assert seen == list(range(1, service.core.last_version + 1))
    assert ([d.durable_payloads for d in reference.devices]
            == [d.durable_payloads for d in devices])
