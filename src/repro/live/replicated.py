"""Replicated live scheduler: durable WAL entries + standby promotion.

The plain live scheduler (PR 8/9) writes opaque size markers to the shard
WALs — enough to *gate* commits on a real remote fsync, useless for
rebuilding the certifier after the scheduler process dies.  This module
closes that gap with two pieces:

:class:`LiveReplicatedCertifierService`
    A :class:`~repro.middleware.sharded_certifier.ShardedCertifierService`
    whose shard WAL payloads are full JSON-encoded
    :class:`~repro.consensus.sharded.ShardLogEntry` records — writeset,
    touched-shard set, origin replica, certified-back horizon and the
    exactly-once ``tx_id`` — plus replicated GC markers.  The certifier
    shard processes thereby become the scheduler's durable acceptor
    stores: any state a standby needs survives in their WAL files, exactly
    like the functional :class:`~repro.consensus.sharded.
    ReplicatedShardedCertifier` keeps it in its Paxos groups.

:func:`rebuild_from_shard_wals`
    The promotion path.  The shard WALs' entries are learned into an
    in-memory single-node-per-shard :class:`~repro.consensus.sharded.
    ShardPaxosGroups` and the *functional* recovery orchestration —
    :func:`~repro.recovery.sharded_recovery.recover_sharded_certifier`,
    byte for byte — rebuilds the coordinator: merges per-shard prefixes
    into rounds, **completes rounds interrupted mid-flush** (present on
    some but not all touched shards' WALs), restores the GC horizon from
    the replicated markers and rebuilds the exactly-once commit table from
    the entries' ``tx_id`` tokens.  Completed fragments are returned so
    the caller can append them durably to the real shard WALs before
    serving traffic.

The deployment choreography (standby seeding over the wire, the
``promote`` op, client re-dial) lives in :mod:`repro.live.scheduler` /
:mod:`repro.live.cluster`; this module is deliberately wire-free so the
rebuild logic is unit-testable against the functional stack.
"""

from __future__ import annotations

import json
import random
from typing import Iterator

from repro.consensus.sharded import (
    ENTRY_GC,
    ReplicatedShardedCertifier,
    ShardLogEntry,
)
from repro.core.certification import CertificationRequest, CertificationResult
from repro.core.config import ReplicationConfig
from repro.engine.log_device import ship
from repro.errors import ReproError
from repro.live.codec import decode_shard_log_entry, encode_shard_log_entry
from repro.middleware.certifier import gc_headroom
from repro.middleware.sharded_certifier import ShardedCertifierService
from repro.recovery.sharded_recovery import (
    ShardedCertifierRecoveryReport,
    recover_sharded_certifier,
)


def encode_entry_payload(entry: ShardLogEntry) -> bytes:
    """One WAL payload: the JSON-encoded entry (`codec` writeset format)."""
    return json.dumps(encode_shard_log_entry(entry),
                      separators=(",", ":")).encode("utf-8")


def decode_entry_payload(payload: bytes) -> ShardLogEntry:
    return decode_shard_log_entry(json.loads(payload.decode("utf-8")))


class LiveReplicatedCertifierService(ShardedCertifierService):
    """A sharded certifier service whose WAL payloads rebuild the scheduler.

    Used by the live scheduler when ``live_scheduler_standby`` is on — at
    *any* shard count, including one: the seed
    :class:`~repro.middleware.certifier.CertifierService` has no failover
    hooks, and the single-shard sharded service is decision-equivalent to
    it (``tests/test_property_certifier_index.py`` pins that).
    """

    def __init__(
        self,
        config: ReplicationConfig | None = None,
        *,
        log_devices=None,
    ) -> None:
        super().__init__(config, log_devices=log_devices)
        #: Global commit version → client tx_id, for rounds whose entries
        #: have not been flushed yet (pruned with the GC horizon).  The
        #: entry must carry the tx_id so a promoted standby can answer the
        #: client's retry from the rebuilt exactly-once table.
        self._tx_for_version: dict[int, object] = {}

    # -- certification with exactly-once tokens -------------------------------

    def admit_batch_tx(
        self, requests: list[CertificationRequest], tx_ids: list[object],
    ) -> list[CertificationResult | ReproError]:
        """`admit_batch`, remembering each admitted version's ``tx_id``
        between admit and ship so `_batch_payloads` can stamp its entry."""
        def remember(index: int, commit_version: int) -> None:
            if tx_ids[index] is not None:
                self._tx_for_version[commit_version] = tx_ids[index]

        return self.admit_batch(requests, on_admit=remember)

    # -- durable entries -------------------------------------------------------

    def _batch_payloads(self, shard_id: int, batch: list[tuple[int, int]]) -> Iterator[bytes]:
        """Full round entries — not size markers — for the shard WAL.

        Every touched shard gets the complete entry (full writeset +
        touched set), mirroring the functional replicated certifier's
        group appends: one surviving copy is enough for recovery to finish
        an interrupted cross-shard round.
        """
        for global_version, _local_version in batch:
            record = self.core.record_at(global_version)
            yield encode_entry_payload(ShardLogEntry(
                kind="commit",
                global_version=global_version,
                writeset=record.writeset,
                touched=tuple(s for s, _ in record.shard_locals),
                origin_replica=record.origin_replica,
                certified_back_to=self.core.certified_back_to(global_version),
                tx_id=self._tx_for_version.get(global_version),
            ))

    def collect_garbage(self) -> int:
        """Replicate the decided GC horizon to every shard WAL, then prune.

        Marker-before-prune, like the functional replicated certifier: a
        standby re-prunes to exactly the horizon the dead primary decided,
        and the version→tx_id map stays horizon-bound with it.  The markers
        ride the same stream as the round entries, so on streaming devices
        the prune happens (and is counted) when the last shard acknowledges
        its marker — the return value is what was pruned by then.
        """
        target = self.core.gc_target(headroom=self.gc_headroom_versions)
        if target is None:
            return 0
        marker = encode_entry_payload(
            ShardLogEntry(kind=ENTRY_GC, global_version=target))
        waiting, pruned = len(self.devices), 0

        def marker_durable() -> None:
            nonlocal waiting, pruned
            waiting -= 1
            if waiting == 0:
                for version in [v for v in self._tx_for_version if v <= target]:
                    del self._tx_for_version[version]
                pruned = self.core.apply_gc(target)

        for device in self.devices:
            device.append(marker)
            ship(device, marker_durable)
        return pruned


def rebuild_from_shard_wals(
    per_shard_entries: list[list[ShardLogEntry]],
    *,
    config: ReplicationConfig | None = None,
) -> tuple[ReplicatedShardedCertifier, ShardedCertifierRecoveryReport,
           list[tuple[int, ShardLogEntry]]]:
    """Rebuild a certifier coordinator from the shard WALs' entries.

    ``per_shard_entries[shard_id]`` is that shard's decoded WAL payload
    sequence, in append order.  The entries are learned into an in-memory
    one-node-per-shard Paxos group set (a WAL file acknowledges its own
    fsyncs, so one "node" per shard *is* the quorum) and the functional
    :func:`recover_sharded_certifier` does the rest — including completing
    rounds that reached only a subset of their touched shards' WALs.

    Returns ``(certifier, report, completions)`` where ``completions``
    lists ``(shard_id, entry)`` fragments recovery appended in memory to
    finish interrupted rounds — the caller must append them durably to the
    real shard WALs before acknowledging any new work.
    """
    config = config if config is not None else ReplicationConfig()
    certifier = ReplicatedShardedCertifier(
        max(1, len(per_shard_entries)),
        nodes_per_shard=1,
        forced_abort_rate=config.forced_abort_rate,
        abort_chooser=random.Random(config.rng_seed).random,
        gc_headroom=gc_headroom(config),
    )
    for shard_id, entries in enumerate(per_shard_entries):
        for entry in entries:
            certifier.groups.append(shard_id, entry)
    certifier.crash()
    report = recover_sharded_certifier(certifier)
    completions: list[tuple[int, ShardLogEntry]] = []
    for shard_id, entries in enumerate(per_shard_entries):
        chosen = certifier.groups.chosen_entries(shard_id)
        for entry in chosen[len(entries):]:
            completions.append((shard_id, entry))
    return certifier, report, completions
