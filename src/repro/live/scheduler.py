"""The ``scheduler`` role: certification coordinator and cluster front door.

Hosts the functional :class:`ShardedCertifierService` (at every shard
count), with each shard's log device replaced by a streaming
:class:`~repro.live.wal.RemoteWalDevice` pointed at a certifier-shard
process.  Adds the **exactly-once transaction table**: every client commit
carries a ``tx_id``; the admit outcome is recorded under it, a duplicate
``certify`` is answered from the record instead of re-admitted, and
``commit_status`` lets a client that lost its replica mid-commit resolve the
fate of its transaction without re-executing it.

One event loop orders every change to the role's state: it **admits**
``certify`` requests in rounds (:class:`_CertifyBatcher`), reads the shards'
acknowledgements and **releases** each decision when the global durable
frontier reaches its version, and runs every other op inline (``promote``
awaits its shard reads there).  Only a standby's seed, before the loop
exists, blocks on another node.  It keeps no writeset queue per replica: a
replica's refresh polls the certifier directory (``poll_writesets``).

Fault points: ``--wedge-before-certify-round`` / ``--wedge-after-certify-round``
freeze the node before the Nth round is admitted (nothing durable) or when
its decisions are released (durable, unacknowledged).
"""

from __future__ import annotations

import argparse
import asyncio
import binascii
import functools
import sys
import time
from collections import deque, namedtuple

from repro.core.group_commit import GroupCommitStats
from repro.errors import RecoveryError, ReproError
from repro.live import codec
from repro.live.replicated import (LiveReplicatedCertifierService, decode_entry_payload,
                                   encode_entry_payload, rebuild_from_shard_wals)
from repro.live.server import (ASYNC, WEDGE, Op, Reply, Role, error_envelope, load_spec,
                               parse_addr)
from repro.live.wal import RemoteWalDevice
from repro.live.wire import ConnectionLost, RemoteCallError, WireClient, check_ok
from repro.middleware.sharded_certifier import ShardedCertifierService


class _CertifyBatcher:
    """Collects concurrent ``certify`` requests into certification rounds.

    Lives on the event loop with no task of its own: the first request after
    a cut schedules the next one, which takes up to ``live_certify_batch_max``
    requests and *admits* them right here.  With a zero
    ``live_certify_batch_window_ms`` a round is whatever the loop has read in
    that pass; a window holds it open (see :meth:`_poll`).  Admission never
    waits for the disk: the grouping into fsyncs happens at the shards.  A
    request's ``reply`` is called at once or when the durable frontier
    releases its decision (:meth:`SchedulerRole._release`).
    """

    def __init__(self, role: "SchedulerRole", loop: asyncio.AbstractEventLoop) -> None:
        self._role = role
        self._loop = loop
        self._pending: list[tuple[dict, Reply]] = []
        self._cut_due = False
        self._window_ms = role.config.live_certify_batch_window_ms
        self._batch_max = role.config.live_certify_batch_max
        self._step_s = max(self._window_ms / 8000.0, 0.00025)
        #: Seconds spent admitting rounds (the rest of wall time the batcher
        #: was waiting for requests to arrive).
        self.busy_s = 0.0

    def submit(self, payload: dict, reply: Reply) -> None:
        self._pending.append((payload, reply))
        if not self._cut_due:
            self._cut_due = True
            self._schedule()

    def _schedule(self) -> None:
        if self._window_ms > 0 and len(self._pending) < self._batch_max:
            self._loop.call_later(self._step_s, self._poll, self._loop.time(), 0,
                                  len(self._pending))
        else:
            self._loop.call_soon(self._cut)

    def _poll(self, started: float, stable_polls: int, last_seen: int) -> None:
        """Accumulate until the window elapses or the batch cap is reached —
        or until arrivals go quiescent: when every certify the scheduler has
        read is already pending and nothing new landed across two polls,
        waiting out the rest of the window only adds latency, so cut early."""
        pending = len(self._pending)
        in_flight = (self._role.server_stats.in_flight
                     - len(self._role._held))  # those are not coming
        stable = pending == last_seen and pending >= in_flight
        stable_polls = stable_polls + 1 if stable else 0
        if (stable_polls < 2 and pending < self._batch_max
                and (self._loop.time() - started) * 1000.0 < self._window_ms):
            self._loop.call_later(self._step_s, self._poll, started, stable_polls, pending)
        else:
            self._cut()

    def _cut(self) -> None:
        batch = self._pending[:self._batch_max]
        del self._pending[:len(batch)]
        payloads = [payload for payload, _ in batch]
        # Held decisions are released on this loop too: it reads the acks.
        sinks = [reply for _, reply in batch]
        round_started = self._loop.time()
        try:
            responses = self._role.admit_round(payloads, sinks)
        except Exception as exc:  # noqa: BLE001 - per-round boundary
            responses = [error_envelope(exc)] * len(batch)
        finally:
            self.busy_s += self._loop.time() - round_started
        for sink, response in zip(sinks, responses):
            if response is not None:  # None: held for the durable frontier
                sink(response)
        self._cut_due = bool(self._pending)
        if self._cut_due:
            self._schedule()


#: A decision waiting for the durable frontier (see ``SchedulerRole._held``).
_Held = namedtuple("_Held", "release_at tx_id outcome decided_at response sink")


def _not_durable_yet(op: str) -> RemoteCallError:
    """Refuses a question about an admitted transaction whose log write is
    still in flight; ``call_retrying`` asks again."""
    return RemoteCallError(op, "admitted, not yet durable",
                           error_type="NotDurableYet")


def _resolve(future: asyncio.Future, response) -> None:
    if not future.done():
        future.set_result(response)


class SchedulerRole(Role):
    """Certification coordinator + exactly-once table."""

    role_name = "scheduler"

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__()
        config, _ = load_spec(args)
        shards = [parse_addr(a) for a in (args.shard or [])]
        if len(shards) != config.certifier_shards:
            raise SystemExit(
                f"scheduler needs one --shard address per certifier shard "
                f"({config.certifier_shards}), got {len(shards)}"
            )
        self.shard_addrs = shards
        self._loop: asyncio.AbstractEventLoop | None = None
        self.devices = [self._wal_device(i) for i in range(len(shards))]
        self.config = config
        #: Replicated-scheduler mode: shard WAL payloads are full round
        #: entries a standby can rebuild the certifier from (tentpole of the
        #: failover work); off keeps the opaque-marker WAL shape.
        self.replicated = config.live_scheduler_standby
        self.standby = bool(args.standby)
        #: A standby answers only control-plane ops until promoted; clients
        #: see ``NotPromoted`` errors their retry loop backs off on.
        self.promoted = not self.standby
        self.promotions = 0
        self.last_promotion: dict | None = None
        #: The promotion in progress (a second ``promote`` awaits it), and
        #: the acknowledgements of its completion appends.
        self._promotion: asyncio.Task | None = None
        self._completions_acked: list[asyncio.Future] = []
        self.seed_package = None
        if self.standby and not self.replicated:
            raise SystemExit("--standby requires live_scheduler_standby in the spec")
        if self.replicated:
            self.service = LiveReplicatedCertifierService(
                config, log_devices=list(self.devices))
            if self.standby:
                self._seed_from_primary(args.primary, config)
        else:
            # Always the sharded service, even at one shard: it is the one
            # with streaming durability, and its single-shard core is
            # decision-equivalent to the seed CertifierService.
            self.service = ShardedCertifierService(
                config, log_devices=list(self.devices))
        self.service.on_frontier = self._release
        self.wedge_before_certify_round = args.wedge_before_certify_round
        self.wedge_after_certify_round = args.wedge_after_certify_round
        self.certify_rounds = 0
        #: Certification-round size histogram (how many concurrent certifies
        #: shared one round, and with it one WAL fsync per touched shard).
        self.batch_stats = GroupCommitStats()
        #: Seconds spent admitting rounds (decode, certify, encode, ship —
        #: never the disk).
        self.certify_exec_s = 0.0
        #: Decisions waiting for the durable frontier, in admission (= release)
        #: order.
        self._held: deque[_Held] = deque()
        self.held_decisions_high_water = 0
        self._batcher: _CertifyBatcher | None = None
        #: Exactly-once transaction table: tx_id -> recorded certify outcome.
        self.tx_table: dict[str, dict] = {}
        self.tx_admits = 0
        self.duplicate_tx_hits = 0
        self.status_queries = 0
        #: Decisions answered to ``certify`` (fresh or from the record), and
        #: the remote writesets they carried: per commit, how many times a
        #: writeset is sent.
        self.certify_answers_sent = 0
        self.remote_writesets_sent = 0

    # -- standby seeding and promotion ----------------------------------------

    def _seed_from_primary(self, primary: str | None, config) -> None:
        """Best-effort warm boot from the live primary's state transfer.

        A reachable primary hands over a checksummed
        :class:`StateTransferPackage` (PR 6's anti-entropy unit); the
        standby installs it and keeps the package around so promotion can
        cross-check the WAL rebuild against it.  An unreachable primary
        (already dead, or racing its own boot) degrades to a cold standby —
        promotion rebuilds everything from the shard WALs alone.
        """
        if primary is None:
            return
        host, port = parse_addr(primary)
        try:
            with WireClient(host, port, timeout=5.0, name="standby-seed") as ctl:
                response = ctl.call("state_transfer")
        except (ConnectionLost, RemoteCallError, OSError) as exc:
            print(f"standby cold boot (primary unreachable: {exc})",
                  file=sys.stderr, flush=True)
            return
        package = codec.decode_state_transfer(response["package"])
        self.service = LiveReplicatedCertifierService.from_state_transfer(
            package, config=config, log_devices=list(self.devices))
        self.seed_package = package

    def _wal_device(self, shard_id: int, start_seq: int = 0):
        host, port = self.shard_addrs[shard_id]
        device = RemoteWalDevice(host, port, shard_id=shard_id, start_seq=start_seq,
                                 on_failure=self._stream_failed)
        if self._loop is not None:
            # The event loop reads the acknowledgements itself, so admit →
            # ack → release → response never leaves its thread.
            device.read_on(self._loop)
        return device

    async def _promote(self) -> None:
        """Take over as the certification coordinator (on the loop).

        Reads every shard's WAL back over the wire, rebuilds the certifier
        through the functional recovery orchestration (completing rounds
        that died mid-flush), durably appends those completion fragments,
        rebuilds the exactly-once transaction table from the entries'
        ``tx_id`` tokens, and only then starts answering data-plane ops.
        New WAL batches continue each shard's log at its record count, so
        the offset-dedupe protecting the dead primary's resends cannot
        swallow them.
        """
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        readers = [WireClient(host, port, timeout=5.0, name=f"promote-{shard_id}")
                   for shard_id, (host, port) in enumerate(self.shard_addrs)]
        answers = [loop.create_future() for _ in readers]
        for reader, answer in zip(readers, answers):  # all shards at once
            reader.read_on(loop)  # a shard not up yet is re-dialled
            reader.post("wal_read", functools.partial(_resolve, answer))
        try:
            responses = [check_ok("wal_read", response) for response in
                         await asyncio.wait_for(asyncio.gather(*answers), 30.0)]
        finally:
            for reader in readers:
                reader.close()
        per_shard_entries = [
            [decode_entry_payload(binascii.unhexlify(payload))
             for batch in response["batches"] for payload in batch["payloads"]]
            for response in responses
        ]
        log_ends = [int(response["records"]) for response in responses]
        certifier, report, completions = rebuild_from_shard_wals(
            per_shard_entries, config=self.config)
        package = self.seed_package
        if package is not None:
            # The WAL rebuild must dominate the state-transfer seed: every
            # round the package knew about is in the shard WALs (they were
            # fsynced before the primary acknowledged anything).  Falling
            # short means a shard answered with a truncated file — refuse
            # to serve a diverged history.
            expected = package.horizon + len(package.rounds)
            if report.system_version < expected:
                raise RecoveryError(
                    f"shard WAL rebuild reaches version {report.system_version}, "
                    f"state-transfer seed proves {expected} existed")
        for device in self.devices:
            device.close()
        self.devices = [self._wal_device(i, log_ends[i])
                        for i in range(len(self.shard_addrs))]
        for shard_id, entry in completions:
            # Recovery finished these rounds from surviving fragments; make
            # the completion durable on the shards that missed it before
            # acknowledging any new work.
            self.devices[shard_id].append(encode_entry_payload(entry))
        written = sorted({shard_id for shard_id, _ in completions})
        self._completions_acked = [loop.create_future() for _ in written]
        for shard_id, acked in zip(written, self._completions_acked):
            self.devices[shard_id].ship(functools.partial(_resolve, acked, None))
        try:  # every shard writes at once, and all of them are waited for
            await asyncio.gather(*self._completions_acked)
        finally:
            self._completions_acked = []
        self.service = LiveReplicatedCertifierService.from_recovered_core(
            certifier.core, config=self.config,
            log_devices=list(self.devices))
        self.service.on_frontier = self._release
        acks = certifier.committed_acks()
        self.service._tx_for_version = {v: tx for tx, v in acks.items()}
        for tx_id, version in acks.items():
            # The original decision-time system version died with the
            # primary; the commit version is a safe (tighter) window cap —
            # everything the replica needs below it still rides along.
            self.tx_table[tx_id] = {
                "committed": True, "commit_version": version,
                "forced_abort": False, "conflicting_version": None,
                "decided_at": version,
            }
        self.tx_admits = len(self.tx_table)
        if package is not None:
            for replica, version in package.replica_versions:
                self.service.register_replica(replica, version)
        self.promoted = True
        self.promotions += 1
        self.last_promotion = {
            "rounds_recovered": report.rounds_recovered,
            "rounds_completed": report.rounds_completed,
            "completions_appended": len(completions),
            "system_version": report.system_version,
            "pruned_version": report.pruned_version,
            "tx_table_rebuilt": len(acks),
            "seeded": package is not None,
            "promotion_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self._batcher = _CertifyBatcher(self, loop)
        self._loop = loop
        for device in self.devices:
            device.read_on(loop)

    def state_transfer(self, payload: dict):
        if not self.replicated:
            raise RemoteCallError("state_transfer", "scheduler is not in replicated mode")
        return {"package": codec.encode_state_transfer(
            self.service.export_state_transfer())}

    def standby_status(self, payload: dict):
        return {"replicated": self.replicated, "standby": self.standby,
                "promoted": self.promoted, "promotions": self.promotions,
                "seeded": self.seed_package is not None,
                "last_promotion": self.last_promotion}

    def promote(self, payload: dict, reply: Reply) -> None:
        """Idempotent: a call that arrives while a promotion runs is answered
        when it ends (``already``, or its error) instead of promoting again."""
        first = not self.promoted and self._promotion is None
        if first:  # once it settles, a failed one may be asked for again
            self._promotion = asyncio.ensure_future(self._promote())
            self._promotion.add_done_callback(lambda _: setattr(self, "_promotion", None))

        def answer() -> dict:
            return {"promoted": True, "already": not first, **(self.last_promotion or {})}

        if self._promotion is None:
            return reply(answer())
        self._promotion.add_done_callback(lambda done: reply(
            RemoteCallError("promote", "promotion cancelled") if done.cancelled()
            else done.exception() or answer()))

    def commit_status(self, payload: dict):
        self.status_queries += 1
        recorded = self.tx_table.get(payload["tx_id"])
        if recorded is None:
            if any(held.tx_id == payload["tx_id"] for held in self._held):
                raise _not_durable_yet("commit_status")
            return {"known": False}
        return {"known": True, **recorded}

    def hello_replica(self, payload: dict):
        """A replica joins the log-GC protocol at ``from_version``.  A restarted
        replica says hello under its old name: its dead incarnation's
        watermark is forgotten first, so the new one may start below it."""
        name = payload["replica"]
        from_version = int(payload.get("from_version", 0))
        self.service.disconnect_replica(name)
        self.service.register_replica(name, from_version)
        return {"subscribed_from": from_version}

    def poll_writesets(self, payload: dict):
        """A replica's refresh, answered from the directory: every released
        writeset after ``advance_to``, horizons extended back to ``back_to``
        when it is given.  The scheduler keeps no queue per replica, and the
        poll changes no GC input: the refresh reports its watermark after it
        has applied the answer."""
        back_to = payload.get("back_to")
        remote = self.service.fetch_remote_writesets(
            int(payload.get("advance_to", 0)), None if back_to is None else int(back_to),
            up_to=self.service.core.propagated_version)
        return {"writesets": [codec.encode_remote_info(i) for i in remote],
                "horizon": self.service.replication_horizon()}

    def register_replica(self, payload: dict):
        self.service.register_replica(payload["replica"], int(payload.get("version", 0)))
        return {"horizon": self.service.replication_horizon()}

    def stats(self, payload: dict):
        service = self.service
        return {
            "service": service.stats(),
            "tx_admits": self.tx_admits,
            "tx_table_size": len(self.tx_table),
            "duplicate_tx_hits": self.duplicate_tx_hits,
            "status_queries": self.status_queries,
            "certify_answers_sent": self.certify_answers_sent,
            "remote_writesets_sent": self.remote_writesets_sent,
            "wal_resent_batches": sum(d.resent_batches for d in self.devices),
            "replicated": self.replicated,
            "standby": self.standby,
            "promoted": self.promoted,
            "promotions": self.promotions,
            "certify_rounds": self.certify_rounds,
            "held_decisions": len(self._held),
            "held_decisions_high_water": self.held_decisions_high_water,
            "durable_frontier_lag": (service.core.last_version
                                     - service.core.durable_version),
            # Distinct shard fsync groups acknowledged: Σ shard ``wal.batches``.
            "fsyncs": service.fsync_count,
            # Transactions that did not pay their own fsync: committed
            # log records minus synchronous writes (>0 only when rounds
            # coalesce; the paper's writesets-per-fsync win, measured).
            "fsync_coalesced_transactions": max(
                0, service.stats_snapshot().flush.records_flushed - service.fsync_count),
            "certify_batching": {
                "busy_s": round(self._batcher.busy_s, 6)
                if self._batcher is not None else 0.0,
                "exec_s": round(self.certify_exec_s, 6),
                "rounds": self.batch_stats.flushes,
                "requests": self.batch_stats.records_flushed,
                "average_round_size": self.batch_stats.average_batch_size,
                "largest_round": self.batch_stats.largest_batch,
                "round_size_histogram": {
                    str(k): v for k, v in
                    sorted(self.batch_stats.batch_size_histogram.items())},
            },
            "wal_clients": [d.wire_stats() for d in self.devices],
            "server": self.server_stats.as_dict(),
        }

    ops = {
        "certify": Op(lambda self, payload, reply: self._batcher.submit(payload, reply), ASYNC),
        "state_transfer": Op(state_transfer),
        "standby_status": Op(standby_status, standby=True),
        "promote": Op(promote, ASYNC, standby=True),
        "commit_status": Op(commit_status),
        "hello_replica": Op(hello_replica),
        "poll_writesets": Op(poll_writesets),
        "register_replica": Op(register_replica),
        "replication_horizon": Op(
            lambda self, _: {"horizon": self.service.replication_horizon()}),
        "collect_garbage": Op(
            lambda self, _: {"pruned": self.service.collect_garbage()}),
        "system_version": Op(
            lambda self, _: {"version": self.service.system_version}),
        "stats": Op(stats, standby=True),
        "ping": Op(lambda self, _: {"role": "scheduler", "version": self.service.system_version},
                   standby=True),
    }

    def _record_tx(self, tx_id: str | None, result, decided_at: int) -> None:
        if tx_id is None:
            return
        if result.committed:
            self.tx_admits += 1
        self.tx_table[tx_id] = {
            "committed": result.committed,
            "commit_version": result.tx_commit_version,
            "forced_abort": result.forced_abort,
            "conflicting_version": result.conflicting_version,
            # System version at decision time: bounds the writeset window a
            # duplicate answer may carry (see _duplicate_response).
            "decided_at": decided_at,
        }

    def _duplicate_response(self, payload: dict, horizon: int) -> dict:
        # Already decided: answer from the record, never re-admit.  The
        # client protocol resolves committed retries via commit_status
        # before re-executing, so this branch is a safety net, not the
        # primary exactly-once mechanism.
        request = codec.decode_request(payload["request"])
        recorded = self.tx_table[payload["tx_id"]]
        # Reproduce the ORIGINAL response's window: cap at the decision-time
        # system version and drop the transaction's own writeset.  An
        # uncapped fetch could carry a transaction admitted after this one —
        # on the replica, this (earlier-sent) retry is finished first, and
        # priority-applying that later writeset would abort its still-open
        # engine transaction: a client-visible abort for a commit the
        # certifier admitted.
        # ... and at the release cursor: a later batchmate of the original
        # round may still be waiting for its log write.
        released = self.service.core.propagated_version
        remote = self.service.fetch_remote_writesets(
            request.replica_version, replica=request.origin_replica or None,
            up_to=min(recorded.get("decided_at") or released, released),
            exclude_version=recorded["commit_version"])
        self.certify_answers_sent += 1
        self.remote_writesets_sent += len(remote)
        return {
            "result": {
                "decision": "commit" if recorded["committed"] else "abort",
                "tx_commit_version": recorded["commit_version"],
                "remote_writesets": [codec.encode_remote_info(i) for i in remote],
                "forced_abort": recorded.get("forced_abort", False),
                "conflicting_version": recorded.get("conflicting_version"),
            },
            "duplicate": True,
            "horizon": horizon,
        }

    def admit_round(self, payloads: list[dict], sinks: list) -> list[dict | None]:
        """Admit one certification round; never waits for a disk.

        Splits the round into fresh requests (certified through the
        service's ``admit_batch``, their log writes shipped together) and
        duplicates (answered from the exactly-once table, exactly as
        sequentially) — in batch order, so a resend that landed in the same
        round as its original is still deduplicated.  Returns each request's
        response, or ``None`` where the decision is *held*: the durable
        frontier does not yet cover its commit version (for an abort: the
        newest version in its remote window).  A held decision shows nothing
        — no response, no exactly-once record — until :meth:`_release` hands
        its response to ``sinks[i]``; all else is answered at once.
        """
        exec_started = time.perf_counter()
        self.certify_rounds += 1
        if self.certify_rounds == self.wedge_before_certify_round:
            # Killed here, the round was never admitted: nothing durable,
            # nothing recorded — clients re-execute safely after failover.
            return [WEDGE] * len(payloads)
        if self.certify_rounds == self.wedge_after_certify_round:
            # Killed there, the round is fully durable on the shard WALs and
            # recorded in this (dying) process's memory, but no client ever
            # sees the ack: the promoted standby must answer the retries
            # from its WAL-rebuilt exactly-once table.
            sinks = [lambda _response, sink=sink: sink(WEDGE) for sink in sinks]
        self.batch_stats.record_flush(len(payloads))
        responses: list[dict | None] = [None] * len(payloads)
        fresh: list[tuple[int, dict]] = []
        first_index: dict[str, int] = {}
        held_before = {held.tx_id for held in self._held}
        for i, payload in enumerate(payloads):
            tx_id = payload.get("tx_id")
            if tx_id is not None and (tx_id in self.tx_table or tx_id in first_index
                                      or tx_id in held_before):
                continue  # answered from the record after the fresh pass
            if tx_id is not None:
                first_index[tx_id] = i
            fresh.append((i, payload))
        duplicates = set(range(len(payloads))) - {i for i, _ in fresh}
        requests = []
        tx_ids = []
        for i, payload in list(fresh):
            try:
                requests.append(codec.decode_request(payload["request"]))
            except Exception as exc:  # noqa: BLE001 - malformed request
                responses[i] = error_envelope(exc)
                fresh.remove((i, payload))
                continue
            tx_ids.append(payload.get("tx_id"))
        if not requests:
            outcomes = []
        elif self.replicated:
            outcomes = self.service.admit_batch_tx(requests, tx_ids)
        else:
            outcomes = self.service.admit_batch(requests)
        frontier = self.service.core.propagated_version
        decided_at = self.service.system_version
        # Every answer carries the replication horizon, so a replica's
        # maintenance step needs no call of its own.
        horizon = self.service.replication_horizon()
        for (i, payload), outcome in zip(fresh, outcomes):
            if isinstance(outcome, Exception):
                responses[i] = error_envelope(outcome, unexpected_trace=False)
                continue
            tx_id = payload.get("tx_id")
            response = {"result": codec.encode_result(outcome), "duplicate": False,
                        "horizon": horizon}
            self.certify_answers_sent += 1
            self.remote_writesets_sent += len(outcome.remote_writesets)
            release_at = outcome.tx_commit_version or max(
                (info.commit_version for info in outcome.remote_writesets), default=0)
            if release_at > frontier:
                self._held.append(_Held(release_at, tx_id, outcome, decided_at,
                                        response, sinks[i]))
                continue
            self._record_tx(tx_id, outcome, decided_at)
            responses[i] = response
        self.held_decisions_high_water = max(self.held_decisions_high_water,
                                             len(self._held))
        for i in sorted(duplicates):
            payload = payloads[i]
            tx_id = payload["tx_id"]
            if tx_id in self.tx_table:
                self.duplicate_tx_hits += 1
                responses[i] = self._duplicate_response(payload, horizon)
            elif tx_id in held_before or responses[first_index[tx_id]] is None:
                # Its original is admitted, not yet durable: the sender asks
                # again and is answered from the record the release writes.
                responses[i] = error_envelope(_not_durable_yet("certify"))
            else:
                # The original in this very round failed before recording an
                # outcome; answer the duplicate identically.
                responses[i] = dict(responses[first_index[tx_id]])
        self.certify_exec_s += time.perf_counter() - exec_started
        if self.certify_rounds == self.wedge_after_certify_round:
            responses = [None if r is None else WEDGE for r in responses]
        return responses

    def _release(self, frontier: int) -> None:
        """The durable frontier moved (on the loop, which read the write's
        acknowledgement): every held decision it now covers is recorded in
        the exactly-once table and handed to its sink, in admission order.
        Its own fragments being durable is not enough — its remote window
        may name any earlier version on any shard."""
        while self._held and self._held[0].release_at <= frontier:
            held = self._held.popleft()
            self._record_tx(held.tx_id, held.outcome, held.decided_at)
            held.sink(held.response)

    def _stream_failed(self, error: ReproError) -> None:
        """A shard refused a batch: its WAL stream is dead, the frontier will
        never move again — fail every held decision (and a promotion's
        completion appends) now instead of leaving its client waiting;
        ``ship`` fails every later round."""
        print(f"scheduler: {error}", file=sys.stderr, flush=True)
        for acked in self._completions_acked:
            if not acked.done():
                acked.set_exception(error)
        while self._held:
            self._held.popleft().sink(error_envelope(error))

    def describe(self) -> dict:
        return {"shards": self.config.certifier_shards,
                "standby": self.standby, "replicated": self.replicated}

