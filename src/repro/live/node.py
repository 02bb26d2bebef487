"""Live-cluster node entrypoints: ``python -m repro.live.node --role ...``.

One process per node, three roles, all serving the length-prefixed JSON
protocol of :mod:`repro.live.wire` over asyncio TCP:

``certifier-shard``
    The durable tail of one certification shard and its **log writer**: an
    append-only WAL file (:class:`~repro.live.wal.BatchWalFile`) where
    everything queued when the disk frees up goes into one line with one
    real ``os.fsync``.  The scheduler's certifier service
    gates every commit decision on this process's acknowledgements, so
    killing it mid-flush is a genuine durability-path fault.

``scheduler``
    The certification coordinator and cluster front door.  Hosts the
    functional :class:`ShardedCertifierService` (at every shard count), with
    each shard's log device replaced by a streaming
    :class:`~repro.live.wal.RemoteWalDevice` pointed at a certifier-shard
    process.  Adds the **exactly-once transaction table**:
    every client commit carries a ``tx_id``; the admit outcome is recorded
    under it, a duplicate ``certify`` is answered from the record instead of
    re-admitted, and ``commit_status`` lets a client that lost its replica
    mid-commit resolve the fate of its transaction without re-executing it.

``replica``
    One database replica: an engine :class:`Database` (file-backed engine
    WAL) behind the *unmodified* :class:`TransparentProxy`, whose certifier
    is a :class:`~repro.live.client.LiveCertifierClient` speaking the wire
    protocol to the scheduler.  Serves client sessions (begin / read / scan /
    insert / update / delete / commit / abort) plus the maintenance surface
    (refresh, vacuum, dump_table) the cluster driver uses.

Concurrency (the ``live.pipeline`` spec switch, default on):

* every server accepts request-id (``rid``) tagged frames and answers them
  **out of order** — a tagged request is dispatched as its own task, so one
  connection carries many in-flight calls.  ``rid``-less frames keep the
  original strict read→reply→read discipline per connection.
* the **scheduler** funnels concurrent ``certify`` requests through a
  batcher: pending requests are cut into *rounds* (time/size policy from
  :mod:`repro.transport`) and **admitted** via the service's ``admit_batch``
  — certified, versioned, their WAL entries shipped, never waiting for a
  disk (so it runs right on the event loop) — and the next round is
  certified while the shards write.  A commit's decision is **released**
  when the global durable frontier reaches its version (the loop reads the
  shards' acknowledgements itself, so nothing on a commit's path changes
  threads); group commit happens at the shards, where everything that
  arrived during one fsync shares the next.  All other ops run on one
  service thread; one service lock serialises the two.
* a **replica** runs client ops on a small thread pool under one
  replica-wide state lock; the lock is released only while a commit waits on
  its certification round trip, so commits overlap on the wire while all
  local work stays serialized.  A :class:`~repro.live.client.CommitGate`
  finalizes commits in certification (= send = global version) order.

With ``live.pipeline`` off every node behaves exactly like the original
strict one-in-flight protocol — the unbatched baseline the live benchmark
sweep compares against.

Readiness is announced by a machine-readable handshake line on stdout
(:data:`~repro.live.harness.READY_PREFIX` + JSON with the kernel-assigned
port) — nodes bind to port 0 unless a restart pins the previous port.

Deterministic fault injection: ``--wedge-before-sync`` / ``--wedge-after-sync``
(certifier-shard) and ``--wedge-before-commit-op`` / ``--wedge-after-commit-op``
(replica) make the node stop responding at an exact protocol point — after
which the harness delivers the actual ``kill -9``.  This maps the in-process
crash points of ``tests/faults.py`` onto real processes: wedge-before-sync is
``pre-flush`` (decision unreleased, nothing durable), wedge-after-sync is
``mid-flush`` (durable but unacknowledged), wedge-after-commit-op is
``post-flush`` (everything durable, only the client ack lost).
"""

from __future__ import annotations

import argparse
import asyncio
import binascii
import functools
import json
import sys
import threading
import time
import traceback
from collections import deque, namedtuple
from concurrent.futures import ThreadPoolExecutor

from repro.engine.locks import LockBlockedError
from repro.errors import ReproError, TransactionAborted
from repro.live import codec
from repro.live.harness import READY_PREFIX
from repro.live.wire import (
    RemoteCallError,
    WireError,
    encode_frame,
    read_frame,
)

#: Returned by a role handler to make the whole process hang forever (the
#: deterministic "wedge" the crash tests SIGKILL through).
WEDGE = object()


class ServerStats:
    """Per-node wire counters, served by every role's ``stats`` op."""

    def __init__(self) -> None:
        self.connections = 0
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.in_flight = 0
        self.in_flight_high_water = 0

    def begin_request(self) -> None:
        self.in_flight += 1
        if self.in_flight > self.in_flight_high_water:
            self.in_flight_high_water = self.in_flight

    def end_request(self) -> None:
        self.in_flight -= 1

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "in_flight_high_water": self.in_flight_high_water,
        }


def _freeze(op: str) -> None:
    """Wedge (on the loop thread): freeze the WHOLE process — a task-level
    wait would let retries on fresh connections be served, and the crash
    point would quietly heal itself before the kill -9 lands."""
    print(f"WEDGED op={op}", file=sys.stderr, flush=True)
    while True:
        time.sleep(3600)


def _error_envelope(exc: Exception, *, unexpected_trace: bool = True) -> dict:
    """The wire error envelope for ``exc`` (same shape on every path)."""
    if isinstance(exc, RemoteCallError):
        return {"ok": False, "error": exc.error,
                "error_type": exc.error_type, "reason": exc.reason}
    if isinstance(exc, TransactionAborted):
        return {"ok": False, "error": str(exc),
                "error_type": "TransactionAborted", "reason": exc.reason}
    if unexpected_trace and not isinstance(exc, ReproError):
        traceback.print_exc(file=sys.stderr)
    return {"ok": False, "error": str(exc), "error_type": type(exc).__name__}


# ---------------------------------------------------------------------------
# certifier-shard role
# ---------------------------------------------------------------------------


def _call(callback, *args) -> None:
    callback(*args)


#: A thread hand-off costs the shard two wake-ups per group and buys
#: decoding the next frames while the disk is busy.  Measured: at the
#: paper's 8 ms disk it pays (``allupdates_fsync8`` p50 17.2 → 16.5 ms); on
#: a container filesystem (fsync 0.15 ms idle, 1-1.5 ms beside the replicas'
#: own logs) it only costs CPU, and half the groups flapped across a 1 ms
#: line.  The line is drawn between the two regimes.
_HANDOFF_WORTH_S = 0.004


class CertifierShardRole:
    """Durable WAL server for one certification shard: the group-commit log
    writer, beside the disk.

    The event loop reads and decodes ``wal_append`` frames and queues their
    batches; whenever the disk is free *everything queued* is written as one
    WAL line with one fsync and the covered batches are acknowledged — under
    load the disk never idles and group size = arrivals per fsync (the
    paper's single log writer).  Where the write runs follows the disk as
    observed: while the previous write took under :data:`_HANDOFF_WORTH_S`
    the loop writes inline, once it has decoded everything it read in this
    pass (what arrived during the previous write rides together); once a
    write outlasts that, a writer thread takes over, so frames keep being
    read and decoded while the disk is busy, and it keeps going until it
    finds nothing queued.  The wedge fault points freeze the whole process
    around the Nth group.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.live.wal import BatchWalFile

        self.shard_id = args.shard_id
        self.wal = BatchWalFile(args.wal or f"{args.name}.wal",
                                fsync_floor_ms=args.fsync_floor_ms)
        self.wedge_before_sync = args.wedge_before_sync
        self.wedge_after_sync = args.wedge_after_sync
        self.append_ops = 0
        self.append_groups = 0
        #: Batches waiting for the disk — ``(seq, payloads, reply future)`` —
        #: and whether somebody (loop or writer thread) is committed to
        #: writing them; both under ``_lock``.
        self._queue: list = []
        self._writing = False
        self._lock = threading.Lock()
        self._slow_disk = False
        self._writer = ThreadPoolExecutor(max_workers=1,
                                          thread_name_prefix="log-writer")
        self.queued_high_water = 0
        self.server_stats = ServerStats()

    def setup_async(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    async def dispatch(self, op: str, payload: dict,
                       loop: asyncio.AbstractEventLoop):
        if op == "wal_append":
            self.append_ops += 1
            return await self._append(
                int(payload["seq"]),
                [binascii.unhexlify(p) for p in payload["payloads"]])
        if op == "wal_read":
            # An empty batch is acknowledged once everything queued ahead of
            # it is on disk: no group is half-written when the file is read.
            await self._append(0, [])
        return self.handle(op, payload)

    def _append(self, seq: int, payloads: list[bytes]) -> asyncio.Future:
        reply = self._loop.create_future()
        with self._lock:
            self._queue.append((seq, payloads, reply))
            self.queued_high_water = max(self.queued_high_water, len(self._queue))
            idle, self._writing = not self._writing, True
        if idle and self._slow_disk:
            self._writer.submit(self._write_queued, self._loop.call_soon_threadsafe)
        elif idle:  # once the frames this loop pass has read are all queued
            self._loop.call_soon(self._write_queued, _call)
        return reply

    def _write_queued(self, deliver) -> None:
        """Write groups until nothing is queued (loop or writer thread);
        ``deliver(callback, *args)`` runs a callback on the loop."""
        while True:
            with self._lock:
                group, self._queue = self._queue, []
                self._writing = bool(group)
            if not group:
                return
            self.append_groups += 1
            if self.append_groups == self.wedge_before_sync:
                # Nothing written: the group is lost with this process; the
                # scheduler still holds it and resends after the restart.
                return self._loop.call_soon_threadsafe(_freeze, "wal_append")
            started = time.perf_counter()
            try:
                result = self.wal.append_group(
                    [(seq, payloads) for seq, payloads, _ in group])
                if any(result):  # a write happened: that is how fast the disk is
                    self._slow_disk = time.perf_counter() - started > _HANDOFF_WORTH_S
            except Exception as exc:  # noqa: BLE001 - answered per batch
                result = exc
            if self.append_groups == self.wedge_after_sync:
                # Durable but unacknowledged: the resends after the restart
                # must be deduplicated by record offset.
                return self._loop.call_soon_threadsafe(_freeze, "wal_append")
            deliver(self._acknowledge, group, result, self.wal.last_seq)

    def _acknowledge(self, group, result, line_seq: int) -> None:
        for index, (_, _, reply) in enumerate(group):
            if reply.done():
                continue  # its connection went away; the resend asks again
            if isinstance(result, Exception):
                reply.set_exception(result)
            else:
                # ``group`` names the fsync that covered this batch (0: none
                # was needed), so the sender can count fsyncs, not batches.
                reply.set_result({"applied": result[index],
                                  "group": line_seq if any(result) else 0})

    def handle(self, op: str, payload: dict):
        if op == "wal_read":
            # Promotion path: a standby scheduler reads back the applied
            # groups to rebuild the certifier (``dispatch`` drained the writer
            # first); its own batches continue the log at ``records``.
            from repro.live.wal import read_wal_batches

            return {
                "last_seq": self.wal.last_seq,
                "records": self.wal.records,
                "batches": [
                    {"seq": batch["seq"],
                     "payloads": [binascii.hexlify(p).decode()
                                  for p in batch["payloads"]]}
                    for batch in read_wal_batches(self.wal.path)
                ],
            }
        if op == "wal_stats":
            return self.wal.stats()
        if op == "stats":
            return {"wal": {**self.wal.stats(),
                            "writer_busy_s": round(self.wal.writer_busy_s, 6),
                            "group_size_histogram": {
                                str(k): v for k, v in sorted(
                                    self.wal.group_sizes.batch_size_histogram.items())},
                            "queued_high_water": self.queued_high_water},
                    "append_ops": self.append_ops,
                    "server": self.server_stats.as_dict()}
        if op == "ping":
            return {"role": "certifier-shard", "shard_id": self.shard_id}
        raise RemoteCallError(op, f"unknown certifier-shard op {op!r}")

    def describe(self) -> dict:
        return {"shard_id": self.shard_id, "wal": str(self.wal.path)}


# ---------------------------------------------------------------------------
# scheduler role
# ---------------------------------------------------------------------------


class _CertifyBatcher:
    """Collects concurrent ``certify`` requests into certification rounds.

    Lives on the event loop; submission parks an ``asyncio`` future, the
    flusher loop cuts rounds by the configured flush policy and *admits*
    each round right here.  Admission never waits for the disk: with a zero
    window a round is whatever the loop has read since the previous one, and
    the grouping into fsyncs happens at the shards.  A future resolves at
    once or when the durable frontier releases its decision
    (:meth:`SchedulerRole._release`).
    """

    def __init__(self, role: "SchedulerRole", loop: asyncio.AbstractEventLoop) -> None:
        from repro.transport import ExplicitFlushPolicy, TimeWindowFlushPolicy

        self._role = role
        self._loop = loop
        self._pending: list[tuple[dict, asyncio.Future]] = []
        self._wake = asyncio.Event()
        self._window_ms = role.batch_window_ms
        if self._window_ms > 0:
            self._policy = TimeWindowFlushPolicy(self._window_ms,
                                                 max_batch=role.batch_max)
        else:
            self._policy = ExplicitFlushPolicy(role.batch_max)
        #: Seconds spent admitting rounds (the rest of wall time the batcher
        #: was waiting for requests to arrive).
        self.busy_s = 0.0
        self._task = loop.create_task(self._run())

    async def submit(self, payload: dict) -> dict:
        future: asyncio.Future = self._loop.create_future()
        self._pending.append((payload, future))
        self._wake.set()
        return await future

    async def _run(self) -> None:
        while True:
            if not self._pending:
                self._wake.clear()
                await self._wake.wait()
            if self._window_ms > 0:
                # Accumulate until the policy fires (window elapsed or batch
                # cap reached) — or until arrivals go quiescent: when every
                # certify the scheduler has read is already in ``pending``
                # and nothing new landed across two polls, waiting out the
                # rest of the window only adds latency, so cut early.
                started = self._loop.time()
                step = max(self._window_ms / 8000.0, 0.00025)
                stable_polls = 0
                last_seen = len(self._pending)
                while not self._policy.should_flush(
                        len(self._pending),
                        (self._loop.time() - started) * 1000.0):
                    await asyncio.sleep(step)
                    pending = len(self._pending)
                    in_flight = (self._role.server_stats.in_flight
                                 - len(self._role._held))  # those are not coming
                    if pending == last_seen and pending >= in_flight:
                        stable_polls += 1
                        if stable_polls >= 2:
                            break
                    else:
                        stable_polls = 0
                    last_seen = pending
            cap = self._policy.max_batch or len(self._pending)
            batch = self._pending[:cap]
            del self._pending[:len(batch)]
            payloads = [payload for payload, _ in batch]
            # Held decisions are released on this loop too: it reads the acks.
            sinks = [functools.partial(_resolve, future) for _, future in batch]
            round_started = self._loop.time()
            try:
                responses = self._role.admit_round(payloads, sinks)
            except Exception as exc:  # noqa: BLE001 - per-round boundary
                responses = [_error_envelope(exc)] * len(batch)
            finally:
                self.busy_s += self._loop.time() - round_started
            for sink, response in zip(sinks, responses):
                if response is not None:  # None: held for the durable frontier
                    sink(response)


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


class SchedulerRole:
    """Certification coordinator + exactly-once table + routing directory."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.core.group_commit import GroupCommitStats
        from repro.middleware.certifier import CertifierConfig
        from repro.middleware.sharded_certifier import ShardedCertifierService

        spec = _load_spec(args)
        cert = spec.get("certifier", {})
        live = spec.get("live", {})
        shards = [_parse_addr(a) for a in (args.shard or [])]
        config = CertifierConfig(
            durability_enabled=cert.get("durability_enabled", True),
            forced_abort_rate=cert.get("forced_abort_rate", 0.0),
            rng_seed=cert.get("rng_seed", 1),
            shards=max(1, len(shards)) if cert.get("shards") is None else cert["shards"],
        )
        if cert.get("gc_headroom_versions") is not None:
            import dataclasses

            config = dataclasses.replace(
                config, gc_headroom_versions=cert["gc_headroom_versions"])
        if len(shards) != config.shards:
            raise SystemExit(
                f"scheduler needs one --shard address per certifier shard "
                f"({config.shards}), got {len(shards)}"
            )
        #: Serialises the (not thread-safe) service between the event loop,
        #: which admits rounds and — reading the shards' acknowledgements —
        #: advances the durable frontier and releases decisions, the service
        #: thread (every other op) and, unpipelined, the WAL devices' reader
        #: threads.
        self.service_lock = threading.RLock()
        self.shard_addrs = shards
        self._loop: asyncio.AbstractEventLoop | None = None
        self.devices = [self._wal_device(i) for i in range(len(shards))]
        self.cert_config = config
        #: Replicated-scheduler mode: shard WAL payloads are full round
        #: entries a standby can rebuild the certifier from (tentpole of the
        #: failover work); off keeps the opaque-marker WAL shape.
        self.replicated = bool(live.get("scheduler_standby", False))
        self.standby = bool(getattr(args, "standby", False))
        #: A standby answers only control-plane ops until promoted; clients
        #: see ``NotPromoted`` errors their retry loop backs off on.
        self.promoted = not self.standby
        self.promotions = 0
        self.last_promotion: dict | None = None
        self.seed_package = None
        if self.standby and not self.replicated:
            raise SystemExit("--standby requires live.scheduler_standby in the spec")
        if self.replicated:
            from repro.live.replicated import LiveReplicatedCertifierService

            self.service = LiveReplicatedCertifierService(
                config, log_devices=list(self.devices))
            if self.standby:
                self._seed_from_primary(getattr(args, "primary", None), config)
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
        self.pipeline = bool(live.get("pipeline", True))
        self.batch_window_ms = float(live.get("certify_batch_window_ms", 0.0))
        self.batch_max = int(live.get("certify_batch_max", 64))
        #: Certification-round size histogram (how many concurrent certifies
        #: shared one round, and with it one WAL fsync per touched shard).
        self.batch_stats = GroupCommitStats()
        #: Seconds spent admitting rounds (decode, certify, encode, ship —
        #: never the disk).
        self.certify_exec_s = 0.0
        #: Every op but ``certify`` runs on this one thread (some block:
        #: promotion, a standby seed), under the service lock.
        self.service_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="scheduler-service")
        #: Decisions waiting for the durable frontier, in admission (= release)
        #: order.
        self._held: deque[_Held] = deque()
        self.held_decisions_high_water = 0
        self._batcher: _CertifyBatcher | None = None
        #: replica name -> server-side writeset subscription.
        self.subscriptions: dict[str, object] = {}
        #: replica name -> (host, port) routing directory.
        self.replica_addrs: dict[str, tuple[str, int]] = {}
        #: Exactly-once transaction table: tx_id -> recorded certify outcome.
        self.tx_table: dict[str, dict] = {}
        self.tx_admits = 0
        self.duplicate_tx_hits = 0
        self.status_queries = 0
        self.server_stats = ServerStats()

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
        from repro.live.replicated import LiveReplicatedCertifierService
        from repro.live.wire import ConnectionLost, WireClient

        if primary is None:
            return
        host, port = _parse_addr(primary)
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
        from repro.live.wal import RemoteWalDevice

        host, port = self.shard_addrs[shard_id]
        device = RemoteWalDevice(host, port, shard_id=shard_id, start_seq=start_seq,
                                 lock=self.service_lock, on_failure=self._stream_failed)
        if self._loop is not None:
            # Pipelined: the event loop reads the acknowledgements itself, so
            # admit → ack → release → response never leaves its thread.
            device.read_on(self._loop)
        return device

    def _promote(self) -> dict:
        """Take over as the certification coordinator (on the service thread).

        Reads every shard's WAL back over the wire, rebuilds the certifier
        through the functional recovery orchestration (completing rounds
        that died mid-flush), durably appends those completion fragments,
        rebuilds the exactly-once transaction table from the entries'
        ``tx_id`` tokens, and only then starts answering data-plane ops.
        New WAL batches continue each shard's log at its record count, so
        the offset-dedupe protecting the dead primary's resends cannot
        swallow them.
        """
        from repro.errors import RecoveryError
        from repro.live.replicated import (
            LiveReplicatedCertifierService,
            decode_entry_payload,
            encode_entry_payload,
            rebuild_from_shard_wals,
        )
        from repro.live.wire import WireClient

        started = time.perf_counter()
        readers = [WireClient(host, port, timeout=5.0, name=f"promote-{shard_id}")
                   for shard_id, (host, port) in enumerate(self.shard_addrs)]
        try:
            with ThreadPoolExecutor(len(readers)) as pool:  # all shards at once
                responses = list(pool.map(
                    lambda reader: reader.call_retrying("wal_read", deadline_s=30.0),
                    readers))
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
            per_shard_entries, config=self.cert_config)
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
        for device in self.devices:  # every shard writes at once ...
            device.ship()
        for device in self.devices:  # ... and all of them are waited for
            device.sync()
        self.service = LiveReplicatedCertifierService.from_recovered_core(
            certifier.core, config=self.cert_config,
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
        return self.last_promotion

    #: Ops a standby answers before promotion — control plane only; every
    #: data-plane op raises ``NotPromoted`` (clients back off and retry).
    _STANDBY_OPS = frozenset({"ping", "stats", "standby_status", "promote",
                              "cluster_info"})

    # -- async plumbing -------------------------------------------------------

    def setup_async(self, loop: asyncio.AbstractEventLoop) -> None:
        if self.pipeline:
            self._batcher = _CertifyBatcher(self, loop)
            self._loop = loop
            for device in self.devices:
                device.read_on(loop)

    async def dispatch(self, op: str, payload: dict,
                       loop: asyncio.AbstractEventLoop):
        if not self.pipeline:
            return self.handle(op, payload)
        if op == "certify" and self._batcher is not None:
            if not self.promoted:
                raise RemoteCallError(op, "standby not promoted",
                                      error_type="NotPromoted")
            return await self._batcher.submit(payload)
        return await loop.run_in_executor(self.service_pool,
                                          self.handle, op, payload)

    # -- request dispatch -----------------------------------------------------

    def handle(self, op: str, payload: dict):
        with self.service_lock:
            return self._handle(op, payload)

    def _handle(self, op: str, payload: dict):
        if not self.promoted and op not in self._STANDBY_OPS:
            raise RemoteCallError(op, "standby not promoted",
                                  error_type="NotPromoted")
        service = self.service
        if op == "certify":  # unpipelined: a round of one, waited for
            released: list = []
            (response,) = self.admit_round([payload], [released.append])
            if response is None:
                service.flush()  # the release runs before the wait returns
                (response,) = released
            return response
        if op == "state_transfer":
            if not self.replicated:
                raise RemoteCallError(op, "scheduler is not in replicated mode")
            return {"package": codec.encode_state_transfer(
                service.export_state_transfer())}
        if op == "standby_status":
            return {"replicated": self.replicated, "standby": self.standby,
                    "promoted": self.promoted, "promotions": self.promotions,
                    "seeded": self.seed_package is not None,
                    "last_promotion": self.last_promotion}
        if op == "promote":
            if self.promoted:
                return {"promoted": True, "already": True,
                        **(self.last_promotion or {})}
            return {"promoted": True, "already": False, **self._promote()}
        if op == "commit_status":
            self.status_queries += 1
            recorded = self.tx_table.get(payload["tx_id"])
            if recorded is None:
                if any(held.tx_id == payload["tx_id"] for held in self._held):
                    raise _not_durable_yet(op)
                return {"known": False}
            return {"known": True, **recorded}
        if op == "hello_replica":
            name = payload["replica"]
            from_version = int(payload.get("from_version", 0))
            previous = self.subscriptions.pop(name, None)
            if previous is not None:
                # A restarted replica re-subscribes under its old name; the
                # dead incarnation's subscription must not pin GC or queue
                # batches nobody will drain.
                service.disconnect_replica(name)
            self.subscriptions[name] = service.subscribe_replica(name, from_version)
            if "host" in payload:
                self.replica_addrs[name] = (payload["host"], int(payload["port"]))
            return {"subscribed_from": from_version}
        if op == "poll_writesets":
            subscription = self.subscriptions.get(payload["replica"])
            if subscription is None:
                raise RemoteCallError(op, f"unknown replica {payload['replica']!r}")
            subscription.advance_to(int(payload.get("advance_to", 0)))
            return {"writesets": [codec.encode_remote_info(i)
                                  for i in subscription.poll_flat()]}
        if op == "flush_propagation":
            service.flush_propagation()
            return {}
        if op == "register_replica":
            service.register_replica(payload["replica"], int(payload.get("version", 0)))
            return {}
        if op == "extend_remote_horizons":
            infos = [codec.decode_remote_info(i) for i in payload["infos"]]
            extended = service.extend_remote_horizons(infos, int(payload["back_to"]))
            return {"infos": [codec.encode_remote_info(i) for i in extended]}
        if op == "replication_horizon":
            return {"horizon": service.replication_horizon()}
        if op == "collect_garbage":
            return {"pruned": service.collect_garbage()}
        if op == "system_version":
            return {"version": service.system_version}
        if op == "cluster_info":
            return {
                "replicas": {n: list(a) for n, a in self.replica_addrs.items()},
                "shards": self.service.config.shards,
            }
        if op == "stats":
            return {
                "service": service.stats(),
                "tx_admits": self.tx_admits,
                "tx_table_size": len(self.tx_table),
                "duplicate_tx_hits": self.duplicate_tx_hits,
                "status_queries": self.status_queries,
                "wal_resent_batches": sum(d.resent_batches for d in self.devices),
                "pipeline": self.pipeline,
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
                    0, self._records_flushed() - service.fsync_count),
                "certify_batching": {
                    "busy_s": round(
                        getattr(self._batcher, "busy_s", 0.0), 6)
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
        if op == "ping":
            return {"role": "scheduler", "version": service.system_version}
        raise RemoteCallError(op, f"unknown scheduler op {op!r}")

    def _records_flushed(self) -> int:
        return self.service.stats_snapshot().flush.records_flushed

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

    def _duplicate_response(self, payload: dict) -> dict:
        # Already decided: answer from the record, never re-admit.  The
        # client protocol resolves committed retries via commit_status
        # before re-executing, so this branch is a safety net, not the
        # primary exactly-once mechanism.
        request = codec.decode_request(payload["request"])
        recorded = self.tx_table[payload["tx_id"]]
        # Reproduce the ORIGINAL response's window: cap at the decision-time
        # system version and drop the transaction's own writeset.  An
        # uncapped fetch could carry a transaction admitted after this one —
        # on the replica, the commit gate finalizes this (earlier-ticket)
        # retry first, and priority-applying that later writeset would abort
        # its still-open engine transaction: a client-visible abort for a
        # commit the certifier admitted.
        # ... and at the release cursor: a later batchmate of the original
        # round may still be waiting for its log write.
        released = self.service.core.propagated_version
        remote = self.service.fetch_remote_writesets(
            request.replica_version, replica=request.origin_replica or None,
            up_to=min(recorded.get("decided_at") or released, released),
            exclude_version=recorded["commit_version"])
        return {
            "result": {
                "decision": "commit" if recorded["committed"] else "abort",
                "tx_commit_version": recorded["commit_version"],
                "remote_writesets": [codec.encode_remote_info(i) for i in remote],
                "forced_abort": recorded.get("forced_abort", False),
                "conflicting_version": recorded.get("conflicting_version"),
            },
            "duplicate": True,
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
        with self.service_lock:
            return self._admit_round(payloads, sinks)

    def _admit_round(self, payloads: list[dict], sinks: list) -> list[dict | None]:
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
                responses[i] = _error_envelope(exc)
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
        for (i, payload), outcome in zip(fresh, outcomes):
            if isinstance(outcome, Exception):
                responses[i] = _error_envelope(outcome, unexpected_trace=False)
                continue
            tx_id = payload.get("tx_id")
            response = {"result": codec.encode_result(outcome), "duplicate": False}
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
                responses[i] = self._duplicate_response(payload)
            elif tx_id in held_before or responses[first_index[tx_id]] is None:
                # Its original is admitted, not yet durable: the sender asks
                # again and is answered from the record the release writes.
                responses[i] = _error_envelope(_not_durable_yet("certify"))
            else:
                # The original in this very round failed before recording an
                # outcome; answer the duplicate identically.
                responses[i] = dict(responses[first_index[tx_id]])
        self.certify_exec_s += time.perf_counter() - exec_started
        if self.certify_rounds == self.wedge_after_certify_round:
            responses = [None if r is None else WEDGE for r in responses]
        return responses

    def _release(self, frontier: int) -> None:
        """The durable frontier moved (service lock held, on whichever thread
        learnt of the write): every held decision it now covers is recorded
        in the exactly-once table and handed to its sink, in admission order.
        Its own fragments being durable is not enough — its remote window
        may name any earlier version on any shard."""
        while self._held and self._held[0].release_at <= frontier:
            held = self._held.popleft()
            self._record_tx(held.tx_id, held.outcome, held.decided_at)
            held.sink(held.response)

    def _stream_failed(self, error: ReproError) -> None:
        """A shard refused a batch (service lock held): its WAL stream is
        dead, the frontier will never move again — fail every held decision
        now instead of leaving its client waiting; ``ship`` fails every
        later round."""
        print(f"scheduler: {error}", file=sys.stderr, flush=True)
        while self._held:
            self._held.popleft().sink(_error_envelope(error))

    def describe(self) -> dict:
        return {"shards": self.service.config.shards,
                "standby": self.standby, "replicated": self.replicated}


# ---------------------------------------------------------------------------
# replica role
# ---------------------------------------------------------------------------


class ReplicaRole:
    """One database replica: engine + transparent proxy + session server."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.core.config import SystemKind
        from repro.engine.database import Database
        from repro.engine.log_device import FileLogDevice
        from repro.engine.table import TableSchema
        from repro.live.client import CommitGate, LiveCertifierClient
        from repro.middleware.client_api import ClientSession
        from repro.middleware.replica import Replica

        spec = _load_spec(args)
        if args.scheduler is None:
            raise SystemExit("replica role requires --scheduler host:port")
        host, port = _parse_addr(args.scheduler)
        live = spec.get("live", {})
        self.name = args.name
        self.pipeline = bool(live.get("pipeline", True))
        self.workers = int(live.get("replica_workers", 8)) if self.pipeline else 1
        self.wedge_before_commit_op = args.wedge_before_commit_op
        self.wedge_after_commit_op = args.wedge_after_commit_op
        self.commit_ops = 0
        # Real file-backed engine WAL: Tashkent-MW replicas run with
        # synchronous commit off (the proxy turns it off), but the append
        # path and group-apply fsync accounting are the real thing.
        device = FileLogDevice(f"{self.name}.engine.wal")
        database = Database(name=self.name, synchronous_commit=True, log_device=device)
        for schema in spec.get("schemas", []):
            database.create_table_from_schema(TableSchema(
                name=schema["name"],
                columns=tuple(schema["columns"]),
                primary_key=schema.get("primary_key", "id"),
            ))
        fallbacks: tuple[tuple[str, int], ...] = ()
        if args.scheduler_standby:
            fallbacks = (_parse_addr(args.scheduler_standby),)
        self.cert_client = LiveCertifierClient(host, port, replica_name=self.name,
                                               pipelined=self.pipeline,
                                               fallbacks=fallbacks)
        #: Replica-wide state lock: every op holds it; a commit releases it
        #: only while its certification round trip is in flight, so commits
        #: overlap on the wire while all local state stays single-threaded.
        self.state_lock = threading.Lock()
        if self.pipeline:
            self.cert_client.enable_concurrent_commits(self.state_lock, CommitGate())
        self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                        thread_name_prefix=f"{self.name}-worker")
        system = SystemKind(spec.get("system", "tashkent-mw"))
        self.replica = Replica(
            self.name,
            database,
            self.cert_client,  # quacks like CertifierService for the proxy
            system=system,
            local_certification=spec.get("local_certification", True),
            eager_pre_certification=spec.get("eager_pre_certification", True),
        )
        self._session_cls = ClientSession
        #: session id -> ClientSession (the unmodified client API object).
        self.sessions: dict[int, object] = {}
        self._next_session = 1
        self.server_stats = ServerStats()

    # -- async plumbing -------------------------------------------------------

    #: Ops that either block on another node (commit certifies over the
    #: wire, refresh pulls writesets) or do heavy table-sized work.  Only
    #: these go to the worker pool; everything else is local micro-work
    #: that is cheaper to run inline than to pay two thread hand-offs for.
    _POOLED_OPS = frozenset({"commit", "refresh", "vacuum", "scan",
                             "dump_table"})

    async def dispatch(self, op: str, payload: dict,
                       loop: asyncio.AbstractEventLoop):
        if not self.pipeline:
            return self.handle(op, payload)
        pooled = op in self._POOLED_OPS or (
            op == "session_batch"
            and any(entry.get("op") in self._POOLED_OPS
                    for entry in payload.get("ops", ())))
        if pooled:
            return await loop.run_in_executor(self._pool, self._locked_handle,
                                              op, payload)
        # Inline on the event loop.  Safe: the state lock is only ever held
        # for local CPU work (a commit releases it across its wire wait), so
        # this acquire cannot stall the loop behind a network round trip.
        return self._locked_handle(op, payload)

    def _locked_handle(self, op: str, payload: dict):
        with self.state_lock:
            return self.handle(op, payload)

    # -- request dispatch -----------------------------------------------------

    def handle(self, op: str, payload: dict):
        if op == "open_session":
            session_id = self._next_session
            self._next_session += 1
            self.sessions[session_id] = self._session_cls(
                self.replica.proxy, client_name=payload.get("client_name", "client"))
            return {"session_id": session_id, "replica": self.name}
        if op == "close_session":
            self.sessions.pop(payload["session_id"], None)
            return {}
        if op in ("begin", "read", "scan", "insert", "update", "delete",
                  "commit", "abort"):
            return self._session_op(op, payload)
        if op == "session_batch":
            return self._session_batch(payload)
        if op == "refresh":
            return {"applied": self.replica.refresh()}
        if op == "vacuum":
            return {"reclaimed": self.replica.vacuum(max_rows=payload.get("max_rows"))}
        if op == "dump_table":
            database = self.replica.database
            table = database.table(payload["table"])
            state = table.snapshot_state(database.current_version)
            return {"state": codec.encode_table_state(state),
                    "version": self.replica.replica_version}
        if op == "tables":
            return {"tables": sorted(self.replica.database.tables)}
        if op == "replica_version":
            return {"version": self.replica.replica_version}
        if op == "stats":
            return {"stats": self.replica.stats_snapshot(),
                    "commit_ops": self.commit_ops,
                    "pipeline": self.pipeline,
                    "workers": self.workers,
                    "certifier_wire": self.cert_client.wire_stats(),
                    "commit_wire_wait_s": self.cert_client.wire_wait_s,
                    "commit_gate_wait_s": self.cert_client.gate_wait_s,
                    "server": self.server_stats.as_dict()}
        if op == "ping":
            return {"role": "replica", "name": self.name,
                    "version": self.replica.replica_version}
        raise RemoteCallError(op, f"unknown replica op {op!r}")

    def _session_batch(self, payload: dict):
        """Execute a fused list of session statements as one frame.

        The driver's :class:`LiveSession` defers resultless statements and
        ships them ahead of the next synchronous one, cutting the per-
        transaction frame count.  Statements run in order; the first failure
        stops the batch and its error envelope is returned in place — the
        same outcome the client would have observed sending the statements
        as individual frames and halting at the error.
        """
        results: list[dict] = []
        for entry in payload["ops"]:
            sub = dict(entry)
            sub_op = sub.pop("op")
            sub["session_id"] = payload["session_id"]
            try:
                result = self._session_op(sub_op, sub)
            except Exception as exc:  # noqa: BLE001 - per-statement boundary
                results.append(_error_envelope(exc))
                break
            if result is WEDGE:
                return WEDGE
            results.append({"ok": True, **(result or {})})
        return {"results": results}

    def _session_op(self, op: str, payload: dict):
        session = self.sessions.get(payload["session_id"])
        if session is None:
            raise RemoteCallError(op, f"unknown session {payload['session_id']}")
        if op == "begin":
            session.begin()
            return {}
        if op == "read":
            row = session.read(payload["table"], payload["key"])
            return {"row": codec.encode_row(row)}
        if op == "scan":
            rows = session.scan(payload["table"])
            return {"rows": [[key, dict(row)] for key, row in rows]}
        if op in ("insert", "update", "delete"):
            try:
                if op == "insert":
                    session.insert(payload["table"], payload["key"],
                                   **payload.get("values", {}))
                elif op == "update":
                    session.update(payload["table"], payload["key"],
                                   **payload.get("values", {}))
                else:
                    session.delete(payload["table"], payload["key"])
            except LockBlockedError as exc:
                # No-wait write-write policy.  The functional/sim stacks park
                # a blocked writer in the lock manager's wait queue, but a
                # live worker thread cannot sit inside the replica state lock
                # waiting for the holder's commit — abort the requester
                # instead (first-updater wins; the loser retries with a fresh
                # transaction, which is how the driver counts it).
                session.abort()
                raise TransactionAborted(str(exc), reason="ww-block") from exc
            return {}
        if op == "abort":
            session.abort()
            return {}
        # commit: the exactly-once tx id rides down to the scheduler with the
        # certification request this commit triggers.
        self.commit_ops += 1
        if (self.wedge_before_commit_op
                and self.commit_ops == self.wedge_before_commit_op):
            # Killed here, the transaction was never certified: the client's
            # status query finds nothing and re-executes — safely, exactly
            # once, because nothing was admitted.
            return WEDGE
        self.cert_client.next_tx_id = payload.get("tx_id")
        try:
            outcome = session.commit()
        finally:
            self.cert_client.next_tx_id = None
            # Release this commit's finalization-order ticket (no-op when the
            # commit was read-only or never reached certification).
            self.cert_client.finish_commit_ticket()
        if (self.wedge_after_commit_op
                and self.commit_ops == self.wedge_after_commit_op):
            # Killed here, the transaction IS committed (admitted, durable,
            # propagated) but the ack never reaches the client: the status
            # query answers "committed" and the client must not re-execute.
            return WEDGE
        return {"outcome": codec.encode_outcome(outcome)}

    def describe(self) -> dict:
        return {"replica": self.name}


# ---------------------------------------------------------------------------
# server plumbing
# ---------------------------------------------------------------------------


def _load_spec(args: argparse.Namespace) -> dict:
    if args.spec is None:
        return {}
    with open(args.spec, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    return host or "127.0.0.1", int(port)


async def _serve(role, args: argparse.Namespace) -> None:
    loop = asyncio.get_running_loop()
    stats: ServerStats = getattr(role, "server_stats", None) or ServerStats()
    role.server_stats = stats
    setup = getattr(role, "setup_async", None)
    if setup is not None:
        setup(loop)
    role_dispatch = getattr(role, "dispatch", None)

    async def handle_connection(reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        stats.connections += 1
        tasks: set[asyncio.Task] = set()

        def account_in(nbytes: int) -> None:
            stats.frames_in += 1
            stats.bytes_in += nbytes

        write_lock = asyncio.Lock()

        async def send(response: dict) -> None:
            data = encode_frame(response)
            async with write_lock:
                writer.write(data)
                await writer.drain()
            stats.frames_out += 1
            stats.bytes_out += len(data)

        async def process(op: str, payload: dict, rid: int | None) -> None:
            stats.begin_request()
            try:
                if role_dispatch is not None:
                    response = await role_dispatch(op, payload, loop)
                else:
                    response = role.handle(op, payload)
            except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
                response = _error_envelope(exc)
            finally:
                stats.end_request()
            if response is WEDGE:
                _freeze(op)
            if isinstance(response, dict) and "ok" not in response:
                response = {"ok": True, **response}
            if rid is not None:
                response = {**response, "rid": rid}
            try:
                await send(response)
            except (ConnectionError, OSError):
                pass  # client went away; its retry path owns recovery

        try:
            while True:
                message = await read_frame(reader, on_bytes=account_in)
                if message is None:
                    break
                op = str(message.pop("op", ""))
                rid = message.pop("rid", None)
                if rid is None:
                    # rid-less frames keep the strict one-in-flight
                    # discipline: answered before the next frame is read.
                    await process(op, message, None)
                else:
                    # Multiplexed: each tagged request is its own task; the
                    # response carries the rid and may overtake others.
                    task = loop.create_task(process(op, message, int(rid)))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError, WireError):
            pass
        finally:
            for task in list(tasks):
                task.cancel()
            writer.close()

    server = await asyncio.start_server(handle_connection, args.host, args.port)
    port = server.sockets[0].getsockname()[1]
    handshake = {
        "role": args.role, "name": args.name, "port": port,
        "host": args.host, "pid": __import__("os").getpid(),
        **role.describe(),
    }
    print(READY_PREFIX + json.dumps(handshake), flush=True)
    async with server:
        await server.serve_forever()


ROLES = {
    "certifier-shard": CertifierShardRole,
    "scheduler": SchedulerRole,
    "replica": ReplicaRole,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.node",
        description="One live-cluster node (certifier shard, scheduler or replica).",
    )
    parser.add_argument("--role", required=True, choices=sorted(ROLES))
    parser.add_argument("--name", default="node")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--advertise-host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 (default) lets the kernel pick; the handshake reports it")
    parser.add_argument("--spec", default=None,
                        help="cluster spec JSON (schemas, system kind, certifier config)")
    parser.add_argument("--wal", default=None, help="WAL file path (certifier-shard)")
    parser.add_argument("--shard-id", type=int, default=0)
    parser.add_argument("--shard", action="append", default=None, metavar="HOST:PORT",
                        help="certifier-shard address (scheduler; repeat per shard)")
    parser.add_argument("--scheduler", default=None, metavar="HOST:PORT")
    parser.add_argument("--standby", action="store_true",
                        help="boot this scheduler as an unpromoted standby "
                             "(requires live.scheduler_standby in the spec)")
    parser.add_argument("--primary", default=None, metavar="HOST:PORT",
                        help="primary scheduler a standby seeds its state "
                             "transfer from (best effort)")
    parser.add_argument("--scheduler-standby", default=None, metavar="HOST:PORT",
                        help="standby scheduler address a replica fails over "
                             "to when the primary stops answering")
    # Deterministic fault points (see module docstring): wedge = stop
    # responding at the Nth op so the harness can land a kill -9 exactly there.
    parser.add_argument("--fsync-floor-ms", type=float, default=0.0,
                        help="wall-clock floor per WAL batch fsync (disk emulation)")
    parser.add_argument("--wedge-before-sync", type=int, default=0)
    parser.add_argument("--wedge-after-sync", type=int, default=0)
    parser.add_argument("--wedge-before-commit-op", type=int, default=0)
    parser.add_argument("--wedge-after-commit-op", type=int, default=0)
    parser.add_argument("--wedge-before-certify-round", type=int, default=0,
                        help="scheduler: wedge before admitting the Nth "
                             "certification round (nothing durable)")
    parser.add_argument("--wedge-after-certify-round", type=int, default=0,
                        help="scheduler: wedge after the Nth round's durable "
                             "flush, before any ack reaches a replica")
    return parser


def main(argv: list[str] | None = None) -> None:
    # Node processes mix an asyncio event loop with service/worker threads;
    # the default 5 ms GIL switch interval lets the loop thread starve a
    # worker that just finished blocking IO (observed: a 0.25 ms WAL round
    # trip ballooning to ~4 ms under load).  1 ms of scheduling granularity
    # keeps cross-thread hand-offs prompt at negligible switching cost.
    sys.setswitchinterval(0.001)
    args = build_parser().parse_args(argv)
    role = ROLES[args.role](args)
    try:
        asyncio.run(_serve(role, args))
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass


if __name__ == "__main__":
    main()
