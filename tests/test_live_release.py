"""The scheduler's release rule, on a manual-ack fake (no sockets, no processes).

A :class:`~repro.live.scheduler.SchedulerRole` is built as the node process builds
it, then its shard WAL devices are swapped for
:class:`~faults.SplitPhaseDevice` fakes whose acknowledgements the test
delivers by hand.  Admission never waits; what these tests pin is *when* each
thing an admitted round produces becomes visible:

* a commit's response, its exactly-once record (``commit_status``,
  duplicate answers) and its propagation batch — only once the global
  durable frontier covers its version, even when its own shard acknowledged
  long ago (shard A acks v+1 before shard B acks v);
* an abort — at once, unless its remote-writeset window names a version
  that is not durable yet;
* a duplicate ``certify`` of a held transaction — never re-admitted: the
  sender is told to ask again and is answered from the record the release
  writes;
* a shard that *refuses* a batch — every held decision fails at once, and so
  does every later round, instead of waiting for a frontier that is stuck.
"""

from __future__ import annotations

import asyncio

import pytest

from faults import SplitPhaseDevice
from repro.core.certification import CertificationRequest
from repro.core.config import ReplicationConfig
from repro.core.writeset import make_writeset
from repro.live import codec
from repro.live.node import build_parser
from repro.live.scheduler import SchedulerRole, _CertifyBatcher
from repro.live.server import WEDGE, call, write_spec
from repro.live.wire import RemoteCallError

#: What ``commit_status`` says about a held transaction, after the retryable
#: refusal ``call_retrying`` would loop on.
HELD = {"known": False, "held": True}


def make_role(tmp_path, shards: int = 2, extra_args: tuple[str, ...] = (),
              **overrides) -> tuple[SchedulerRole, list[SplitPhaseDevice]]:
    spec = tmp_path / "spec.json"
    write_spec(spec, ReplicationConfig(certifier_shards=shards, **overrides), ())
    argv = ["--role", "scheduler", "--spec", str(spec), *extra_args]
    for index in range(shards):
        argv += ["--shard", f"127.0.0.1:{index + 1}"]  # never dialled
    role = SchedulerRole(build_parser().parse_args(argv))
    devices = [SplitPhaseDevice(manual=True, name=f"shard-{index}")
               for index in range(shards)]
    role.devices = devices
    role.service.devices = list(devices)
    return role, devices


def shard_key(role: SchedulerRole, shard_id: int) -> int:
    partitioner = role.service.core.partitioner
    return next(k for k in range(10_000) if partitioner.shard_of(("t", k)) == shard_id)


def certify_payload(role: SchedulerRole, tx_id: str, keys: list[int], *,
                    start: int | None = None, replica_version: int | None = None,
                    origin: str = "r0") -> dict:
    current = role.service.system_version
    request = CertificationRequest(
        tx_start_version=current if start is None else start,
        writeset=make_writeset([("t", key) for key in keys]),
        replica_version=current if replica_version is None else replica_version,
        origin_replica=origin)
    return {"tx_id": tx_id, "request": codec.encode_request(request)}


class Sinks:
    """Collects released responses per request index, in release order."""

    def __init__(self, count: int) -> None:
        self.released: list[tuple[int, dict]] = []
        self.sinks = [lambda response, index=index: self.released.append((index, response))
                      for index in range(count)]


def admit(role: SchedulerRole, payloads: list[dict]) -> tuple[list, Sinks]:
    sinks = Sinks(len(payloads))
    return role.admit_round(payloads, sinks.sinks), sinks


def status(role: SchedulerRole, tx_id: str) -> dict:
    try:
        return call(role, "commit_status", {"tx_id": tx_id})
    except RemoteCallError as exc:
        assert exc.error_type == "NotDurableYet"
        return HELD


def test_nothing_of_a_commit_is_visible_before_the_frontier_covers_it(tmp_path):
    role, (shard_a, shard_b) = make_role(tmp_path)
    call(role, "hello_replica", {"replica": "r1", "from_version": 0})
    key_a, key_b = shard_key(role, 0), shard_key(role, 1)
    # v1 lives on shard B only, v2 on shard A only.
    responses, sinks = admit(role, [certify_payload(role, "tx-1", [key_b]),
                                    certify_payload(role, "tx-2", [key_a])])
    assert responses == [None, None]  # both held; admission did not wait
    assert role.service.system_version == 2

    def visible() -> tuple:
        return (sinks.released, status(role, "tx-1")["known"], status(role, "tx-2")["known"],
                call(role, "poll_writesets", {"replica": "r1"})["writesets"])

    assert visible() == ([], False, False, [])
    assert status(role, "tx-2") == HELD and status(role, "tx-3") == {"known": False}
    # Shard A acknowledges v2 BEFORE shard B acknowledges v1: v2 is durable on
    # every shard it touches, and still nothing may leave — its remote window
    # names v1.
    shard_a.ack()
    assert role.service.core.is_record_durable(2)
    assert visible() == ([], False, False, [])
    assert len(role._held) == 2
    shard_b.ack()
    assert [index for index, _ in sinks.released] == [0, 1]  # commit order
    assert [r["result"]["tx_commit_version"] for _, r in sinks.released] == [1, 2]
    assert status(role, "tx-1")["committed"] and status(role, "tx-2")["committed"]
    assert role.tx_admits == 2
    assert len(role._held) == 0 and role.held_decisions_high_water == 2
    assert [w["commit_version"] for w in
            call(role, "poll_writesets", {"replica": "r1"})["writesets"]] == [1, 2]


def test_abort_is_released_without_waiting(tmp_path):
    role, (device,) = make_role(tmp_path, shards=1)
    (held,), first = admit(role, [certify_payload(role, "tx-1", [7], origin="r0")])
    assert held is None
    # Same row, stale snapshot, from a replica that is up to date: a conflict
    # whose remote window is empty.  No write is needed, nothing waits.
    (response,), sinks = admit(role, [certify_payload(role, "tx-2", [7], start=0)])
    assert response["result"]["decision"] == "abort"
    assert sinks.released == [] and first.released == []
    assert status(role, "tx-2") == {**status(role, "tx-2"), "known": True, "committed": False}
    assert status(role, "tx-1") == HELD
    device.ack()
    assert [index for index, _ in first.released] == [0]


def test_abort_whose_remote_window_is_not_durable_waits_for_it(tmp_path):
    role, (device,) = make_role(tmp_path, shards=1)
    admit(role, [certify_payload(role, "tx-1", [7], origin="r0")])
    # Replica r1 has not seen v1 and would be handed its writeset with the
    # abort: it must not apply a version that could still be lost.
    (response,), sinks = admit(role, [certify_payload(
        role, "tx-2", [7], start=0, replica_version=0, origin="r1")])
    assert response is None and not status(role, "tx-2")["known"]
    device.ack()
    ((_, released),) = sinks.released
    assert released["result"]["decision"] == "abort"
    assert [w["commit_version"] for w in released["result"]["remote_writesets"]] == [1]
    assert status(role, "tx-2")["known"] and not status(role, "tx-2")["committed"]


def test_duplicate_of_a_held_transaction_is_told_to_ask_again(tmp_path):
    role, (device,) = make_role(tmp_path, shards=1)
    payload = certify_payload(role, "tx-1", [3])
    # The resend lands in the original's own round, and again in a later one,
    # while the original is still held.
    (_, same_round), _ = admit(role, [payload, payload])
    (later,), resend = admit(role, [payload])
    for refusal in (same_round, later):
        assert not refusal["ok"] and refusal["error_type"] == "NotDurableYet"
    assert resend.released == []
    assert role.service.system_version == 1 and len(device.in_flight) == 1  # not re-admitted
    device.ack()
    # Decided: the retry needs no write and is answered from the record at once.
    (again,), _ = admit(role, [payload])
    assert again["duplicate"] and again["result"]["tx_commit_version"] == 1
    assert role.tx_admits == 1 and role.duplicate_tx_hits == 1


def test_a_refused_batch_fails_held_decisions_and_later_rounds_loudly(tmp_path):
    """The real device against a shard that refuses the second batch (as the
    hole check would), its acknowledgements read on the role's loop: nothing
    hangs — ``flush`` ships and returns, the held decision is failed when
    the refusal is read, and the next round's admission raises."""
    from repro.errors import ReproError
    from repro.live.wal import RemoteWalDevice
    from test_live_wire import _MiniServer, _until

    server = _MiniServer(lambda request: (
        {"ok": True, "applied": True, "group": 1} if request["seq"] == 1 else
        {"ok": False, "error": "does not continue the log", "error_type": "ReproError"}))
    role, _ = make_role(tmp_path, shards=1)

    async def scenario():
        device = RemoteWalDevice("127.0.0.1", server.port, on_failure=role._stream_failed)
        device.read_on(asyncio.get_running_loop())
        role.devices = role.service.devices = [device]
        try:
            (response,), first = admit(role, [certify_payload(role, "tx-1", [1])])
            assert response is None
            await _until(lambda: first.released)
            assert [index for index, _ in first.released] == [0]
            (response,), second = admit(role, [certify_payload(role, "tx-2", [2])])
            assert response is None
            assert role.service.flush() == 0  # nothing unshipped; no wait on this loop
            await _until(lambda: second.released)
            ((_, failed),) = second.released
            assert not failed["ok"] and "refused the WAL batch" in failed["error"]
            assert not role._held and status(role, "tx-2") == {"known": False}
            with pytest.raises(ReproError, match="refused the WAL batch"):
                admit(role, [certify_payload(role, "tx-3", [3])])
        finally:
            device.close()

    try:
        asyncio.run(asyncio.wait_for(scenario(), 10.0))
    finally:
        server.stop()


def test_batcher_cuts_parked_requests_into_rounds_of_at_most_certify_batch_max(tmp_path):
    role, (device,) = make_role(tmp_path, shards=1, live_certify_batch_max=8)
    payloads = [certify_payload(role, f"tx-{index}", [index]) for index in range(20)]

    async def scenario() -> list[dict]:
        batcher = _CertifyBatcher(role, asyncio.get_running_loop())
        try:
            # All 20 park before the flusher first runs: one backlog to cut.
            parked = [asyncio.ensure_future(batcher.submit(p)) for p in payloads]
            while not all(future.done() for future in parked):
                await asyncio.sleep(0)
                if device.in_flight:
                    device.ack()
            return [future.result() for future in parked]
        finally:
            batcher._task.cancel()

    responses = asyncio.run(asyncio.wait_for(scenario(), 10.0))
    assert sorted(r["result"]["tx_commit_version"] for r in responses) == list(range(1, 21))
    assert role.batch_stats.batch_size_histogram == {8: 2, 4: 1}
    assert role.batch_stats.largest_batch == 8 and role.certify_rounds == 3


@pytest.mark.parametrize("flag, wedged_at_admit", [
    ("--wedge-before-certify-round", True), ("--wedge-after-certify-round", False)])
def test_certify_round_wedges_keep_their_meaning(tmp_path, flag, wedged_at_admit):
    role, (device,) = make_role(tmp_path, shards=1, extra_args=(flag, "2"))
    admit(role, [certify_payload(role, "tx-1", [1])])
    device.ack()
    (response,), sinks = admit(role, [certify_payload(role, "tx-2", [2])])
    if wedged_at_admit:  # before: nothing admitted, nothing durable
        assert response is WEDGE and role.service.system_version == 1
        assert device.in_flight == []
    else:  # after: durable, unacknowledged — the wedge fires at the release
        assert response is None and sinks.released == []
        device.ack()
        assert sinks.released == [(0, WEDGE)] and status(role, "tx-2")["committed"]
