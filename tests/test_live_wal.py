"""Edge and property coverage for the live shard WAL (`repro/live/wal.py`).

Pure file-level tests: no sockets, no subprocesses.  The interesting
surface is crash replay — a torn final line (kill mid-write) must be
discarded *and truncated away*, any other unparsable line refused without
truncating anything, the record-offset dedupe must survive restarts, and the
test oracle `read_wal_batches` must agree with the node's own
`BatchWalFile._replay` on every possible torn prefix.  A batch's ``seq``
is the record offset it ends at; the file's lines (one per fsync group) are
numbered by the file itself.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import RecoveryError
from repro.live.wal import BatchWalFile, read_wal_batches


def _write_batches(path, batches):
    with open(path, "wb") as handle:
        for seq, payloads in batches:
            entry = {"seq": seq, "payloads": [p.hex() for p in payloads]}
            handle.write(json.dumps(entry, separators=(",", ":")).encode() + b"\n")


def _wal_lines(path):
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def test_empty_file_replays_to_zero(tmp_path):
    path = tmp_path / "shard.wal"
    path.write_bytes(b"")
    wal = BatchWalFile(path)
    assert wal.last_seq == 0
    assert wal.batches == 0
    assert read_wal_batches(path) == []
    assert wal.append_batch(1, [b"x"])
    wal.close()


def test_missing_file_starts_fresh(tmp_path):
    wal = BatchWalFile(tmp_path / "shard.wal")
    assert wal.last_seq == 0
    assert wal.append_batch(1, [b"a"]) and wal.append_batch(2, [b"b"])
    assert [b["seq"] for b in read_wal_batches(wal.path)] == [1, 2]
    wal.close()


def test_duplicate_seq_file_counts_once_per_line(tmp_path):
    # A file that already holds the same line seq twice (a historic
    # double-accept) replays every record and keeps deduping at that offset.
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"a"]), (2, [b"b"]), (2, [b"b"])])
    wal = BatchWalFile(path)
    assert wal.last_seq == 2
    assert (wal.batches, wal.records) == (3, 3)
    assert not wal.append_batch(3, [b"b"])
    assert wal.duplicate_batches_skipped == 1
    assert wal.append_batch(4, [b"c"])
    assert _wal_lines(path)[-1]["seq"] == 3
    wal.close()


def test_torn_tail_truncated_at_every_byte_offset(tmp_path):
    # Crash the write of the final line at every byte boundary: replay must
    # keep exactly the intact prefix, truncate the torn bytes, and agree
    # with read_wal_batches about what survived.
    good = [(1, [b"alpha"]), (2, [b"bravo", b"charlie"])]
    torn_entry = {"seq": 3, "payloads": [b"delta".hex()]}
    torn_line = json.dumps(torn_entry, separators=(",", ":")).encode() + b"\n"
    for cut in range(len(torn_line)):  # cut == len would be an intact line
        path = tmp_path / f"shard-{cut}.wal"
        _write_batches(path, good)
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(torn_line[:cut])
        oracle = read_wal_batches(path)
        wal = BatchWalFile(path)
        assert wal.last_seq == 2
        assert wal.batches == 2
        assert [b["seq"] for b in oracle] == [1, 2]
        assert wal.torn_bytes_truncated == cut
        assert path.stat().st_size == intact_size
        wal.close()


def test_torn_tail_mid_file_double_crash_regression(tmp_path):
    # The double-crash bug: crash 1 leaves a torn line; the restarted node
    # appends new batches after it; crash 2's replay must NOT stop at the
    # stale torn line and drop (or re-accept) the later batches.
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"a"]), (2, [b"b"])])
    with open(path, "ab") as handle:
        handle.write(b'{"seq":3,"payl')  # crash 1: torn mid-line

    wal = BatchWalFile(path)  # restart 1 truncates the torn tail
    assert wal.last_seq == 2
    assert wal.append_batch(3, [b"c"])
    assert wal.append_batch(4, [b"d"])
    wal.close()  # crash 2 (clean close is the harshest case: file intact)

    wal2 = BatchWalFile(path)  # restart 2 must see everything
    assert wal2.last_seq == 4
    assert wal2.batches == 4
    assert not wal2.append_batch(4, [b"d"])  # duplicate still deduped
    assert [b["seq"] for b in read_wal_batches(path)] == [1, 2, 3, 4]
    wal2.close()


def test_replay_agrees_with_read_wal_batches_on_corrupt_json_line(tmp_path):
    # A non-torn but unparsable line (bit rot) is corruption, not a crash:
    # both readers refuse the file at that line, and nothing is truncated —
    # the group after it was fsynced and acknowledged.
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"a"])])
    offset = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(b"this is not json\n")
        handle.write(
            json.dumps({"seq": 2, "payloads": [b"b".hex()]},
                       separators=(",", ":")).encode() + b"\n")
    before = path.read_bytes()
    for reader in (read_wal_batches, BatchWalFile):
        with pytest.raises(RecoveryError, match=f"shard.wal: corrupt WAL line at byte offset {offset}"):
            reader(path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("where, byte", [("brace", b"#"), ("payload", b"g")])
def test_one_bad_byte_mid_file_refuses_and_keeps_the_later_groups(tmp_path, where, byte):
    # Three fsynced one-record groups, one byte of the middle line made
    # unparsable (its opening brace, or a payload digit turned non-hex):
    # taking it for a torn tail would cut both later groups, acknowledged
    # long ago, from disk.
    wal = BatchWalFile(tmp_path / "shard.wal")
    for seq, payload in ((1, b"first"), (2, b"second"), (3, b"third")):
        assert wal.append_batch(seq, [payload])
    wal.close()
    lines = wal.path.read_bytes().splitlines(keepends=True)
    middle = len(lines[0])
    at = middle if where == "brace" else middle + lines[1].index(b'["') + 2
    corrupted = bytearray(wal.path.read_bytes())
    corrupted[at:at + 1] = byte
    wal.path.write_bytes(bytes(corrupted))
    for reader in (read_wal_batches, BatchWalFile):
        with pytest.raises(RecoveryError, match=f"byte offset {middle};"):
            reader(wal.path)
    assert wal.path.read_bytes() == bytes(corrupted)


def test_append_after_truncation_round_trips_payloads(tmp_path):
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"keep"])])
    with open(path, "ab") as handle:
        handle.write(b'{"seq":2,"pa')
    wal = BatchWalFile(path)
    wal.append_batch(3, [b"\x00\xffbinary", b""])  # records 2 and 3
    wal.close()
    batches = read_wal_batches(path)
    assert batches[0]["payloads"] == [b"keep"]
    assert batches[1]["payloads"] == [b"\x00\xffbinary", b""]
    assert _wal_lines(path)[-1]["seq"] == 2


def test_group_is_one_line_one_fsync_and_dedupes_by_record_offset(tmp_path):
    # Three shipped batches reach the disk together: one line, numbered by
    # the file, holding all their records in order.
    wal = BatchWalFile(tmp_path / "shard.wal")
    assert wal.append_group([(1, [b"a"]), (3, [b"b", b"c"]), (4, [b"d"])]) == [True] * 3
    assert (wal.batches, wal.records, wal.last_seq) == (1, 4, 1)
    # A resend of the tail plus one new batch: only the new record is written,
    # as line 2 — and a resend that rides in the same group as its original
    # (5 twice) is written once.
    assert wal.append_group([(3, [b"b", b"c"]), (4, [b"d"]),
                             (5, [b"e"]), (5, [b"e"])]) == [False, False, True, False]
    assert wal.duplicate_batches_skipped == 3
    assert wal.append_group([(5, [b"e"]), (0, [])]) == [False, False]  # no write
    assert (wal.batches, wal.records) == (2, 5)
    wal.close()
    assert [(b["seq"], b["payloads"]) for b in read_wal_batches(wal.path)] == [
        (1, [b"a", b"b", b"c", b"d"]), (2, [b"e"])]
    assert BatchWalFile(wal.path).records == 5  # the offset survives a restart


def test_group_that_would_leave_a_hole_is_refused_whole(tmp_path):
    from repro.errors import ReproError

    wal = BatchWalFile(tmp_path / "shard.wal")
    wal.append_batch(1, [b"a"])
    with pytest.raises(ReproError, match="does not continue"):
        wal.append_group([(2, [b"b"]), (9, [b"lost-some"])])
    assert (wal.batches, wal.records) == (1, 1)  # nothing of the group landed
    wal.close()


def test_every_group_takes_a_full_floor_from_when_it_reached_the_disk(tmp_path):
    # The floor's contract: no group — back to back with the previous one or
    # not — completes less than ``fsync_floor_ms`` after it was handed over.
    import time

    floor = 0.02
    wal = BatchWalFile(tmp_path / "shard.wal", fsync_floor_ms=floor * 1000.0)
    for seq in (1, 2, 3):
        started = time.perf_counter()
        wal.append_group([(seq, [b"x"])])
        assert time.perf_counter() - started >= floor
    assert wal.writer_busy_s >= 3 * floor
    started = time.perf_counter()
    wal.append_group([(3, [b"x"])])  # a resend: no write, so no floor either
    assert time.perf_counter() - started < floor
    wal.close()
