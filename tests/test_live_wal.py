"""Edge and property coverage for the live shard WAL (`repro/live/wal.py`).

Pure file-level tests: no sockets, no subprocesses.  The interesting
surface is crash replay — a torn final record (kill mid-write: a partial
header, or a checked header whose body is short) must be discarded *and
truncated away*, any other record that does not decode (a length that fails
its check, a CRC-32 mismatch) refused without truncating anything, the
record-offset dedupe must survive restarts, and the test oracle
`read_wal_batches` must agree with the node's own `BatchWalFile._replay` on
every possible torn prefix.  A batch's ``seq`` is the record offset it ends
at; the file's records (one per fsync group) are numbered by the file itself.
"""

from __future__ import annotations

import binascii
import json
import struct
import zlib

import pytest

from repro.errors import RecoveryError
from repro.live.wal import BatchWalFile, encode_record, read_wal_batches


def _write_batches(path, batches):
    with open(path, "wb") as handle:
        for seq, payloads in batches:
            handle.write(encode_record(seq, payloads))


def _group_seqs(path):
    return [batch["seq"] for batch in read_wal_batches(path)]


def _three_groups(tmp_path):
    """A WAL of three fsynced one-record groups, and each record's offset."""
    wal = BatchWalFile(tmp_path / "shard.wal")
    for seq, payload in ((1, b"first"), (2, b"second"), (3, b"third")):
        assert wal.append_batch(seq, [payload])
    wal.close()
    sizes = [len(encode_record(seq, [payload]))
             for seq, payload in ((1, b"first"), (2, b"second"), (3, b"third"))]
    return wal.path, [0, sizes[0], sizes[0] + sizes[1]]


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


def test_duplicate_seq_file_counts_once_per_group(tmp_path):
    # A file that already holds the same group seq twice (a historic
    # double-accept) replays every record and keeps deduping at that offset.
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"a"]), (2, [b"b"]), (2, [b"b"])])
    wal = BatchWalFile(path)
    assert wal.last_seq == 2
    assert (wal.batches, wal.records) == (3, 3)
    assert not wal.append_batch(3, [b"b"])
    assert wal.duplicate_batches_skipped == 1
    assert wal.append_batch(4, [b"c"])
    assert _group_seqs(path)[-1] == 3
    wal.close()


def test_a_group_record_is_a_checked_header_a_seq_and_sized_payloads(tmp_path):
    # The layout the module docstring states, byte for byte: what
    # ``wal_bytes_per_commit`` counts is 10 + 4 bytes per group and 4 bytes
    # per payload beyond the payloads themselves.
    wal = BatchWalFile(tmp_path / "shard.wal")
    wal.append_group([(1, [b"\x00\x00\x00\x3a"]), (3, [b"ab", b""])])
    wal.close()
    raw = wal.path.read_bytes()
    body = struct.pack(">I", 1) + b"".join(
        struct.pack(">I", len(p)) + p for p in (b"\x00\x00\x00\x3a", b"ab", b""))
    length = struct.pack(">I", len(body))
    assert raw == (length + struct.pack(">H", binascii.crc_hqx(length, 0xFFFF))
                   + struct.pack(">I", zlib.crc32(length + body)) + body)
    assert len(raw) == 10 + 4 + 3 * 4 + 6
    assert wal.stats()["bytes"] == len(raw)


def test_torn_tail_truncated_at_every_byte_offset(tmp_path):
    # Crash the write of the final record at every byte boundary — inside
    # its header, then inside its body: replay must keep exactly the intact
    # prefix, truncate the torn bytes, agree with read_wal_batches about what
    # survived, and leave a file the next group appends to cleanly.
    good = [(1, [b"alpha"]), (2, [b"bravo", b"charlie"])]
    torn_record = encode_record(3, [b"delta"])
    for cut in range(1, len(torn_record)):  # cut == len would be intact
        path = tmp_path / f"shard-{cut}.wal"
        _write_batches(path, good)
        intact_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(torn_record[:cut])
        oracle = read_wal_batches(path)
        wal = BatchWalFile(path)
        assert wal.last_seq == 2
        assert wal.batches == 2
        assert [b["seq"] for b in oracle] == [1, 2]
        assert wal.torn_bytes_truncated == cut
        assert path.stat().st_size == intact_size
        assert wal.append_batch(4, [b"echo"])  # the resend of record 4
        wal.close()
        assert [(b["seq"], b["payloads"]) for b in read_wal_batches(path)] == [
            (1, [b"alpha"]), (2, [b"bravo", b"charlie"]), (3, [b"echo"])]


def test_torn_tail_mid_file_double_crash_regression(tmp_path):
    # The double-crash bug: crash 1 leaves a torn record; the restarted node
    # appends new batches after it; crash 2's replay must NOT stop at the
    # stale torn record and drop (or re-accept) the later batches.
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"a"]), (2, [b"b"])])
    with open(path, "ab") as handle:
        handle.write(encode_record(3, [b"c"])[:13])  # crash 1: torn mid-body

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
    # A JSON line — one group as an older build wrote it — is not a record:
    # both readers refuse the file at that line, and nothing is truncated.
    # Alone in the file, or ahead of a record, it is refused at its offset.
    json_line = json.dumps({"seq": 2, "payloads": [b"b".hex()]},
                           separators=(",", ":")).encode() + b"\n"
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"a"])])
    offset = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(json_line)
        handle.write(encode_record(3, [b"c"]))
    old = tmp_path / "old.wal"
    old.write_bytes(json_line * 2)
    for wal_path, at in ((path, offset), (old, 0)):
        before = wal_path.read_bytes()
        for reader in (read_wal_batches, BatchWalFile):
            with pytest.raises(RecoveryError,
                               match=f"{wal_path.name}: corrupt WAL record at byte offset {at} "):
                reader(wal_path)
        assert wal_path.read_bytes() == before


@pytest.mark.parametrize("where, byte", [("length", b"#"), ("crc", b"#"), ("payload", b"g")])
def test_one_bad_byte_mid_file_refuses_and_keeps_the_later_groups(tmp_path, where, byte):
    # Three fsynced one-record groups, one byte of the middle record changed:
    # its length made to point past the end of the file, its CRC-32, or one
    # payload byte ("second" -> "gecond", which a hex-in-JSON line accepted).
    # Taking it for a torn tail would cut the last group, acknowledged long
    # ago, from disk.
    path, offsets = _three_groups(tmp_path)
    middle = offsets[1]
    at = middle + {"length": 0, "crc": 6, "payload": 10 + 4 + 4}[where]
    corrupted = bytearray(path.read_bytes())
    assert corrupted[at:at + 1] != byte
    corrupted[at:at + 1] = byte
    path.write_bytes(bytes(corrupted))
    for reader in (read_wal_batches, BatchWalFile):
        with pytest.raises(RecoveryError, match=f"byte offset {middle} "):
            reader(path)
    assert path.read_bytes() == bytes(corrupted)


@pytest.mark.parametrize("record", ["middle", "last"])
@pytest.mark.parametrize("field, span", [("length", range(0, 4)), ("check", range(4, 6)),
                                         ("crc", range(6, 10)), ("body", range(10, 24))])
def test_every_flipped_bit_is_refused_never_read_as_a_torn_tail(tmp_path, record, field, span):
    # Each bit of each byte of one record, flipped alone: the mid-file
    # record and the last one alike, in the header (length, its check, the
    # CRC-32) or the body (seq, size, payload).  Both readers refuse at that
    # record's offset and the file stays byte-identical — a length flipped
    # to point past the end of the file included.
    path, offsets = _three_groups(tmp_path)
    start = offsets[1] if record == "middle" else offsets[2]
    intact = path.read_bytes()
    for at in span:
        if start + at >= len(intact):
            continue  # "third" is one byte shorter than "second"
        for bit in range(8):
            corrupted = bytearray(intact)
            corrupted[start + at] ^= 1 << bit
            path.write_bytes(bytes(corrupted))
            for reader in (read_wal_batches, BatchWalFile):
                with pytest.raises(RecoveryError, match=f"byte offset {start} "):
                    reader(path)
            assert path.read_bytes() == bytes(corrupted)


def test_append_after_truncation_round_trips_payloads(tmp_path):
    path = tmp_path / "shard.wal"
    _write_batches(path, [(1, [b"keep"])])
    with open(path, "ab") as handle:
        handle.write(encode_record(2, [b"lost"])[:5])  # torn mid-header
    wal = BatchWalFile(path)
    wal.append_batch(3, [b"\x00\xffbinary", b""])  # records 2 and 3
    wal.close()
    batches = read_wal_batches(path)
    assert batches[0]["payloads"] == [b"keep"]
    assert batches[1]["payloads"] == [b"\x00\xffbinary", b""]
    assert _group_seqs(path)[-1] == 2


def test_group_is_one_record_one_fsync_and_dedupes_by_record_offset(tmp_path):
    # Three shipped batches reach the disk together: one record, numbered by
    # the file, holding all their records in order.
    wal = BatchWalFile(tmp_path / "shard.wal")
    assert wal.append_group([(1, [b"a"]), (3, [b"b", b"c"]), (4, [b"d"])]) == [True] * 3
    assert (wal.batches, wal.records, wal.last_seq) == (1, 4, 1)
    # A resend of the tail plus one new batch: only the new record is written,
    # as group 2 — and a resend that rides in the same group as its original
    # (5 twice) is written once.
    assert wal.append_group([(3, [b"b", b"c"]), (4, [b"d"]),
                             (5, [b"e"]), (5, [b"e"])]) == [False, False, True, False]
    assert wal.duplicate_batches_skipped == 3
    assert wal.append_group([(5, [b"e"]), (0, [])]) == [False, False]  # no write
    assert (wal.batches, wal.records) == (2, 5)
    wal.close()
    assert [(b["seq"], b["payloads"]) for b in read_wal_batches(wal.path)] == [
        (1, [b"a", b"b", b"c", b"d"]), (2, [b"e"])]
    reopened = BatchWalFile(wal.path)
    assert reopened.records == 5  # the offset survives a restart
    reopened.close()


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


def test_the_decode_command_prints_one_line_per_group_and_refuses_corruption(tmp_path, capsys):
    from repro.consensus.sharded import ENTRY_GC, ShardLogEntry
    from repro.core.writeset import make_writeset
    from repro.live.cli import main
    from repro.live.replicated import encode_entry_payload

    commit = encode_entry_payload(ShardLogEntry(
        kind="commit", global_version=7, writeset=make_writeset([("t", 1), ("t", 2)]),
        touched=(0, 1), origin_replica="replica-1", certified_back_to=4, tx_id="c:9"))
    gc = encode_entry_payload(ShardLogEntry(kind=ENTRY_GC, global_version=5))
    path = tmp_path / "shard-0.wal"
    _write_batches(path, [(1, [b"\x00\x00\x00\x3a", b"\x00\x00\x00\x10"]), (2, [commit, gc])])
    second = len(encode_record(1, [b"\x00\x00\x00\x3a", b"\x00\x00\x00\x10"]))
    end = path.stat().st_size
    with open(path, "ab") as handle:
        handle.write(encode_record(3, [b"lost"])[:7])

    assert main(["decode", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seq=1 offset=0 records=2 sizes=4,4",
        f"seq=2 offset={second} records=2 sizes={len(commit)},{len(gc)}",
        "  commit v=7 touched=0,1 origin=replica-1 back_to=4 rows=2 tx_id=c:9",
        "  gc v=5 touched= origin=unknown back_to=0 rows=- tx_id=None",
        f"torn tail: 7 bytes at offset {end}",
    ]
    assert path.stat().st_size == end + 7  # decoding truncates nothing

    corrupted = bytearray(path.read_bytes())
    corrupted[second + 20] ^= 0x01  # a byte of the commit entry's JSON
    path.write_bytes(bytes(corrupted))
    assert main(["decode", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["seq=1 offset=0 records=2 sizes=4,4"]
    assert f"corrupt WAL record at byte offset {second} " in captured.err
