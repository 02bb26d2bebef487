"""Output checks: what must hold after a run for its numbers to mean anything.

Every function returns a list of violation strings (empty = correct).  The
inputs are plain table states — ``{table: {key: row}}`` per replica — so the
same checks serve the live cluster (``dump_table`` over the wire) and the
in-process functional stack.
"""

from __future__ import annotations

from pathlib import Path

TableStates = dict[str, dict[object, dict[str, object]]]


def replicas_equal(replicas: list[TableStates]) -> list[str]:
    """After a refresh, every replica holds the same rows in every table."""
    reference = replicas[0]
    return [f"replica {index} differs from replica 0 in table {table!r}"
            for index, state in enumerate(replicas[1:], start=1)
            for table in reference if state.get(table) != reference[table]]


def _total(rows: dict[object, dict[str, object]], column: str) -> int:
    return sum(int(row[column]) for row in rows.values())


def allupdates(state: TableStates, update_commits: int) -> list[str]:
    """Exactly-once, nothing lost: every acknowledged commit added exactly 1."""
    total = _total(state["counters"], "value")
    if total != update_commits:
        return [f"sum(counters.value) = {total}, acknowledged commits = {update_commits}"]
    return []


def tpcb(state: TableStates, update_commits: int) -> list[str]:
    """The TPC-B invariant: all four tables moved by the same total."""
    totals = {
        "branches": _total(state["branches"], "balance"),
        "tellers": _total(state["tellers"], "balance"),
        "accounts": _total(state["accounts"], "balance"),
        "history": _total(state["history"], "delta"),
    }
    problems = []
    if len(set(totals.values())) != 1:
        problems.append(f"TPC-B balances disagree: {totals}")
    if len(state["history"]) != update_commits:
        problems.append(f"history rows = {len(state['history'])}, "
                        f"acknowledged commits = {update_commits}")
    return problems


def tpcw(state: TableStates, update_commits: int) -> list[str]:
    """Every acknowledged buy left exactly one order with one line."""
    problems = []
    for table in ("orders", "order_line"):
        if len(state[table]) != update_commits:
            problems.append(f"{table} rows = {len(state[table])}, "
                            f"acknowledged buys = {update_commits}")
    return problems


BY_GENERATOR = {"allupdates": allupdates, "tpcb": tpcb, "tpcw": tpcw}


def wal_durability(wal_paths: list[Path], acknowledged: int) -> list[str]:
    """From the shard WAL files alone, after ``kill -9`` of every node.

    Each committed update transaction leaves one record on every shard its
    writeset touches, so the files must hold at least one record per
    acknowledged commit — and, with a single shard, exactly one (nothing
    admitted twice).  Batch sequence numbers must be gapless from 1: a hole
    would be an fsynced batch that vanished.  ``kill -9`` keeps the OS page
    cache, so this checks that no commit was acknowledged before its fsync
    returned, not that the bytes would survive power loss.
    """
    from repro.live.wal import read_wal_batches

    problems = []
    records = 0
    for path in wal_paths:
        batches = read_wal_batches(path)
        records += sum(len(batch["payloads"]) for batch in batches)
        sequence = [batch["seq"] for batch in batches]
        if sequence != list(range(1, len(sequence) + 1)):
            problems.append(f"{path.name}: batch sequence numbers are not 1..{len(sequence)}")
    if records < acknowledged or (len(wal_paths) == 1 and records != acknowledged):
        problems.append(f"shard WALs hold {records} records for "
                        f"{acknowledged} acknowledged commits")
    return problems
