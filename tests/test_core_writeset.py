"""Unit tests for writesets and their intersection semantics."""

from repro.core.writeset import WriteItem, WriteOp, WriteSet, make_writeset


def test_empty_writeset_is_readonly_marker():
    writeset = WriteSet()
    assert writeset.is_empty()
    assert not writeset
    assert len(writeset) == 0
    assert writeset.size_bytes() == 0


def test_add_update_insert_delete_are_recorded_in_order():
    writeset = WriteSet()
    writeset.add_insert("accounts", 1, balance=100)
    writeset.add_update("accounts", 2, balance=50)
    writeset.add_delete("accounts", 3)
    ops = [item.op for item in writeset]
    assert ops == [WriteOp.INSERT, WriteOp.UPDATE, WriteOp.DELETE]
    assert len(writeset) == 3
    assert not writeset.is_empty()


def test_conflict_detection_requires_shared_item():
    a = make_writeset([("accounts", 1), ("accounts", 2)])
    b = make_writeset([("accounts", 3)])
    c = make_writeset([("accounts", 2), ("tellers", 9)])
    assert not a.conflicts_with(b)
    assert a.conflicts_with(c)
    assert c.conflicts_with(a)  # symmetric
    assert a.conflicting_items(c) == frozenset({("accounts", 2)})


def test_same_key_different_table_does_not_conflict():
    a = make_writeset([("accounts", 1)])
    b = make_writeset([("tellers", 1)])
    assert not a.conflicts_with(b)


def test_union_groups_remote_writesets():
    a = make_writeset([("t", 1)])
    b = make_writeset([("t", 2)])
    c = make_writeset([("t", 3)])
    grouped = WriteSet.union([a, b, c])
    assert len(grouped) == 3
    assert grouped.item_ids == frozenset({("t", 1), ("t", 2), ("t", 3)})


def test_touches_and_tables():
    writeset = WriteSet()
    writeset.add_update("branches", 7, balance=1)
    writeset.add_insert("history", "h-1", delta=1)
    assert writeset.touches("branches", 7)
    assert not writeset.touches("branches", 8)
    assert writeset.tables() == frozenset({"branches", "history"})


def test_size_bytes_grows_with_values():
    small = WriteSet()
    small.add_update("t", 1, v=1)
    large = WriteSet()
    large.add_update("t", 1, v="x" * 500)
    assert large.size_bytes() > small.size_bytes() > 0


def test_write_item_identity_and_size():
    item = WriteItem(table="accounts", key=42, op=WriteOp.UPDATE, values={"balance": 7})
    assert item.item_id == ("accounts", 42)
    assert item.size_bytes() > 0


def test_writeset_equality_and_repr():
    a = make_writeset([("t", 1), ("t", 2)])
    b = make_writeset([("t", 1), ("t", 2)])
    c = make_writeset([("t", 2), ("t", 1)])
    assert a == b
    assert a != c  # order matters for replay
    assert "WriteSet" in repr(a)


def test_merge_preserves_order_and_identity():
    a = make_writeset([("t", 1)])
    b = make_writeset([("t", 2), ("t", 1)])
    a.merge(b)
    assert [item.key for item in a] == [1, 2, 1]
    assert a.item_ids == frozenset({("t", 1), ("t", 2)})


def test_write_item_is_hashable_despite_dict_values():
    # Regression: the generated dataclass hash included the ``values`` dict
    # and raised TypeError on any item with column values.
    item = WriteItem(table="accounts", key=1, op=WriteOp.UPDATE, values={"balance": 7})
    other = WriteItem(table="accounts", key=1, op=WriteOp.UPDATE, values={"balance": 9})
    assert hash(item) == hash(other)  # hash ignores values
    assert item != other  # equality still sees them
    assert len({item, WriteItem(table="accounts", key=2)}) == 2


def test_item_ids_are_interned_across_writesets():
    a = WriteItem(table="accounts", key=42)
    b = WriteItem(table="accounts", key=42, op=WriteOp.DELETE)
    assert a.item_id is b.item_id  # shared tuple, not just equal


def test_intern_cache_resets_at_cap_and_keeps_interning():
    from repro.core import writeset as ws_mod

    original_max = ws_mod._ITEM_ID_CACHE_MAX
    ws_mod.clear_intern_cache()
    ws_mod._ITEM_ID_CACHE_MAX = 8
    try:
        for k in range(20):  # flood well past the cap
            ws_mod.intern_item_id("flood", k)
        assert ws_mod.intern_cache_size() <= 8  # bounded, not frozen
        # Hot identities created after the flood still intern (epoch reset).
        a = ws_mod.intern_item_id("hot", "row")
        b = ws_mod.intern_item_id("hot", "row")
        assert a is b
    finally:
        ws_mod._ITEM_ID_CACHE_MAX = original_max
        ws_mod.clear_intern_cache()


def test_unhashable_key_still_builds_an_item_id():
    item = WriteItem(table="t", key=["not", "hashable"])
    assert item.item_id == ("t", ["not", "hashable"])


def test_size_bytes_cache_invalidated_on_add():
    writeset = WriteSet()
    assert writeset.size_bytes() == 0
    writeset.add_update("t", 1, v="x" * 100)
    first = writeset.size_bytes()
    assert first > 100
    assert writeset.size_bytes() == first  # cached, same answer
    writeset.add_update("t", 2, v="y" * 100)
    assert writeset.size_bytes() > first  # cache invalidated by add


def test_iter_item_ids_matches_item_ids():
    writeset = make_writeset([("t", 1), ("t", 2), ("t", 1)])
    assert set(writeset.iter_item_ids()) == set(writeset.item_ids)
    assert writeset.distinct_item_count() == 2
