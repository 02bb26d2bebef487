"""Property-based tests for the MVCC vacuum path.

Three invariants guard the fast-path storage layout:

* **Vacuum equivalence** — an incremental, horizon-clamped vacuum never
  changes what any snapshot at or above the horizon can read.  Two
  databases driven by identical certified writesets — one vacuumed at
  random points with random horizons, one never vacuumed — must stay
  byte-identical at every still-serviceable snapshot.
* **Chain boundedness** — with maintenance running, version chains do not
  grow with history: sustained apply plus vacuum keeps every chain at its
  live suffix.
* **Layout oracle** — the O(1) linked-chain row and the seed's list-based
  row are observationally equivalent under any install/delete/vacuum
  sequence.
"""

from hypothesis import given, settings, strategies as st
from row_oracle import LegacyVersionedRow

from repro.core.writeset import WriteSet
from repro.engine.database import Database
from repro.engine.rows import RowVersion, VersionedRow
from repro.middleware.systems import build_tashkent_mw_system

keys = st.integers(min_value=0, max_value=5)
values = st.integers(min_value=-1000, max_value=1000)
#: (key, value, delete?) — the concrete op is decided against the model
#: state so every generated writeset is valid for the apply path.
ops = st.lists(st.tuples(keys, values, st.booleans()), min_size=1, max_size=40)


def _build_db(name: str) -> Database:
    db = Database(name, synchronous_commit=False)
    db.create_table("kv", ["id", "value"])
    return db


def _writesets(operations) -> list[WriteSet]:
    """Turn abstract ops into a valid writeset-per-commit sequence."""
    present: set[int] = set()
    writesets: list[WriteSet] = []
    for key, value, delete in operations:
        ws = WriteSet()
        if key in present and delete:
            ws.add_delete("kv", key)
            present.discard(key)
        elif key in present:
            ws.add_update("kv", key, value=value)
        else:
            ws.add_insert("kv", key, id=key, value=value)
            present.add(key)
        writesets.append(ws)
    return writesets


@given(
    operations=ops,
    vacuum_points=st.sets(st.integers(min_value=1, max_value=40), max_size=6),
    horizon_lag=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_vacuum_never_changes_reads_at_snapshots_above_the_horizon(
    operations, vacuum_points, horizon_lag
):
    """Reads at every snapshot >= the highest vacuum horizon are identical
    with and without maintenance (the vacuum-on/off equivalence oracle)."""
    vacuumed = _build_db("vacuumed")
    pristine = _build_db("pristine")
    writesets = _writesets(operations)
    highest_horizon = 0
    for index, ws in enumerate(writesets, start=1):
        vacuumed.apply_writeset_batch([(index, ws)])
        pristine.apply_writeset_batch([(index, ws)])
        if index in vacuum_points:
            horizon = max(0, index - horizon_lag)
            vacuumed.vacuum(replication_horizon=horizon)
            # The effective horizon is clamped to the local oldest active
            # snapshot, which with no open transactions is current_version.
            highest_horizon = max(highest_horizon, min(horizon, index))
    current = vacuumed.current_version
    assert current == pristine.current_version
    for snapshot in range(highest_horizon, current + 1):
        assert (
            vacuumed.table("kv").snapshot_state(snapshot)
            == pristine.table("kv").snapshot_state(snapshot)
        ), f"divergence at snapshot {snapshot} (horizon {highest_horizon})"


@given(operations=ops)
@settings(max_examples=40, deadline=None)
def test_maintained_chains_stay_bounded_under_sustained_apply(operations):
    """Vacuuming at the full horizon after every commit keeps every chain at
    exactly its live suffix: length 1, regardless of history length."""
    db = _build_db("bounded")
    for index, ws in enumerate(_writesets(operations), start=1):
        db.apply_writeset_batch([(index, ws)])
        db.vacuum(replication_horizon=index)
    stats = db.mvcc_stats()
    assert stats.max_chain_length <= 1
    assert db.dead_candidate_count() == 0


@given(operations=ops)
@settings(max_examples=40, deadline=None)
def test_candidate_index_covers_every_reclaimable_row(operations):
    """The dead-candidate index is complete: every row with reclaimable
    potential is indexed, so a budgeted vacuum never strands garbage."""
    db = _build_db("candidates")
    for index, ws in enumerate(_writesets(operations), start=1):
        db.apply_writeset_batch([(index, ws)])
    table = db.table("kv")
    reclaimable = {
        key for key, row in table._rows.items() if row.has_reclaimable_potential
    }
    assert reclaimable <= set(table._dead_candidates)
    # ...and therefore an unbudgeted vacuum leaves nothing behind.
    db.vacuum(replication_horizon=db.current_version)
    assert not any(
        row.has_reclaimable_potential for row in table._rows.values()
    )


@st.composite
def row_scripts(draw):
    """A valid install/delete/vacuum script against one row."""
    script = []
    version = 0
    live = False
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        action = draw(st.sampled_from(["install", "delete", "vacuum"]))
        if action == "install":
            version += draw(st.integers(min_value=1, max_value=3))
            script.append(("install", version, draw(values)))
            live = True
        elif action == "delete" and live:
            version += draw(st.integers(min_value=1, max_value=3))
            script.append(("delete", version))
            live = False
        elif action == "vacuum":
            script.append(("vacuum", draw(st.integers(min_value=0, max_value=version + 2))))
    return script, version


@given(row_scripts())
@settings(max_examples=80, deadline=None)
def test_linked_chain_row_matches_legacy_list_row(script_and_max):
    """The O(1) linked-chain layout and the seed's list layout agree on every
    observable: visibility at every snapshot, history, and vacuum counts."""
    script, max_version = script_and_max
    linked = VersionedRow(key=1)
    legacy = LegacyVersionedRow(key=1)
    for step in script:
        if step[0] == "install":
            _, version, value = step
            linked.install(RowVersion(created_version=version, values={"value": value}))
            legacy.install(RowVersion(created_version=version, values={"value": value}))
        elif step[0] == "delete":
            linked.delete(step[1])
            legacy.delete(step[1])
        else:
            assert linked.vacuum(step[1]) == legacy.vacuum(step[1])
        assert list(linked.history()) == list(legacy.history())
        assert linked.version_count() == legacy.version_count()
    for snapshot in range(max_version + 2):
        left = linked.version_for_snapshot(snapshot)
        right = legacy.version_for_snapshot(snapshot)
        assert (left is None) == (right is None)
        if left is not None:
            assert left == right
    latest_linked, latest_legacy = linked.latest(), legacy.latest()
    assert (latest_linked is None) == (latest_legacy is None)
    if latest_linked is not None:
        assert latest_linked == latest_legacy


@given(st.lists(st.tuples(st.integers(0, 1), keys, values), min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_system_maintenance_preserves_replica_consistency(operations):
    """End to end: commits through the proxies, refreshes, a vacuum of every
    replica and certifier GC leave every replica identical and every chain vacuumable to its horizon."""
    system = build_tashkent_mw_system(2, certifier_gc_headroom=0)
    system.create_table("kv", ["id", "value"])
    sessions = [system.session(i, client_name=f"prop-{i}") for i in range(2)]
    model: dict[int, int] = {}
    for replica_index, key, value in operations:
        session = sessions[replica_index]
        session.begin()
        if key in model:
            session.update("kv", key, value=value)
        else:
            session.insert("kv", key, id=key, value=value)
        # Certification can abort a commit from a stale replica (the SI
        # first-committer-wins rule); only committed writes enter the model.
        if session.commit().committed:
            model[key] = value
    system.refresh_all()
    system.vacuum_all()
    system.certifier.collect_garbage()
    assert system.replicas_consistent()
    for replica in system.replicas:
        reader = replica.database.begin()
        for key, value in model.items():
            assert replica.database.read(reader, "kv", key)["value"] == value
        replica.database.commit(reader)
