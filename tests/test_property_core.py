"""Property-based tests (hypothesis) for the protocol core."""

from hypothesis import given, settings, strategies as st

from repro.core.artificial_conflicts import ArtificialConflictDetector
from repro.core.certification import CertificationRequest, RemoteWriteSetInfo, Certifier
from repro.core.group_commit import GroupCommitBatcher
from repro.core.ordering import CommitSequencer
from repro.core.writeset import make_writeset

# Small alphabets keep conflicts frequent enough to be interesting.
keys = st.integers(min_value=0, max_value=6)
writesets = st.lists(keys, min_size=1, max_size=4).map(
    lambda ks: make_writeset([("t", k) for k in ks])
)


@given(st.lists(writesets, min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_certifier_log_is_always_a_dense_conflict_free_history(batches):
    """Any two writesets committed at overlapping intervals never conflict."""
    certifier = Certifier()
    start_versions = []
    for writeset in batches:
        start = certifier.system_version.version
        result = certifier.certify(
            CertificationRequest(tx_start_version=start, writeset=writeset,
                                 replica_version=start)
        )
        if result.committed:
            start_versions.append((start, result.tx_commit_version, writeset))
    # Commit versions are dense 1..N.
    versions = [v for _, v, _ in start_versions]
    assert versions == list(range(1, len(versions) + 1))
    # No committed writeset conflicts with one committed after its start.
    for start, version, writeset in start_versions:
        for other_start, other_version, other in start_versions:
            if other_version > start and other_version < version:
                assert not writeset.conflicts_with(other) or other_version <= start


@given(st.lists(writesets, min_size=2, max_size=12), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_concurrent_conflicting_writesets_never_both_commit(batch, dup_index):
    """Two transactions with the same start version and overlapping writesets
    cannot both commit."""
    certifier = Certifier()
    start = 0
    outcomes = []
    for writeset in batch:
        result = certifier.certify(
            CertificationRequest(tx_start_version=start, writeset=writeset,
                                 replica_version=start)
        )
        outcomes.append((writeset, result.committed))
    committed = [w for w, ok in outcomes if ok]
    for i, a in enumerate(committed):
        for b in committed[i + 1:]:
            assert not a.conflicts_with(b)


@given(st.lists(writesets, min_size=0, max_size=15), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_remote_writesets_fill_the_gap_exactly(batch, replica_version):
    """The certifier returns exactly the versions in (replica_version, now]."""
    certifier = Certifier()
    for writeset in batch:
        start = certifier.system_version.version
        certifier.certify(CertificationRequest(start, writeset, start))
    system_version = certifier.system_version.version
    replica_version = min(replica_version, system_version)
    remote = certifier.fetch_remote_writesets(replica_version)
    assert [info.commit_version for info in remote] == list(
        range(replica_version + 1, system_version + 1)
    )


@given(st.lists(st.integers(1, 100), min_size=1, max_size=50, unique=True))
@settings(max_examples=80, deadline=None)
def test_sequencer_always_announces_a_prefix_in_order(sequence_numbers):
    """Whatever the durability order, announcements are a dense ordered prefix."""
    announced = []
    sequencer = CommitSequencer()
    dense = sorted(sequence_numbers)
    # Register a dense range 1..n but mark durable in the given arbitrary order.
    n = len(dense)
    for seq in range(1, n + 1):
        sequencer.register(seq, lambda s=seq: announced.append(s))
    order = [1 + (value % n) for value in sequence_numbers]
    seen = set()
    for seq in order:
        if seq in seen:
            continue
        seen.add(seq)
        sequencer.mark_durable(seq)
    for seq in range(1, n + 1):
        if seq not in seen:
            sequencer.mark_durable(seq)
    assert announced == list(range(1, n + 1))


@given(st.lists(st.integers(0, 1000), min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_group_commit_batcher_never_loses_or_duplicates(records):
    """Everything enqueued is flushed exactly once, in order."""
    batcher = GroupCommitBatcher()
    flushed = []
    pending = list(records)
    index = 0
    while index < len(pending) or batcher.has_pending:
        # Enqueue a few, then flush whatever is pending.
        for _ in range(min(3, len(pending) - index)):
            batcher.enqueue(pending[index])
            index += 1
        if batcher.has_pending:
            batcher.take_batch()
            flushed.extend(batcher.complete_batch())
    assert flushed == records
    assert batcher.stats.records_flushed == len(records)


@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=0, max_size=12))
@settings(max_examples=80, deadline=None)
def test_submission_plan_preserves_order_and_conflict_freedom(spec):
    """Within any planned group, no two remote writesets conflict, and the
    overall order of commit versions is preserved."""
    infos = []
    for offset, (key, safe) in enumerate(spec):
        infos.append(
            RemoteWriteSetInfo(
                commit_version=offset + 1,
                writeset=make_writeset([("t", key)]),
                origin_replica="r",
                conflict_free_back_to=0 if safe else offset,
            )
        )
    plan = ArtificialConflictDetector().plan(infos, replica_version=0)
    flattened = [info.commit_version for group in plan.groups for info in group]
    assert flattened == [info.commit_version for info in infos]
    for group in plan.groups:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                assert not a.writeset.conflicts_with(b.writeset)
    assert plan.total_writesets == len(infos)
