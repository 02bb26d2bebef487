"""Property tests: indexed certification ≡ the reference linear scan.

The tentpole invariant of the indexed certifier log: for any sequence of
certifications, durability advances, crash truncations and garbage
collections, the indexed conflict check reaches exactly the same decisions
as the seed's linear scan over the full history (for every window that GC
has not discarded — below the horizon the contract is a conservative
abort, which is also asserted).

A lockstep test additionally drives the indexed log and the scanning oracle
of ``tests/certifier_log_oracle.py`` through the same appends, durability
advances, crash truncations, prunes, rebuilds and certification extensions,
and after every operation asks both every query the log answers.
"""

from certifier_log_oracle import ScanCertifierLog
from hypothesis import given, settings, strategies as st

from repro.core.certification import CertificationRequest, Certifier
from repro.core.certifier_log import CertifierLog, LogRecord
from repro.core.config import ReplicationConfig
from repro.core.writeset import make_writeset
from repro.middleware.certifier import CertifierService
from repro.middleware.sharded_certifier import ShardedCertifierService

# A small keyspace keeps both conflicts and re-writes of the same item
# frequent, which is what stresses the per-item version lists.
keys = st.integers(min_value=0, max_value=9)
key_lists = st.lists(keys, min_size=1, max_size=4)


class ReferenceScanCertifier:
    """The seed algorithm: scan every logged record after the snapshot.

    Keeps the *full* history (never pruned), so it can answer windows the
    indexed log has garbage-collected — which is exactly what lets the test
    distinguish "correctly conservative" from "wrong".
    """

    def __init__(self):
        self.history = []  # list of (commit_version, frozenset of item ids)

    @property
    def version(self):
        return self.history[-1][0] if self.history else 0

    def first_conflict(self, item_ids, after_version):
        for version, ids in self.history:
            if version > after_version and ids & item_ids:
                return version
        return None

    def certify(self, item_ids, start_version):
        conflict = self.first_conflict(item_ids, start_version)
        if conflict is not None:
            return conflict
        self.history.append((self.version + 1, frozenset(item_ids)))
        return None

    def truncate_to(self, durable_version):
        self.history = [(v, ids) for v, ids in self.history if v <= durable_version]


ops = st.lists(
    st.one_of(
        st.tuples(st.just("certify"), key_lists, st.floats(0.0, 1.0)),
        st.tuples(st.just("durable"), st.floats(0.0, 1.0)),
        st.tuples(st.just("crash"), st.floats(0.0, 1.0)),
        st.tuples(st.just("gc"), st.floats(0.0, 1.0)),
        st.tuples(st.just("probe"), key_lists, st.floats(0.0, 1.0)),
    ),
    min_size=1,
    max_size=60,
)


def _pick(low, high, fraction):
    """Deterministically map a unit float onto the inclusive range."""
    if high <= low:
        return low
    return low + round((high - low) * fraction)


@given(ops)
@settings(max_examples=120, deadline=None)
def test_indexed_decisions_match_reference_scan(operations):
    log = CertifierLog()
    certifier = Certifier(log)
    reference = ReferenceScanCertifier()

    for op in operations:
        kind = op[0]
        if kind == "certify":
            _, key_list, fraction = op
            writeset = make_writeset([("t", k) for k in key_list])
            # Snapshots are drawn at or above the GC horizon: the low-water
            # protocol guarantees live transactions never start below it.
            start = _pick(log.pruned_version, certifier.system_version.version, fraction)
            result = certifier.certify(CertificationRequest(
                tx_start_version=start,
                writeset=writeset,
                replica_version=certifier.system_version.version,
            ))
            expected_conflict = reference.certify(
                frozenset(writeset.item_ids), start)
            assert result.committed == (expected_conflict is None)
            if expected_conflict is not None:
                assert result.conflicting_version == expected_conflict
            else:
                assert result.tx_commit_version == reference.version
        elif kind == "durable":
            _, fraction = op
            target = _pick(log.durable_version, log.last_version, fraction)
            log.mark_durable(target)
        elif kind == "crash":
            _, fraction = op
            target = _pick(log.durable_version, log.last_version, fraction)
            log.mark_durable(target)
            log.truncate_to_durable()
            reference.truncate_to(target)
            # A crash restarts the certifier over the surviving log.
            certifier = Certifier(log)
            assert certifier.system_version.version == reference.version
        elif kind == "gc":
            _, fraction = op
            target = _pick(log.pruned_version, log.durable_version, fraction)
            log.prune_to(target)
            # Reference keeps full history: GC must not change decisions.
        elif kind == "probe":
            _, key_list, fraction = op
            probe = make_writeset([("t", k) for k in key_list])
            after = _pick(log.pruned_version, log.last_version, fraction)
            assert (log.first_conflicting_version(probe, after)
                    == reference.first_conflict(frozenset(probe.item_ids), after))
            assert log.conflicts(probe, after) == (
                reference.first_conflict(frozenset(probe.item_ids), after) is not None
            )

    # Final sweep: every above-horizon window agrees with the reference;
    # every below-horizon window is conservatively a conflict.
    probe = make_writeset([("t", k) for k in range(10)])
    for after in range(0, log.last_version + 1):
        indexed = log.first_conflicting_version(probe, after)
        if after >= log.pruned_version:
            assert indexed == reference.first_conflict(frozenset(probe.item_ids), after)
        else:
            assert indexed == log.pruned_version
            assert log.conflicts(probe, after)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_gc_and_crash_keep_index_rebuildable(operations):
    """After any op sequence, the live index equals a from-scratch rebuild."""
    log = CertifierLog()
    certifier = Certifier(log)
    for op in operations:
        kind = op[0]
        if kind == "certify" or kind == "probe":
            key_list, fraction = op[1], op[2]
            writeset = make_writeset([("t", k) for k in key_list])
            start = _pick(log.pruned_version, certifier.system_version.version, fraction)
            certifier.certify(CertificationRequest(
                tx_start_version=start,
                writeset=writeset,
                replica_version=certifier.system_version.version,
            ))
        elif kind == "durable":
            log.mark_durable(_pick(log.durable_version, log.last_version, op[1]))
        elif kind == "crash":
            log.mark_durable(_pick(log.durable_version, log.last_version, op[1]))
            log.truncate_to_durable()
            certifier = Certifier(log)
        elif kind == "gc":
            log.prune_to(_pick(log.pruned_version, log.durable_version, op[1]))

    rebuilt = CertifierLog.from_records(log.iter_records(), durable=False)
    assert rebuilt.index_item_count == log.index_item_count
    probe_all = make_writeset([("t", k) for k in range(10)])
    for after in range(log.pruned_version, log.last_version + 1):
        assert (log.first_conflicting_version(probe_all, after)
                == rebuilt.first_conflicting_version(probe_all, after))


# ---------------------------------------------------------------------------
# Every query of the index ≡ the scan oracle, after every operation
# ---------------------------------------------------------------------------

LOCKSTEP_KEYS = 6
lockstep_ops = st.lists(
    st.one_of(
        # append: the writeset's keys and how far back it was certified.
        st.tuples(st.just("append"),
                  st.lists(st.integers(0, LOCKSTEP_KEYS - 1), min_size=1, max_size=3),
                  st.floats(0.0, 1.0)),
        st.tuples(st.just("durable"), st.floats(0.0, 1.0)),
        st.tuples(st.just("crash"), st.floats(0.0, 1.0)),
        st.tuples(st.just("prune"), st.floats(0.0, 1.0)),
        st.tuples(st.just("rebuild"), st.booleans()),
        # extend: which retained record, and how far back to extend it.
        st.tuples(st.just("extend"), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    ),
    min_size=1,
    max_size=40,
)

LOCKSTEP_PROBES = [make_writeset([("t", k)]) for k in range(LOCKSTEP_KEYS)] + [
    make_writeset([("t", 0), ("t", 3)]),
    make_writeset([("t", k) for k in range(LOCKSTEP_KEYS)]),
    make_writeset([("u", 0)]),
]


def _assert_lockstep(log, oracle):
    assert (log.last_version, log.durable_version, log.pruned_version) == (
        oracle.last_version, oracle.durable_version, oracle.pruned_version)
    last = log.last_version
    for after in range(max(0, log.pruned_version - 1), last + 1):
        for probe in LOCKSTEP_PROBES:
            assert log.conflicts(probe, after) == oracle.conflicts(probe, after)
            for up_to in sorted({after, after + 1, after + 2, (after + last) // 2, last}):
                assert (log.conflicts(probe, after, up_to)
                        == oracle.conflicts(probe, after, up_to)), (after, up_to)
            assert (log.first_conflicting_version(probe, after)
                    == oracle.first_conflicting_version(probe, after))
        for key in range(LOCKSTEP_KEYS):
            assert (log.first_writer_version("t", key, after)
                    == oracle.first_writer_version("t", key, after))
    for version in range(log.pruned_version + 1, last + 1):
        assert log.certified_back_to(version) == oracle.certified_back_to(version)


@given(lockstep_ops)
@settings(max_examples=150, deadline=None)
def test_every_index_query_matches_the_scan_oracle_after_every_op(operations):
    log, oracle = CertifierLog(), ScanCertifierLog()
    for op in operations:
        kind = op[0]
        if kind == "append":
            _, keys, fraction = op
            version = log.last_version + 1
            record = LogRecord(version, make_writeset([("t", k) for k in keys]),
                               certified_back_to=_pick(0, version - 1, fraction))
            log.append(record)
            oracle.append(record)
        elif kind == "durable":
            target = _pick(log.durable_version, log.last_version, op[1])
            log.mark_durable(target)
            oracle.mark_durable(target)
        elif kind == "crash":
            target = _pick(log.durable_version, log.last_version, op[1])
            for each in (log, oracle):
                each.mark_durable(target)
                each.truncate_to_durable()
        elif kind == "prune":
            target = _pick(log.pruned_version, log.durable_version, op[1])
            assert log.prune_to(target) == oracle.prune_to(target)
        elif kind == "rebuild":
            # State transfer of the retained suffix, durable or not.
            log = CertifierLog.from_records(log.iter_records(), durable=op[1])
            oracle = ScanCertifierLog.from_records(oracle.iter_records(), durable=op[1])
        elif kind == "extend" and log.retained_count:
            _, which, back = op
            version = _pick(log.pruned_version + 1, log.last_version, which)
            back_to = _pick(0, log.certified_back_to(version), back)
            assert (log.extend_certification(version, back_to)
                    == oracle.extend_certification(version, back_to))
        _assert_lockstep(log, oracle)


# ---------------------------------------------------------------------------
# Sharded certification ≡ the single certifier (decisions and replica state)
# ---------------------------------------------------------------------------
#
# The second tentpole invariant: for any workload, a sharded certifier
# (shards=N, any N) reaches exactly the same commit/abort decisions, assigns
# the same commit versions, and delivers the same version-ordered writeset
# stream to a replica as the seed single-certifier path (shards=1).  The
# workload spans two tables and a small keyspace so writesets routinely
# straddle shards and conflicts are frequent; garbage collection runs at an
# aggressive interval so the pruned-window paths are exercised too.

shard_ops = st.lists(
    st.one_of(
        # certify: items as (table_index, key) pairs + a snapshot-age fraction
        st.tuples(st.just("certify"),
                  st.lists(st.tuples(st.integers(0, 1), keys), min_size=1, max_size=5),
                  st.floats(0.0, 1.0)),
        st.tuples(st.just("poll"), st.just(0)),
        st.tuples(st.just("gc"), st.just(0)),
    ),
    min_size=1,
    max_size=50,
)


def _service_config(**overrides):
    return ReplicationConfig(**{"certifier_gc_headroom": 4, "rng_seed": 7,
                                **overrides})


def _drain(subscription, state, last_seen):
    """Apply a subscription's delivered writesets to a model replica state.

    Asserts global version order on the way (an out-of-order delivery would
    be dropped by the real proxy's watermark filter).  Returns the highest
    version seen.
    """
    for info in subscription.poll_flat():
        assert info.commit_version > last_seen, "delivery out of version order"
        last_seen = info.commit_version
        for item_id in info.writeset.iter_item_ids():
            state[item_id] = info.commit_version
    return last_seen


@given(shard_ops, st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_sharded_certifier_matches_single_decisions_and_replica_state(operations, shards):
    single = CertifierService(_service_config())
    sharded = ShardedCertifierService(_service_config(certifier_shards=shards))

    single_sub = single.subscribe_replica("observer", 0)
    sharded_sub = sharded.subscribe_replica("observer", 0)
    single_state: dict = {}
    sharded_state: dict = {}
    single_seen = sharded_seen = 0

    for op in operations:
        kind = op[0]
        if kind == "certify":
            _, entries, fraction = op
            writeset = make_writeset([(f"t{t}", k) for t, k in entries])
            start = _pick(single.core.log.pruned_version,
                          single.system_version, fraction)
            request = dict(tx_start_version=start,
                           replica_version=single.system_version,
                           origin_replica="client")
            result_single = single.certify(
                CertificationRequest(writeset=writeset, **request))
            result_sharded = sharded.certify(
                CertificationRequest(writeset=writeset, **request))
            assert result_sharded.committed == result_single.committed
            assert result_sharded.tx_commit_version == result_single.tx_commit_version
            assert (result_sharded.conflicting_version
                    == result_single.conflicting_version)
            # The merged in-band remote view matches version for version.
            assert ([i.commit_version for i in result_sharded.remote_writesets]
                    == [i.commit_version for i in result_single.remote_writesets])
        elif kind == "poll":
            single_seen = _drain(single_sub, single_state, single_seen)
            sharded_seen = _drain(sharded_sub, sharded_state, sharded_seen)
            # Feed the observer's watermark so log GC can make progress.
            single.register_replica("observer", single_sub.version)
            sharded.register_replica("observer", sharded_sub.version)
        elif kind == "gc":
            single.collect_garbage()
            sharded.collect_garbage()
        # The sharded GC horizon must track the single one: the snapshot
        # strategy above draws from the single service's window.
        assert sharded.core.pruned_version == single.core.log.pruned_version
        assert sharded.system_version == single.system_version

    # Final drain: both replicas converge to the identical state.
    single_seen = _drain(single_sub, single_state, single_seen)
    sharded_seen = _drain(sharded_sub, sharded_state, sharded_seen)
    assert sharded_seen == single_seen
    assert sharded_state == single_state
    assert sharded.core.stats_snapshot().commits == single.core.commits
    assert sharded.core.stats_snapshot().aborts == single.core.aborts


@given(shard_ops, st.integers(min_value=2, max_value=4),
       st.floats(min_value=0.1, max_value=0.5))
@settings(max_examples=25, deadline=None)
def test_sharded_forced_aborts_match_single(operations, shards, rate):
    """The §9.5 abort-injection knob fires identically on both shapes: the
    chooser is consulted at the same decision points with the same RNG."""
    single = CertifierService(_service_config(forced_abort_rate=rate))
    sharded = ShardedCertifierService(_service_config(forced_abort_rate=rate,
                                                      certifier_shards=shards))
    for op in operations:
        if op[0] != "certify":
            continue
        _, entries, fraction = op
        writeset = make_writeset([(f"t{t}", k) for t, k in entries])
        start = _pick(single.core.log.pruned_version, single.system_version, fraction)
        request = dict(tx_start_version=start,
                       replica_version=single.system_version,
                       origin_replica="client")
        result_single = single.certify(CertificationRequest(writeset=writeset, **request))
        result_sharded = sharded.certify(CertificationRequest(writeset=writeset, **request))
        assert result_sharded.committed == result_single.committed
        assert result_sharded.forced_abort == result_single.forced_abort
        assert result_sharded.tx_commit_version == result_single.tx_commit_version
