"""Tests for Paxos, the replicated log and the replicated certifier."""

import pytest

from repro.consensus.log import ReplicatedLog, ReplicatedLogNode
from repro.consensus.paxos import Acceptor, Ballot, PaxosInstance, Proposer
from repro.consensus.sharded import ReplicatedShardedCertifier, ShardPaxosGroups
from repro.core.certification import CertificationRequest
from repro.core.writeset import make_writeset
from repro.errors import (
    ConfigurationError,
    ConsensusError,
    NotLeaderError,
    QuorumUnavailableError,
)
from repro.recovery.snapshots import bootstrap_group_node


# ----------------------------------------------------------------- single-decree Paxos

def test_single_proposer_reaches_consensus():
    acceptors = [Acceptor(i) for i in range(3)]
    proposer = Proposer(0, acceptors)
    assert proposer.propose("value-A") == "value-A"
    # A later proposer must adopt the already chosen value.
    late = Proposer(1, acceptors)
    assert late.propose("value-B") == "value-A"


def test_paxos_requires_majority_of_acceptors():
    acceptors = [Acceptor(i) for i in range(3)]
    acceptors[0].crash()
    acceptors[1].crash()
    with pytest.raises(QuorumUnavailableError):
        Proposer(0, acceptors).propose("v")


def test_paxos_survives_minority_crash():
    acceptors = [Acceptor(i) for i in range(5)]
    acceptors[0].crash()
    acceptors[1].crash()
    assert Proposer(0, acceptors).propose("v") == "v"


def test_acceptor_promise_blocks_lower_ballots():
    acceptor = Acceptor(0)
    assert acceptor.prepare(Ballot(5, 1)).promised
    assert not acceptor.prepare(Ballot(4, 0)).promised
    assert not acceptor.accept(Ballot(4, 0), "x").accepted
    assert acceptor.accept(Ballot(5, 1), "y").accepted


def test_ballot_total_order():
    assert Ballot(1, 0) < Ballot(1, 1) < Ballot(2, 0)
    assert Ballot(1, 1) <= Ballot(1, 1)
    assert Ballot(3, 2).next_round() == Ballot(4, 2)


def test_paxos_instance_records_the_decision():
    acceptors = [Acceptor(i) for i in range(3)]
    instance = PaxosInstance(acceptors=acceptors)
    assert instance.decide(Proposer(0, acceptors), "v") == "v"
    assert instance.decided
    assert instance.chosen_value == "v"


def test_proposer_needs_acceptors_and_gives_up_after_max_rounds():
    with pytest.raises(ConsensusError):
        Proposer(0, [])
    acceptors = [Acceptor(i) for i in range(3)]
    for acceptor in acceptors:
        acceptor.prepare(Ballot(1000, 9))  # a far higher standing promise
    with pytest.raises(ConsensusError):
        Proposer(0, acceptors).propose("v", max_rounds=3)


# ----------------------------------------------------------------- replicated log

def make_log(n=3):
    nodes = [ReplicatedLogNode(node_id=i) for i in range(n)]
    return ReplicatedLog(nodes), nodes


def test_replicated_log_appends_through_leader_and_replicates():
    log, nodes = make_log()
    assert log.append("a") == 0
    assert log.append("b") == 1
    assert log.chosen_prefix() == ["a", "b"]
    for node in nodes:
        assert node.known_length() == 2


def test_replicated_log_rejects_non_leader_appends():
    log, _ = make_log()
    with pytest.raises(NotLeaderError):
        log.append("x", from_node=2)


def test_replicated_log_requires_quorum():
    log, nodes = make_log()
    nodes[1].crash()
    nodes[2].crash()
    with pytest.raises(QuorumUnavailableError):
        log.append("x")


def test_leader_failure_and_election():
    log, nodes = make_log()
    log.append("a")
    nodes[0].crash()
    assert log.elect_leader() == 1
    assert log.append("b") == 1
    assert log.chosen_prefix() == ["a", "b"]


def test_recovering_node_catches_up_by_state_transfer():
    log, nodes = make_log()
    nodes[2].crash()
    log.append("a")
    log.append("b")
    nodes[2].recover()
    transferred = log.catch_up(nodes[2])
    assert transferred == 2
    assert nodes[2].known_length() == 2


def test_replicated_log_edge_conditions():
    with pytest.raises(ConsensusError):
        ReplicatedLog([])
    log, nodes = make_log()
    for node in nodes:
        node.crash()
    with pytest.raises(QuorumUnavailableError):
        log.elect_leader()
    nodes[0].recover()
    with pytest.raises(QuorumUnavailableError):
        log.catch_up(nodes[0])  # no other up node to transfer from


def test_shard_groups_validate_and_reject_unknown_ids():
    with pytest.raises(ConfigurationError):
        ShardPaxosGroups(0)
    with pytest.raises(ConfigurationError):
        ShardPaxosGroups(1, nodes_per_shard=0)
    groups = ShardPaxosGroups(2, nodes_per_shard=3)
    with pytest.raises(KeyError):
        groups.group(5)
    with pytest.raises(KeyError):
        groups.crash_node(0, 9)
    with pytest.raises(KeyError):
        groups.recover_node(0, 9)
    assert groups.up_count(0) == 3
    groups.crash_node(0, 2)
    assert groups.up_count(0) == 2
    assert groups.recover_node(0, 2) == 0  # nothing appended yet
    assert "shards=2" in repr(groups)


# ----------------------------------------------------------------- replicated certifier
#
# The paper's deployment (Section 7): one certifier, its log replicated by
# one Paxos group of three nodes — ``ReplicatedShardedCertifier`` at one shard.

def paper_certifier():
    return ReplicatedShardedCertifier(1, nodes_per_shard=3)


def certify(certifier, key, start=0):
    return certifier.certify(
        CertificationRequest(tx_start_version=start, writeset=make_writeset([("t", key)]),
                             replica_version=start)
    )


def node_log_length(certifier, node_id):
    return certifier.groups.group(0).nodes[node_id].known_length()


def logs_consistent(certifier):
    """Every up node's log is a prefix of the group's chosen sequence."""
    group = certifier.groups.group(0)
    chosen = group.chosen_prefix()
    for node in group.up_nodes():
        prefix = [entry for entry in node.entries if entry is not None]
        if prefix != chosen[: len(prefix)]:
            return False
    return True


def test_certifier_certifies_and_replicates_to_majority():
    certifier = paper_certifier()
    result = certify(certifier, "a")
    assert result.committed
    assert logs_consistent(certifier)
    assert node_log_length(certifier, 0) == 1
    assert node_log_length(certifier, 1) == 1
    assert certifier.core.durable_version == 1


def test_certifier_makes_progress_with_one_node_down():
    certifier = paper_certifier()
    certifier.groups.crash_node(0, 2)
    assert certify(certifier, "a").committed
    assert certifier.groups.up_count(0) == 2


def test_certifier_refuses_updates_without_majority():
    certifier = paper_certifier()
    certifier.groups.crash_node(0, 1)
    certifier.groups.crash_node(0, 2)
    with pytest.raises(QuorumUnavailableError):
        certify(certifier, "a")
    assert certifier.core.last_version == 0  # refused before any mutation


def test_leader_crash_triggers_election_and_continues():
    certifier = paper_certifier()
    certify(certifier, "a")
    certifier.groups.crash_leader(0)
    result = certify(certifier, "b", start=1)
    assert result.committed
    assert certifier.stats.per_shard[0].leader_changes == 1
    assert logs_consistent(certifier)


def test_recovered_node_catches_up_with_missed_records():
    certifier = paper_certifier()
    certify(certifier, "a")
    certifier.groups.crash_node(0, 2)
    certify(certifier, "b", start=1)
    certify(certifier, "c", start=2)
    report = bootstrap_group_node(certifier.groups, 0, 2)
    assert report.entries_transferred == 2
    assert report.verified and not report.snapshot_installed
    assert certifier.stats.per_shard[0].state_transfers == 1
    assert node_log_length(certifier, 2) == 3
    assert logs_consistent(certifier)


def test_conflicts_still_abort_through_the_group():
    certifier = paper_certifier()
    assert certify(certifier, "x").committed
    assert not certify(certifier, "x").committed
    # Aborted transactions are never replicated.
    assert node_log_length(certifier, 0) == 1
    assert certifier.stats.per_shard[0].appended_records == 1
