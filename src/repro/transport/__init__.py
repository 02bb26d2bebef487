"""The transport layer: one propagation subsystem for both stacks.

Before this package existed, remote-writeset propagation was hand-rolled
twice — the functional middleware pulled per replica via
``CertifierService.fetch_remote_writesets`` and the simulated cluster had its
own ad-hoc ``fetch_remote`` fragment.  The transport layer replaces both with
a single push-based, batch-oriented pipeline:

* :class:`MessageBus` — timing-free topic pub/sub (delivery timing belongs to
  the caller: inline in the functional stack, network-modeled in the sim);
* :class:`FlushPolicy` and friends — pluggable batching policies (immediate,
  size-capped, time-windowed, explicit/fsync-aligned);
* :class:`WritesetStream` / :class:`WritesetSubscription` — batched
  propagation of certified writesets from the certifier to every replica,
  backed by the shared :class:`~repro.core.group_commit.GroupCommitBatcher`;
* :class:`MergedSubscription` — the replica-side deterministic merge over a
  sharded certifier's per-shard streams, interleaving batches by global
  commit version (see ``docs/certifier.md``), with its producer half
  :func:`publish_frontier` / :func:`subscribe_merged` shared by the
  functional service and the simulated node.

See ``docs/architecture.md`` for the layer diagram and which paper variant
uses which policy.
"""

from repro.transport.bus import BusStats, BusSubscription, Message, MessageBus
from repro.transport.merged import (
    MergedSubscription,
    publish_frontier,
    subscribe_merged,
)
from repro.transport.policy import (
    ExplicitFlushPolicy,
    FlushPolicy,
    ImmediateFlushPolicy,
    SizeCappedFlushPolicy,
    TimeWindowFlushPolicy,
    policy_from_name,
)
from repro.transport.stream import (
    WRITESETS_TOPIC,
    WritesetStream,
    WritesetSubscription,
)

__all__ = [
    "BusStats",
    "BusSubscription",
    "ExplicitFlushPolicy",
    "FlushPolicy",
    "ImmediateFlushPolicy",
    "MergedSubscription",
    "Message",
    "MessageBus",
    "SizeCappedFlushPolicy",
    "TimeWindowFlushPolicy",
    "WRITESETS_TOPIC",
    "WritesetStream",
    "WritesetSubscription",
    "policy_from_name",
    "publish_frontier",
    "subscribe_merged",
]
