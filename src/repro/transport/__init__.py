"""The transport layer: one propagation subsystem for both stacks.

Before this package existed, remote-writeset propagation was hand-rolled
twice — the functional middleware pulled per replica via
``CertifierService.fetch_remote_writesets`` and the simulated cluster had its
own ad-hoc ``fetch_remote`` fragment.  The transport layer replaces both with
a single push-based, batch-oriented pipeline with one rule: a propagation
batch is one fsync group.

* :class:`WritesetStream` / :class:`WritesetSubscription` — batched
  propagation of certified writesets from the certifier to every replica,
  backed by the shared :class:`~repro.core.group_commit.GroupCommitBatcher`;
  delivery timing belongs to the caller (inline in the functional stack,
  network-modeled in the sim);
* :class:`MergedSubscription` — the replica-side deterministic merge over a
  sharded certifier's per-shard streams, interleaving batches by global
  commit version (see ``docs/certifier.md``), with its producer half
  :func:`publish_frontier` / :func:`subscribe_merged` shared by the
  functional service and the simulated node.

See ``docs/architecture.md`` for the layer diagram.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.transport.merged": ["MergedSubscription", "publish_frontier", "subscribe_merged"],
    "repro.transport.stream": ["WritesetStream", "WritesetSubscription"],
})
