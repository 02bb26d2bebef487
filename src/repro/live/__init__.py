"""Live multi-process backend: real nodes, real sockets, real fsyncs, kill -9.

The third executable form of the replicated system (functional | sim |
**live**): one OS process per certifier shard, scheduler and replica,
talking length-prefixed JSON over asyncio TCP, with commit durability gated
on ``os.fsync`` in a separate shard process.  See ``docs/deployment.md``.
"""

from repro.live.client import CommitInDoubt, LiveCertifierClient, LiveSession
from repro.live.cluster import LiveCluster
from repro.live.harness import HarnessError, NodeHandle, ProcessHarness, READY_PREFIX
from repro.live.wire import (
    ConnectionLost,
    FrameTooLarge,
    RemoteCallError,
    WireClient,
    WireError,
)

__all__ = [
    "READY_PREFIX",
    "CommitInDoubt",
    "ConnectionLost",
    "FrameTooLarge",
    "HarnessError",
    "LiveCertifierClient",
    "LiveCluster",
    "LiveSession",
    "NodeHandle",
    "ProcessHarness",
    "RemoteCallError",
    "WireClient",
    "WireError",
]

