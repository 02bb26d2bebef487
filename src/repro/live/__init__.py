"""Live multi-process backend: real nodes, real sockets, real fsyncs, kill -9.

The third executable form of the replicated system (functional | sim |
**live**): one OS process per certifier shard, scheduler and replica,
talking length-prefixed JSON over asyncio TCP, with commit durability gated
on ``os.fsync`` in a separate shard process.  See ``docs/deployment.md``.
"""
