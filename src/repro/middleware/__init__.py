"""The replication middleware: transparent proxy + certifier.

This package implements the functional (non-simulated) replicated system:
real :class:`~repro.engine.database.Database` instances fronted by
transparent proxies, talking to a certifier service.  The three system
variants of the paper — Base, Tashkent-MW and Tashkent-API — differ only in
where durability lives and in whether the proxy can pass the global commit
order to the database; everything else is shared.

Clients are pinned to one replica (``ReplicatedSystem.session``, the paper's
static assignment).  The certifier front-end is either the paper's
single :class:`CertifierService` or, with ``certifier_shards > 1``, the
:class:`ShardedCertifierService` (``docs/certifier.md``).  The layer map is
in ``docs/architecture.md``.
"""

from repro.middleware.certifier import CertifierService
from repro.middleware.sharded_certifier import (
    ShardedCertifierService,
    make_certifier_service,
)
from repro.middleware.proxy import CommitOutcome, ProxyTransaction, TransparentProxy
from repro.middleware.replica import Replica
from repro.middleware.client_api import ClientSession
from repro.middleware.systems import (
    ReplicatedSystem,
    build_base_system,
    build_replicated_system,
    build_tashkent_api_system,
    build_tashkent_mw_system,
)

__all__ = [
    "CertifierService",
    "ClientSession",
    "CommitOutcome",
    "ProxyTransaction",
    "Replica",
    "ReplicatedSystem",
    "ShardedCertifierService",
    "TransparentProxy",
    "build_base_system",
    "make_certifier_service",
    "build_replicated_system",
    "build_tashkent_api_system",
    "build_tashkent_mw_system",
]
