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

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.middleware.certifier": ["CertifierService"],
    "repro.middleware.sharded_certifier": ["ShardedCertifierService",
                                           "make_certifier_service"],
    "repro.middleware.proxy": ["CommitOutcome", "ProxyTransaction", "TransparentProxy"],
    "repro.middleware.replica": ["Replica"],
    "repro.middleware.client_api": ["ClientSession"],
    "repro.middleware.systems": ["ReplicatedSystem", "build_base_system",
                                 "build_replicated_system", "build_tashkent_api_system",
                                 "build_tashkent_mw_system"],
})
