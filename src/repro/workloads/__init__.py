"""Workload generators: AllUpdates, TPC-B and TPC-W (shopping mix).

Each workload comes in two forms that share the same parameters:

* a **simulation profile** (:meth:`WorkloadSpec.next_transaction`) used by the
  cluster models — it yields per-transaction CPU costs and synthetic
  writesets whose sizes and conflict structure match the paper's description
  (54 / 158 / 275 byte average writesets, update fractions, hot rows);
* a **functional form** (:meth:`WorkloadSpec.schemas`,
  :meth:`WorkloadSpec.setup`, :meth:`WorkloadSpec.run_transaction`) that runs
  real transactions through the public client API against the real engine,
  used by the examples and the integration tests.
"""

from repro.workloads.spec import TransactionProfile, WorkloadSpec, workload_by_name
from repro.workloads.allupdates import AllUpdatesWorkload
from repro.workloads.tpcb import TPCBWorkload
from repro.workloads.tpcw import TPCWWorkload

#: Module-style aliases so ``from repro import allupdates`` reads naturally.
allupdates = AllUpdatesWorkload
tpcb = TPCBWorkload
tpcw = TPCWWorkload

__all__ = [
    "AllUpdatesWorkload",
    "TPCBWorkload",
    "TPCWWorkload",
    "TransactionProfile",
    "WorkloadSpec",
    "allupdates",
    "tpcb",
    "tpcw",
    "workload_by_name",
]
