"""Compile-and-serve: a concurrent program service over a shared fleet.

The paper models one OpenACC program owning the whole multi-GPU
machine.  This package supplies the "many users" story on top of the
existing pieces: the compiled-program registry (one in-process map
behind ``repro.compile``, optionally over a content-addressed on-disk
store), an
admission/placement scheduler that packs independent programs onto
disjoint GPU-slot subsets of one large modeled fleet (memory-aware
bin-packing over the byte-accounted allocators), and queue/fairness
observability exported through the structured trace subsystem.

Entry points:

* :class:`ProgramService` -- submit :class:`RunRequest` objects from
  any number of threads, collect :class:`RequestRecord` tickets;
* :class:`ProgramRegistry` -- the program store, persistent with a
  directory, also usable on its own via
  ``repro.compile(source, registry=...)``;
* ``python -m repro.serve workload.json`` -- replay a request workload
  file and print the queueing summary (see ``docs/SERVING.md``).
"""

from .registry import ProgramRegistry, RegistryError, registry_key
from .scheduler import (
    AdmissionError,
    FairSharePolicy,
    FifoPolicy,
    FleetState,
    estimate_request_bytes,
    plan_placement,
)
from .service import ProgramService, RequestRecord, RunRequest, ServiceReport
from .workload import (
    WorkloadError,
    fleet_from_spec,
    load_workload,
    run_workload,
)

__all__ = [
    "AdmissionError",
    "FairSharePolicy",
    "FifoPolicy",
    "FleetState",
    "ProgramRegistry",
    "ProgramService",
    "RegistryError",
    "RequestRecord",
    "RunRequest",
    "ServiceReport",
    "WorkloadError",
    "estimate_request_bytes",
    "fleet_from_spec",
    "load_workload",
    "plan_placement",
    "registry_key",
    "run_workload",
]
