"""The concurrent program service: compile-and-serve over one fleet.

:class:`ProgramService` accepts many concurrent
:class:`RunRequest` submissions, compiles each through its
:class:`~repro.serve.registry.ProgramRegistry` (the process's
memory-only store when it is given none), and runs admitted requests
on disjoint GPU-slot subsets carved from one shared modeled fleet
(:meth:`~repro.vcuda.specs.MachineSpec.subset`).  Placement and
ordering live in :mod:`repro.serve.scheduler`; this module owns the
threads, the queue, and the observability.

Observability rides the PR 4 trace subsystem: the service keeps a
:class:`~repro.trace.Tracer` whose event log receives one instant per
request-lifecycle transition (``req_enqueued`` / ``req_admitted`` /
``req_placed`` / ``req_completed`` -- plus ``req_rejected`` and
``req_failed``), timestamped with wall seconds since service start,
and whose metrics registry accumulates queue-wait and occupancy
counters.  ``repro.trace.jsonl(service.tracer)`` and
``chrome_trace(service.tracer)`` export it like any traced run.

Isolation argument, in one place: a :class:`CompiledProgram` is
immutable at run time (the runtime copies per-loop state into its own
structures -- the same property that lets the program store share one
program across callers), every run builds its own
``Platform``/loader/executor, and the fleet hands each admitted
request a disjoint slot subset, so N service
threads produce bit-identical results to the same programs run
serially; ``tests/test_serve_service.py`` pins this with the
determinism-matrix comparison harness.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..api import AccProgram, ProgramRun
from ..runtime.config import RunConfig
from ..trace import Tracer
from ..trace.events import (
    EVENT_REQ_ADMITTED,
    EVENT_REQ_COMPLETED,
    EVENT_REQ_ENQUEUED,
    EVENT_REQ_FAILED,
    EVENT_REQ_PLACED,
    EVENT_REQ_REJECTED,
)
from ..translator.compiler import CompileOptions
from ..vcuda.specs import ClusterSpec, MachineSpec
from . import registry as store
from .registry import ProgramRegistry
from .scheduler import (
    AdmissionError,
    FleetState,
    QueueEntry,
    estimate_request_bytes,
    make_policy,
    plan_placement,
)


@dataclass
class RunRequest:
    """One compile-and-run request against the shared fleet."""

    source: str
    entry: str
    args: dict[str, Any]
    options: CompileOptions | None = None
    ngpus: int = 1
    tenant: str = "default"
    #: Per-GPU device-byte admission estimate; ``None`` derives the
    #: replica worst case from the argument arrays
    #: (:func:`~repro.serve.scheduler.estimate_request_bytes`).
    bytes_per_gpu: int | None = None
    #: The run's flags (:class:`~repro.runtime.config.RunConfig`);
    #: ``None`` runs with the defaults.
    config: RunConfig | None = None
    #: Optional caller-chosen label (defaults to an assigned id).
    label: str | None = None


@dataclass
class RequestRecord:
    """Lifecycle + outcome of one submitted request (ticket)."""

    request_id: str
    request: RunRequest
    bytes_per_gpu: int = 0
    #: Wall seconds since service start, per transition.
    enqueued_at: float = 0.0
    admitted_at: float | None = None
    completed_at: float | None = None
    slots: list[int] = field(default_factory=list)
    #: How compilation was satisfied: hit_memory / hit_disk / compiled.
    compile_outcome: str | None = None
    run: ProgramRun | None = None
    error: BaseException | None = None
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)

    @property
    def wait_seconds(self) -> float | None:
        """Queue wait: enqueue to admission."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.enqueued_at

    @property
    def service_seconds(self) -> float | None:
        """Admission to completion (compile + run wall time)."""
        if self.admitted_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.admitted_at

    def result(self, timeout: float | None = None) -> ProgramRun:
        """Block until the request finishes; re-raise its failure."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done after {timeout}s")
        if self.error is not None:
            raise self.error
        assert self.run is not None
        return self.run

    def done(self) -> bool:
        return self._done.is_set()


@dataclass
class ServiceReport:
    """Aggregate queueing/fairness numbers for one service lifetime."""

    fleet: str
    fleet_gpus: int
    policy: str
    submitted: int
    completed: int
    failed: int
    rejected: int
    wall_seconds: float
    #: Queue-wait stats over admitted requests (wall seconds).
    wait_mean: float
    wait_max: float
    #: Time-averaged busy-slot fraction: busy slot-seconds divided by
    #: (fleet slots x wall seconds).
    utilization: float
    #: Highest number of concurrently placed requests observed.
    peak_concurrency: int
    per_tenant_completed: dict[str, int]
    compile_outcomes: dict[str, int]
    registry_stats: dict[str, int]

    def summary(self) -> str:
        lines = [
            f"fleet: {self.fleet} ({self.fleet_gpus} GPUs), "
            f"policy: {self.policy}",
            f"requests: {self.submitted} submitted, "
            f"{self.completed} completed, {self.failed} failed, "
            f"{self.rejected} rejected",
            f"wall time: {self.wall_seconds:.3f}s, fleet utilization: "
            f"{self.utilization:.1%}, peak concurrency: "
            f"{self.peak_concurrency}",
            f"queue wait: mean {self.wait_mean * 1e3:.1f}ms, "
            f"max {self.wait_max * 1e3:.1f}ms",
            "completed per tenant: " + ", ".join(
                f"{t}={n}" for t, n in sorted(
                    self.per_tenant_completed.items())),
            "compile outcomes: " + (", ".join(
                f"{k}={n}" for k, n in sorted(self.compile_outcomes.items()))
                or "(none)"),
            "registry: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.registry_stats.items())),
        ]
        return "\n".join(lines)


class ProgramService:
    """Admission queue + worker threads over one shared modeled fleet.

    ``submit`` never blocks on fleet capacity: requests the idle fleet
    could host queue until slots free up; requests it could never host
    are rejected immediately with a structured
    :class:`~repro.serve.scheduler.AdmissionError` (as are submissions
    beyond ``max_queue``, when given).  Each admitted request executes
    on its own thread against a carved sub-fleet, so at most
    ``fleet.gpu_count`` requests run concurrently.
    """

    def __init__(self, fleet: MachineSpec | ClusterSpec,
                 registry: ProgramRegistry | None = None,
                 policy: str = "fifo",
                 max_queue: int | None = None,
                 span_nodes: bool = False) -> None:
        self.fleet = fleet
        self.registry = registry if registry is not None \
            else store.PROGRAMS
        self.policy = make_policy(policy)
        self.max_queue = max_queue
        self.state = FleetState(fleet, span_nodes=span_nodes)
        self.tracer = Tracer(ngpus=fleet.gpu_count, machine=fleet.name)
        self._lock = threading.Lock()
        self._queue: list[QueueEntry] = []
        self._records: dict[str, RequestRecord] = {}
        self._order: list[str] = []
        self._arrivals = itertools.count()
        self._threads: list[threading.Thread] = []
        self._placed_now = 0
        self._peak_concurrency = 0
        self._busy_slot_seconds = 0.0
        self._rejected = 0
        self._t0 = time.monotonic()
        self._closed = False

    # -- time base -----------------------------------------------------------

    def _now(self) -> float:
        """Wall seconds since service start (the trace time base)."""
        return time.monotonic() - self._t0

    # -- submission ----------------------------------------------------------

    def submit(self, request: RunRequest) -> RequestRecord:
        """Enqueue one request; returns its ticket immediately.

        Raises :class:`AdmissionError` (``oversized_gpus`` /
        ``oversized_memory`` / ``queue_full``) when the request cannot
        be accepted at all.
        """
        bytes_per_gpu = (request.bytes_per_gpu
                         if request.bytes_per_gpu is not None
                         else estimate_request_bytes(request.args))
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            arrival = next(self._arrivals)
            request_id = request.label or f"req{arrival:04d}"
            try:
                if self.max_queue is not None and \
                        len(self._queue) >= self.max_queue:
                    raise AdmissionError(
                        "queue_full",
                        f"queue holds {len(self._queue)} requests "
                        f"(max {self.max_queue})",
                        max_queue=self.max_queue)
                self.state.check_admissible(request.ngpus, bytes_per_gpu)
            except AdmissionError as exc:
                self._rejected += 1
                self.tracer.emit(
                    EVENT_REQ_REJECTED, request_id, start=self._now(),
                    tenant=request.tenant, code=exc.code, reason=str(exc))
                self.tracer.metrics.count("requests_rejected", 1,
                                          tenant=request.tenant,
                                          code=exc.code)
                raise
            record = RequestRecord(request_id=request_id, request=request,
                                   bytes_per_gpu=bytes_per_gpu,
                                   enqueued_at=self._now())
            self._records[request_id] = record
            self._order.append(request_id)
            self._queue.append(QueueEntry(
                request_id=request_id, tenant=request.tenant,
                ngpus=request.ngpus, bytes_per_gpu=bytes_per_gpu,
                arrival=arrival, payload=record))
            self.tracer.emit(
                EVENT_REQ_ENQUEUED, request_id, start=record.enqueued_at,
                tenant=request.tenant, ngpus=request.ngpus,
                nbytes=bytes_per_gpu)
            self.tracer.metrics.count("requests_enqueued", 1,
                                      tenant=request.tenant)
            self._tick_locked()
        return record

    # -- scheduling ----------------------------------------------------------

    def _tick_locked(self) -> None:
        """Admit queued requests while the policy finds one that fits."""
        while True:
            entry = self.policy.pick(self._queue, self.state)
            if entry is None:
                return
            slots = plan_placement(self.state, entry.ngpus,
                                   entry.bytes_per_gpu)
            assert slots is not None, "policy picked an unplaceable entry"
            self._queue.remove(entry)
            self.policy.admitted(entry)
            record: RequestRecord = entry.payload
            now = self._now()
            record.admitted_at = now
            record.slots = slots
            self.state.reserve(entry.request_id, slots, entry.bytes_per_gpu)
            self._placed_now += 1
            self._peak_concurrency = max(self._peak_concurrency,
                                         self._placed_now)
            self.tracer.emit(EVENT_REQ_ADMITTED, entry.request_id, start=now,
                             tenant=entry.tenant)
            self.tracer.emit(EVENT_REQ_PLACED, entry.request_id, start=now,
                             tenant=entry.tenant, slots=list(slots),
                             nbytes=entry.bytes_per_gpu)
            self.tracer.metrics.count("requests_admitted", 1,
                                      tenant=entry.tenant)
            self.tracer.metrics.observe(
                "queue_wait_seconds", record.wait_seconds or 0.0,
                tenant=entry.tenant)
            self.tracer.metrics.count("slot_acquisitions", len(slots))
            t = threading.Thread(
                target=self._execute, args=(record,),
                name=f"serve-{entry.request_id}", daemon=True)
            self._threads.append(t)
            t.start()

    def _compile(self, request: RunRequest) -> tuple[AccProgram, str]:
        compiled, outcome = self.registry.load_or_compile(
            request.source, request.options)
        return AccProgram(compiled), outcome

    def _execute(self, record: RequestRecord) -> None:
        request = record.request
        try:
            program, outcome = self._compile(request)
            record.compile_outcome = outcome
            sub = self.fleet.subset(record.slots)
            record.run = program.run(
                request.entry, request.args, machine=sub,
                ngpus=len(record.slots), config=request.config)
        except BaseException as exc:  # noqa: BLE001 -- ticket carries it
            record.error = exc
        finally:
            with self._lock:
                now = self._now()
                record.completed_at = now
                busy = (record.service_seconds or 0.0) * len(record.slots)
                self._busy_slot_seconds += busy
                self.state.release(record.request_id, record.slots,
                                   record.bytes_per_gpu)
                self._placed_now -= 1
                kind = (EVENT_REQ_COMPLETED if record.error is None
                        else EVENT_REQ_FAILED)
                attrs = {"tenant": request.tenant,
                         "slots": list(record.slots),
                         "wait_seconds": record.wait_seconds,
                         "service_seconds": record.service_seconds,
                         "compile_outcome": record.compile_outcome}
                if record.error is not None:
                    attrs["error"] = repr(record.error)
                elif record.run is not None:
                    attrs["modeled_seconds"] = record.run.elapsed
                self.tracer.emit(kind, record.request_id, start=now, **attrs)
                self.tracer.metrics.count(
                    "requests_completed" if record.error is None
                    else "requests_failed", 1, tenant=request.tenant)
                self.tracer.metrics.observe(
                    "service_seconds", record.service_seconds or 0.0,
                    tenant=request.tenant)
                self._tick_locked()
            record._done.set()

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> list[RequestRecord]:
        """Wait until every submitted request finished; return tickets
        in submission order (failures stay on the ticket, they do not
        raise here)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            records = [self._records[rid] for rid in self._order]
        for rec in records:
            left = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            if not rec._done.wait(left):
                raise TimeoutError(
                    f"request {rec.request_id} still pending after drain "
                    f"timeout")
        return records

    def shutdown(self, timeout: float | None = None) -> None:
        self.drain(timeout)
        with self._lock:
            self._closed = True
            threads = list(self._threads)
        for t in threads:
            t.join(timeout)

    # -- reporting -----------------------------------------------------------

    def report(self) -> ServiceReport:
        with self._lock:
            records = [self._records[rid] for rid in self._order]
            wall = self._now()
            busy = self._busy_slot_seconds
            peak = self._peak_concurrency
            rejected = self._rejected
        done = [r for r in records if r.done()]
        completed = [r for r in done if r.error is None]
        failed = [r for r in done if r.error is not None]
        waits = [r.wait_seconds for r in records
                 if r.wait_seconds is not None]
        per_tenant: dict[str, int] = {}
        outcomes: dict[str, int] = {}
        for r in completed:
            per_tenant[r.request.tenant] = \
                per_tenant.get(r.request.tenant, 0) + 1
            if r.compile_outcome:
                outcomes[r.compile_outcome] = \
                    outcomes.get(r.compile_outcome, 0) + 1
        return ServiceReport(
            fleet=self.fleet.name,
            fleet_gpus=self.fleet.gpu_count,
            policy=self.policy.name,
            submitted=len(records),
            completed=len(completed),
            failed=len(failed),
            rejected=rejected,
            wall_seconds=wall,
            wait_mean=sum(waits) / len(waits) if waits else 0.0,
            wait_max=max(waits) if waits else 0.0,
            utilization=(busy / (wall * self.fleet.gpu_count)
                         if wall > 0 else 0.0),
            peak_concurrency=peak,
            per_tenant_completed=per_tenant,
            compile_outcomes=outcomes,
            registry_stats=self.registry.stats_snapshot(),
        )


__all__ = ["ProgramService", "RequestRecord", "RunRequest", "ServiceReport"]
