"""Concurrent program service: isolation, acceptance smoke, lifecycle.

Two layers of concurrency guarantees are pinned here.  The *substrate*
layer (no service involved): N threads compiling through the shared
caches and running programs on disjoint carved sub-fleets produce
bit-identical arrays to the same programs run serially.  The *service*
layer: the acceptance-criteria smoke -- 64+ queued requests submitted
concurrently against a modeled 16-GPU fleet, every one completing with
bit-identical results -- plus the request lifecycle (trace events in
order, queue-wait metrics, utilization) and the structured rejection
and queueing edges.
"""

import threading

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_node
from repro.serve import (
    AdmissionError,
    ProgramRegistry,
    ProgramService,
    RunRequest,
)
from repro.trace import chrome_trace, jsonl
from repro.trace.events import (
    EVENT_REQ_ADMITTED,
    EVENT_REQ_COMPLETED,
    EVENT_REQ_ENQUEUED,
    EVENT_REQ_PLACED,
    REQUEST_KINDS,
)
from repro.translator.compiler import CompileOptions, compile_source

APPS = {**ALL_APPS, **EXTRA_APPS}
FLEET16 = hypothetical_node(16, gpus_per_hub=4)

#: (app, ngpus, options) rows for the concurrency matrix.  Mixed
#: widths, mixed options, every app with a distinct access pattern.
MATRIX = [
    ("stencil", 2, None),
    ("jacobi", 2, None),
    ("md", 4, None),
    ("kmeans", 1, None),
    ("bfs", 2, None),
    ("gradpipe", 2, CompileOptions(fuse=True)),
    ("heat2d", 2, None),
    ("shift_scale", 1, None),
]


def serial_baseline(app_name, ngpus, options=None):
    """Output arrays of one app run serially (fresh args, no service)."""
    spec = APPS[app_name]
    args = spec.args_for("tiny")
    program = compile_source(spec.source, options)
    repro.AccProgram(program).run(spec.entry, args, machine=FLEET16,
                                  ngpus=ngpus)
    return {k: v.copy() for k, v in args.items()
            if isinstance(v, np.ndarray)}


def make_request(app_name, ngpus, options=None, tenant="default", label=None):
    spec = APPS[app_name]
    return RunRequest(source=spec.source, entry=spec.entry,
                      args=spec.args_for("tiny"), options=options,
                      ngpus=ngpus, tenant=tenant, label=label)


def assert_matches_baseline(request, baseline, who):
    for name, want in baseline.items():
        got = request.args[name]
        np.testing.assert_array_equal(
            got, want, err_msg=f"{who}: array {name!r} diverged from the "
            f"serial run")


class TestSubstrateConcurrency:
    """Satellite: threads + disjoint sub-fleets == serial, no service."""

    def test_threads_on_disjoint_subsets_match_serial(self):
        baselines = {(a, n): serial_baseline(a, n, o) for a, n, o in MATRIX}
        # Carve disjoint slices of the 16-GPU fleet, one per thread.
        cursor = 0
        plans = []
        for app_name, ngpus, options in MATRIX:
            plans.append((app_name, ngpus, options,
                          list(range(cursor, cursor + ngpus))))
            cursor += ngpus
        assert cursor <= FLEET16.gpu_count
        barrier = threading.Barrier(len(plans))
        results, errors = [None] * len(plans), []

        def worker(i):
            app_name, ngpus, options, slots = plans[i]
            spec = APPS[app_name]
            args = spec.args_for("tiny")
            barrier.wait()
            try:
                program = compile_source(spec.source, options)
                repro.AccProgram(program).run(
                    spec.entry, args, machine=FLEET16.subset(slots),
                    ngpus=ngpus)
                results[i] = args
            except BaseException as exc:  # noqa: BLE001
                errors.append((app_name, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for (app_name, ngpus, options, slots), args in zip(plans, results):
            baseline = baselines[(app_name, ngpus)]
            for name, want in baseline.items():
                np.testing.assert_array_equal(
                    args[name], want,
                    err_msg=f"{app_name} on slots {slots}: {name!r} "
                    f"diverged from serial")


class TestServiceAcceptance:
    """The ISSUE acceptance smoke: >= 64 queued concurrent requests on
    a modeled 16-GPU fleet, bit-identical per-program results."""

    N_REQUESTS = 64
    SUBMIT_THREADS = 8

    def test_64_requests_on_16_gpus_bit_identical(self):
        baselines = {(a, n): serial_baseline(a, n, o) for a, n, o in MATRIX}
        service = ProgramService(FLEET16, policy="fair")
        rows = [MATRIX[i % len(MATRIX)] for i in range(self.N_REQUESTS)]
        requests = [
            make_request(a, n, o, tenant=f"tenant-{i % 4}", label=f"r{i:03d}")
            for i, (a, n, o) in enumerate(rows)]
        tickets = [None] * len(requests)
        errors = []
        barrier = threading.Barrier(self.SUBMIT_THREADS)

        def submitter(t):
            barrier.wait()
            for i in range(t, len(requests), self.SUBMIT_THREADS):
                try:
                    tickets[i] = service.submit(requests[i])
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

        threads = [threading.Thread(target=submitter, args=(t,))
                   for t in range(self.SUBMIT_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        records = service.drain(timeout=300)
        assert len(records) == self.N_REQUESTS

        # Every request completed, none failed.
        for rec in records:
            assert rec.done()
            assert rec.error is None, (rec.request_id, rec.error)
            assert rec.run is not None

        # Bit-identical to the serial runs of the same (app, ngpus).
        for i, rec in enumerate(tickets):
            app_name, ngpus, _ = rows[int(rec.request_id[1:])] \
                if rec.request_id.startswith("r") else rows[i]
            assert_matches_baseline(
                rec.request, baselines[(app_name, ngpus)], rec.request_id)

        # Slot hygiene: placements never overlapped in time.  Replay
        # admitted/completed transitions in seq order and track owners.
        owned = {}
        for ev in service.tracer.events:
            if ev.kind == EVENT_REQ_PLACED:
                for s in ev.attrs["slots"]:
                    assert s not in owned, (
                        f"slot {s} double-booked: {owned[s]} and {ev.label}")
                    owned[s] = ev.label
            elif ev.kind == EVENT_REQ_COMPLETED:
                for s in ev.attrs["slots"]:
                    assert owned.pop(s) == ev.label
        assert not owned, f"slots never released: {owned}"

        report = service.report()
        assert report.completed == self.N_REQUESTS
        assert report.failed == 0 and report.rejected == 0
        assert report.peak_concurrency > 1, (
            "64 requests on 16 GPUs must actually overlap")
        assert 0 < report.utilization <= 1
        service.shutdown()


class TestLifecycleObservability:
    def test_events_in_order_and_metrics_present(self):
        service = ProgramService(FLEET16, policy="fifo")
        service.submit(make_request("stencil", 2, label="one"))
        service.submit(make_request("jacobi", 2, label="two"))
        service.drain(timeout=120)

        for rid in ("one", "two"):
            kinds = [ev.kind for ev in service.tracer.events
                     if ev.kind in REQUEST_KINDS and ev.label == rid]
            assert kinds == [EVENT_REQ_ENQUEUED, EVENT_REQ_ADMITTED,
                             EVENT_REQ_PLACED, EVENT_REQ_COMPLETED]
            seqs = [ev.seq for ev in service.tracer.events
                    if ev.kind in REQUEST_KINDS and ev.label == rid]
            assert seqs == sorted(seqs)

        done = [ev for ev in service.tracer.events
                if ev.kind == EVENT_REQ_COMPLETED]
        for ev in done:
            assert ev.attrs["wait_seconds"] >= 0
            assert ev.attrs["service_seconds"] > 0
            assert ev.attrs["modeled_seconds"] > 0
            assert ev.attrs["compile_outcome"] in (
                "cache_hit", "cache_miss", "hit_memory", "hit_disk",
                "compiled")

        metrics = service.tracer.metrics
        assert metrics.counter_total("requests_enqueued") == 2
        assert metrics.counter_total("requests_admitted") == 2
        assert metrics.counter_total("requests_completed") == 2
        waits = metrics.histograms["queue_wait_seconds"]
        assert sum(h.count for h in waits.values()) == 2

    def test_trace_exports_include_request_events(self):
        service = ProgramService(FLEET16)
        service.submit(make_request("stencil", 2, label="only"))
        service.drain(timeout=120)
        text = jsonl(service.tracer)
        assert '"req_enqueued"' in text and '"req_completed"' in text
        doc = chrome_trace(service.tracer)
        cats = {ev.get("cat") for ev in doc["traceEvents"]}
        assert {"req_enqueued", "req_placed", "req_completed"} <= cats

    def test_ticket_wait_and_service_times(self):
        service = ProgramService(FLEET16)
        rec = service.submit(make_request("stencil", 2))
        rec.result(timeout=120)
        assert rec.wait_seconds is not None and rec.wait_seconds >= 0
        assert rec.service_seconds > 0
        assert rec.compile_outcome in ("cache_hit", "cache_miss")


def hold_workers(service):
    """Make every admitted request wait for the returned event before
    it compiles or runs.  Queueing tests open the gate only once every
    submission is in, so what they observe is the scheduler's decisions
    and never how fast a worker thread happened to finish."""
    gate = threading.Event()
    compile_ = service._compile

    def gated_compile(request):
        assert gate.wait(timeout=120), "test never opened the gate"
        return compile_(request)

    service._compile = gated_compile
    return gate


def admission_order(service):
    return [ev.label for ev in service.tracer.events
            if ev.kind == EVENT_REQ_ADMITTED]


class TestQueueingEdges:
    def test_queue_when_full_serializes_without_loss(self):
        fleet = hypothetical_node(2, gpus_per_hub=2)
        service = ProgramService(fleet)
        gate = hold_workers(service)
        for i in range(4):
            service.submit(make_request("stencil", 2, label=f"q{i}"))
        # q0 holds the whole fleet; the rest had to queue behind it.
        assert admission_order(service) == ["q0"]
        gate.set()
        records = service.drain(timeout=120)
        assert all(r.error is None for r in records)
        report = service.report()
        assert report.completed == 4
        # 2-GPU requests on a 2-GPU fleet can never overlap.
        assert report.peak_concurrency == 1
        # The queue imposed FIFO order.
        assert admission_order(service) == ["q0", "q1", "q2", "q3"]

    def test_oversized_gpus_rejected_with_code(self):
        service = ProgramService(hypothetical_node(2, gpus_per_hub=2))
        with pytest.raises(AdmissionError) as exc:
            service.submit(make_request("stencil", 3))
        assert exc.value.code == "oversized_gpus"
        report = service.report()
        assert report.rejected == 1 and report.submitted == 0

    def test_oversized_memory_rejected_with_code(self):
        service = ProgramService(FLEET16)
        req = make_request("stencil", 1)
        req.bytes_per_gpu = 1 << 62
        with pytest.raises(AdmissionError) as exc:
            service.submit(req)
        assert exc.value.code == "oversized_memory"

    def test_bounded_queue_rejects_overflow(self):
        fleet = hypothetical_node(2, gpus_per_hub=2)
        service = ProgramService(fleet, max_queue=2)
        gate = hold_workers(service)
        # b0 is admitted and holds the fleet, b1 and b2 fill the queue.
        for i in range(3):
            service.submit(make_request("stencil", 2, label=f"b{i}"))
        with pytest.raises(AdmissionError) as exc:
            service.submit(make_request("stencil", 2, label="b3"))
        assert exc.value.code == "queue_full"
        gate.set()
        records = service.drain(timeout=120)
        assert [r.request_id for r in records] == ["b0", "b1", "b2"]
        assert all(r.error is None for r in records)
        report = service.report()
        assert report.completed == 3 and report.rejected == 1
        assert report.peak_concurrency == 1

    def test_rejection_leaves_a_trace_event(self):
        service = ProgramService(hypothetical_node(2, gpus_per_hub=2))
        with pytest.raises(AdmissionError):
            service.submit(make_request("stencil", 5, label="nope"))
        rejects = [ev for ev in service.tracer.events
                   if ev.kind == "req_rejected"]
        assert len(rejects) == 1
        assert rejects[0].attrs["code"] == "oversized_gpus"


class TestServiceWithRegistry:
    def test_compile_outcomes_flow_through_the_registry(self, tmp_path):
        registry = ProgramRegistry(tmp_path / "reg")
        service = ProgramService(FLEET16, registry=registry)
        for i in range(4):
            service.submit(make_request("stencil", 2, label=f"s{i}"))
        records = service.drain(timeout=120)
        outcomes = sorted(r.compile_outcome for r in records)
        assert outcomes.count("compiled") == 1, (
            "single-flight: four concurrent requests for one program "
            f"must compile once, got {outcomes}")
        assert all(o in ("compiled", "hit_memory") for o in outcomes)
        report = service.report()
        assert report.registry_stats is not None
        assert report.registry_stats["compiles"] == 1

        # A second service over the same directory: pure disk/memory hits.
        service2 = ProgramService(FLEET16,
                                  registry=ProgramRegistry(tmp_path / "reg"))
        service2.submit(make_request("stencil", 2, label="warm"))
        [rec] = service2.drain(timeout=120)
        assert rec.compile_outcome == "hit_disk"


class TestFairnessUnderLoad:
    def test_fair_policy_interleaves_tenants(self):
        # A 2-slot fleet so admissions are strictly serialized, making
        # the admission order observable.
        fleet = hypothetical_node(2, gpus_per_hub=2)
        service = ProgramService(fleet, policy="fair")
        gate = hold_workers(service)
        # Tenant A floods first; tenant B's single request arrives last,
        # while a0 still holds the fleet.
        for i in range(6):
            service.submit(make_request("stencil", 2, tenant="flood",
                                        label=f"a{i}"))
        service.submit(make_request("jacobi", 2, tenant="patient",
                                    label="b0"))
        gate.set()
        service.drain(timeout=120)
        admitted = admission_order(service)
        # b0 must not be admitted last: fairness lets it overtake the
        # flood.
        assert admitted.index("b0") < len(admitted) - 1, admitted
        report = service.report()
        assert report.per_tenant_completed == {"flood": 6, "patient": 1}
