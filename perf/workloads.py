"""The five workloads (README.md says why each exists).

A workload is driven in *rounds*.  A round times a fixed piece of work
-- one op for the four batch workloads, :data:`SERVE_ROUND_REQUESTS`
closed-loop requests for ``serve_mix`` -- in one or more *segments*
(one per program run of an op), takes a machine-speed probe sample
(probe.py) before each segment and after the last, with the clock
stopped, and hands back what the harness needs to check the round
afterwards, outside the timed region.  Inputs are generated once in
:meth:`setup` from the seed; the program under test only ever sees
generated inputs, on a fresh copy per op.

Everything here calls the library through its public names, looked up on
the module at call time, so that the span wrappers (spans.py) see the
calls when they are installed.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro
from probe import SegmentClock, no_sample
from repro.apps import ALL_APPS, EXTRA_APPS, AppSpec
from repro.bench import multinode
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.frontend import parser as frontend_parser
from repro.serve import registry as serve_registry
from repro.serve import service as serve_service
from repro.translator import compiler as translator_compiler
from repro.translator.compiler import CompileOptions

APPS: dict[str, AppSpec] = {**ALL_APPS, **EXTRA_APPS}

#: Ops run before timing starts; the first is several times slower
#: (lazy imports, first-touch allocations, kernel-context caches).
WARMUP_OPS = 2

#: Lanes of ``ProgramRun.breakdown`` reported as ``modeled.<lane>_s``.
MODELED_LANES = {
    "kernels": "kernels", "cpu_gpu": "cpu_gpu", "gpu_gpu": "gpu_gpu",
    "net": "net", "other": "other", "gpu_gpu_hidden": "gpu_gpu_overlapped",
    "net_hidden": "net_overlapped",
}
#: The lanes that add up to ``ProgramRun.elapsed``.
EXPOSED_LANES = ("kernels", "cpu_gpu", "gpu_gpu", "net", "other")
BUS_KINDS = ("h2d", "d2h", "p2p", "net")


def _probes_reference(args: dict) -> dict:
    """NumPy reference of ``bench.multinode``'s monitored stencil."""
    a = np.asarray(args["a"], dtype=np.float32).copy()
    record = np.asarray(args["record"], dtype=np.float32).copy()
    site, slot = args["site"], args["slot"]
    alpha = np.float32(args["alpha"])
    one, half = np.float32(1.0), np.float32(0.5)
    for _ in range(args["steps"]):
        b = a.copy()
        b[1:-1] = (one - alpha) * a[1:-1] + alpha * half * (a[:-2] + a[2:])
        record[slot] = np.maximum(record[slot], b[site])
        a = b
    return {"a": a, "record": record}


#: ``bench.multinode``'s ablation program is not an AppSpec; give it one
#: so that it is generated, run and checked like the others.
STENCIL_PROBES = AppSpec(
    name="stencil_probes",
    description="monitored stencil (replica dirty-bit broadcasts)",
    source=multinode.STENCIL_PROBES_SOURCE,
    entry=multinode.ENTRY,
    make_args=multinode.probe_args,
    reference=_probes_reference,
    outputs=["a", "record"],
)
APPS["stencil_probes"] = STENCIL_PROBES


def _test_params(app: str) -> dict:
    params = dict(APPS[app].workloads["test"].params)
    params.pop("seed")
    return params


def digest(spec: AppSpec, args: dict) -> bytes:
    """Hash of the output arrays of one finished run."""
    h = hashlib.blake2b(digest_size=16)
    for name in spec.outputs:
        arr = np.ascontiguousarray(args[name])
        h.update(str(arr.dtype).encode())
        h.update(memoryview(arr).cast("B"))
    return h.digest()


def run_facts(run) -> dict[str, float]:
    """Modeled lanes, bus bytes and counts of one ``ProgramRun`` --
    read off the run object, exact on every machine."""
    facts = {f"modeled.{lane}_s": float(getattr(run.breakdown, attr))
             for lane, attr in MODELED_LANES.items()}
    facts["modeled.total_s"] = float(run.elapsed)
    for kind in BUS_KINDS:
        facts[f"bus.bytes_{kind}"] = float(run.platform.bus.bytes_moved(kind))
    facts["bus.bytes_total"] = float(run.platform.bus.bytes_moved())
    facts["modeled.device_bytes_peak"] = float(run.memory_high_water())
    facts["kernel.iterations"] = float(sum(
        max(0, t1 - t0) for st in run.loop_stats for t0, t1 in st.tasks))
    # The ledger's promise: lanes add up to the clock, kinds to the bus.
    lanes = sum(facts[f"modeled.{lane}_s"] for lane in EXPOSED_LANES)
    kinds = sum(facts[f"bus.bytes_{kind}"] for kind in BUS_KINDS)
    if abs(lanes - facts["modeled.total_s"]) > 1e-9 * facts["modeled.total_s"] \
            or kinds != facts["bus.bytes_total"]:
        raise AssertionError(
            f"modeled lanes sum to {lanes!r}, the clock reads "
            f"{facts['modeled.total_s']!r}; bus kinds sum to {kinds!r}, "
            f"the bus moved {facts['bus.bytes_total']!r}")
    return facts


def program_facts(compiled, source: str) -> dict[str, float]:
    """Static size of one compiled program."""
    return {
        "frontend.source_bytes": float(len(source.encode())),
        "translator.kernels": float(len(compiled.plans)),
        "translator.generated_source_bytes": float(
            sum(len(p.source.encode()) for p in compiled.plans)),
        "translator.fusion_groups": float(len(compiled.fusion_groups)),
    }


def add_facts(total: dict[str, float], facts: dict[str, float]) -> None:
    for key, value in facts.items():
        if key == "modeled.device_bytes_peak":
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value


@dataclass
class Round:
    """One timed round and what is needed to check it afterwards."""

    clock: SegmentClock                 # timed segments + probe samples
    latencies: list[float]              # raw seconds, one per completed op
    attempted: int
    failed: int = 0
    payload: Any = None
    index: int = 0

    @property
    def seconds(self) -> float:
        return self.clock.seconds

    def fail(self, why: Any = None) -> None:
        """Nothing this round did counts as completed."""
        self.failed = self.attempted
        self.latencies = []
        self.payload = why


@dataclass
class Case:
    """One program run of a batch workload's fixed case list."""

    app: str
    params: dict
    machine: Any
    ngpus: int
    options: CompileOptions | None = None
    run_flags: dict = field(default_factory=dict)
    #: Kernel launches every seed must produce (None: data dependent).
    launches: int | None = None
    # Filled by setup.
    program: Any = None
    args: dict | None = None
    expected: bytes = b""
    facts: dict = field(default_factory=dict)

    @property
    def spec(self) -> AppSpec:
        return APPS[self.app]

    def execute(self, args: dict, **extra):
        return self.program.run(self.spec.entry, args, machine=self.machine,
                                ngpus=self.ngpus, **self.run_flags, **extra)


class Workload:
    """Interface the harness drives."""

    name = ""

    def __init__(self) -> None:
        #: Exact per-op numbers (modeled lanes, bytes, counts).
        self._facts: dict[str, float] = {}

    def setup(self, seed: int, scratch: Path, mark=lambda: None) -> None:
        """Everything before the first timed op.  ``mark()`` is called
        between phases so that set-up time, too, is measured in
        probe-bracketed segments."""
        raise NotImplementedError

    def warm_up(self, rnd: Round, mark) -> None:
        """A warm-up round must pass the same check as a timed one."""
        self.verify(rnd)
        if rnd.failed:
            raise AssertionError(f"{self.name}: warm-up op failed")
        mark()

    def run_round(self, index: int, sample=no_sample) -> Round:
        raise NotImplementedError

    def verify(self, rnd: Round) -> None:
        """Check ``rnd`` outside the timed region; raise its ``failed``."""
        raise NotImplementedError

    def facts(self) -> dict[str, float]:
        return dict(self._facts)

    def close(self) -> None:
        pass


class CaseWorkload(Workload):
    """An op is one pass through a fixed list of program runs."""

    def __init__(self, name: str, cases: list[Case],
                 observer: "CaseWorkload | None" = None) -> None:
        super().__init__()
        self.name = name
        self.cases = cases
        #: A miniature of this workload on which the traced pass times
        #: ``trace=True`` / ``sanitize=True`` against plain runs (the
        #: sanitizer re-executes every loop in the scalar interpreter:
        #: minutes per op at full size).  Set up by the traced pass only.
        self.observer = observer

    def setup(self, seed: int, scratch: Path, mark=lambda: None) -> None:
        for i, case in enumerate(self.cases):
            case.program = repro.compile(case.spec.source, case.options)
            case.args = case.spec.make_args(**case.params,
                                            seed=seed * 7919 + i)
            add_facts(self._facts, program_facts(case.program.compiled,
                                                 case.spec.source))
        mark()
        # First warm-up op: the NumPy reference (independent of the
        # compiler) decides what correct output is; its hash and its
        # modeled numbers are what every later op must reproduce.
        for case in self.cases:
            args = AppSpec.snapshot(case.args)
            run = case.execute(args)
            case.spec.check(args, inputs=case.args)
            if case.launches is not None \
                    and run.kernel_launches != case.launches:
                raise AssertionError(
                    f"{self.name}/{case.app}: {run.kernel_launches} kernel "
                    f"launches, the workload is defined with "
                    f"{case.launches}")
            case.expected = digest(case.spec, args)
            case.facts = run_facts(run)
            add_facts(self._facts, case.facts)
            mark()
        for i in range(1, WARMUP_OPS):
            self.warm_up(self.run_round(-i), mark)

    def run_round(self, index: int, sample=no_sample, **extra) -> Round:
        fresh = [AppSpec.snapshot(case.args) for case in self.cases]
        runs: list = []
        clock = SegmentClock(sample)
        rnd = Round(clock, [], attempted=1, index=index)
        try:
            for case, args in zip(self.cases, fresh):
                clock.restart()
                runs.append(case.execute(args, **extra))
                clock.mark()
        except Exception as exc:  # noqa: BLE001 -- an op that raised failed
            clock.mark()
            rnd.fail(repr(exc))
            return rnd
        rnd.latencies = [rnd.seconds]
        rnd.payload = (fresh, runs)
        return rnd

    def verify(self, rnd: Round) -> None:
        if rnd.failed:
            return
        fresh, runs = rnd.payload
        rnd.payload = None
        for case, args, run in zip(self.cases, fresh, runs):
            if digest(case.spec, args) != case.expected \
                    or run.elapsed != case.facts["modeled.total_s"] \
                    or run.platform.bus.bytes_moved() \
                    != case.facts["bus.bytes_total"]:
                rnd.fail(f"{case.app}: output, modeled seconds or bus "
                         f"bytes differ from the warm-up op's")
                return


# -- compile_cold ----------------------------------------------------------

#: The programs ``compile_cold`` translates: the ten apps and the
#: multinode ablation program, each with and without loop fusion.
COMPILE_SOURCES = sorted(APPS)
COMPILE_OPTIONS = (CompileOptions(), CompileOptions(fuse=True))


class CompileColdWorkload(Workload):
    """An op translates every source from text, bypassing both caches,
    and round-trips the result through the registry's freezer."""

    name = "compile_cold"

    def setup(self, seed: int, scratch: Path, mark=lambda: None) -> None:
        # The inputs are fixed programs; the seed decides their order.
        self.order = [(app, options) for app in COMPILE_SOURCES
                      for options in COMPILE_OPTIONS]
        random.Random(seed).shuffle(self.order)
        first = self.run_round(0)
        for (app, _), (fresh, _, payload) in zip(self.order, first.payload):
            add_facts(self._facts, program_facts(fresh, APPS[app].source))
            add_facts(self._facts,
                      {"registry.entry_bytes": float(len(payload))})
        self.warm_up(first, mark)
        for i in range(1, WARMUP_OPS):
            self.warm_up(self.run_round(-i), mark)

    def run_round(self, index: int, sample=no_sample) -> Round:
        out = []
        clock = SegmentClock(sample)
        rnd = Round(clock, [], attempted=1, index=index)
        half = len(self.order) // 2
        try:
            for part in (self.order[:half], self.order[half:]):
                clock.restart()
                for app, options in part:
                    tree = frontend_parser.parse(APPS[app].source)
                    fresh = translator_compiler.compile_program(tree,
                                                                options)
                    payload = serve_registry.freeze_program(fresh)
                    thawed = serve_registry.thaw_program(payload)
                    out.append((fresh, thawed, payload))
                clock.mark()
        except Exception as exc:  # noqa: BLE001 -- an op that raised failed
            clock.mark()
            rnd.fail(repr(exc))
            return rnd
        rnd.latencies = [rnd.seconds]
        rnd.payload = out
        return rnd

    def verify(self, rnd: Round) -> None:
        if rnd.failed:
            return
        results, rnd.payload = rnd.payload, None
        for fresh, thawed, _ in results:
            same = ([p.source for p in fresh.plans]
                    == [p.source for p in thawed.plans]
                    and all(p.fn is not None or p.source_info is None
                            for p in thawed.plans))
            if not same:
                rnd.fail("thawed kernels differ from the fresh ones")
                return


# -- serve_mix -------------------------------------------------------------

SERVE_APPS = ("stencil", "jacobi", "md", "kmeans", "bfs", "spmv", "gradpipe")
SERVE_NGPUS = (1, 1, 2, 2, 4)
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: A round serves every (program, GPU-count draw) pair once, in seeded
#: order: the same population of requests on every seed, so that the
#: median is a quantile of one distribution and not of the draw.  Every
#: round starts a fresh ProgramService and ProgramRegistry over the same
#: on-disk store, as after a restart: the first request for each program
#: thaws it from disk, the rest hit the in-process map.
SERVE_ROUND_REQUESTS = len(SERVE_APPS) * len(SERVE_NGPUS)


@dataclass
class _Plan:
    """One request of the seeded mix."""

    program: int
    ngpus: int
    tenant: str


class ServeMixWorkload(Workload):
    """Closed loop: each client thread submits a request, waits for its
    result, and takes the next one."""

    name = "serve_mix"

    def setup(self, seed: int, scratch: Path, mark=lambda: None) -> None:
        self.fleet = hypothetical_node(4, gpus_per_hub=2)
        self.clients = min(2, os.cpu_count() or 1)
        self.store = scratch / "registry"
        self.rng = random.Random(seed)
        self.cases = [
            Case(app, _test_params(app), self.fleet, 1,
                 CompileOptions(fuse=True) if app == "gradpipe" else None)
            for app in SERVE_APPS]
        registry = serve_registry.ProgramRegistry(self.store)
        for i, case in enumerate(self.cases):
            case.args = case.spec.make_args(**case.params,
                                            seed=seed * 7919 + i)
            # Warm compile: translate once and persist to the store.
            compiled, _ = registry.load_or_compile(case.spec.source,
                                                   case.options)
            case.program = repro.AccProgram(compiled)
        mark()
        # Reference outputs per (program, GPU count): results never
        # depend on which slots a request got, modeled time does.
        self.expected: dict[tuple[int, int], bytes] = {}
        self.modeled: dict[tuple[int, tuple[int, ...]], dict] = {}
        for p, case in enumerate(self.cases):
            for ngpus in sorted(set(SERVE_NGPUS)):
                args = AppSpec.snapshot(case.args)
                case.program.run(case.spec.entry, args, ngpus=ngpus,
                                 machine=self.fleet.subset(range(ngpus)))
                case.spec.check(args, inputs=case.args)
                self.expected[p, ngpus] = digest(case.spec, args)
            mark()
        self._requests = 0
        self.reports: list = []             # one ServiceReport per round
        #: (round, queue wait, admission-to-completion) per request.
        self.records: list[tuple[int, float, float]] = []
        for i in range(WARMUP_OPS):
            self.warm_up(self.run_round(-i), mark)
        self._facts.clear()
        self._requests = 0
        self.reports.clear()
        self.records.clear()

    def _draw_round(self) -> list[_Plan]:
        plans = [_Plan(p, ngpus, self.rng.choice(SERVE_TENANTS))
                 for p in range(len(self.cases)) for ngpus in SERVE_NGPUS]
        self.rng.shuffle(plans)
        return plans

    def run_round(self, index: int, sample=no_sample) -> Round:
        plans = self._draw_round()
        todo = deque()
        for k, plan in enumerate(plans):
            case = self.cases[plan.program]
            todo.append((plan, serve_service.RunRequest(
                source=case.spec.source, entry=case.spec.entry,
                args=AppSpec.snapshot(case.args), options=case.options,
                ngpus=plan.ngpus, tenant=plan.tenant,
                label=f"r{max(index, 0)}-{k}")))
        service = serve_service.ProgramService(
            self.fleet, registry=serve_registry.ProgramRegistry(self.store),
            policy="fair")
        done: list = []
        clock = time.perf_counter

        def client() -> None:
            while True:
                try:
                    plan, request = todo.popleft()
                except IndexError:
                    return
                t0 = clock()
                try:
                    record = service.submit(request)
                    record.result()
                    error = None
                except Exception as exc:  # noqa: BLE001 -- rejected/failed
                    record, error = None, exc
                done.append((plan, request, record, clock() - t0, error))

        workers = [threading.Thread(target=client, name=f"client-{c}")
                   for c in range(self.clients)]
        round_clock = SegmentClock(sample)
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        round_clock.mark()
        service.shutdown(timeout=60)
        return Round(round_clock, [], attempted=len(plans),
                     payload=(service, done), index=index)

    def verify(self, rnd: Round) -> None:
        service, done = rnd.payload
        rnd.payload = None
        for plan, request, record, latency, error in done:
            case = self.cases[plan.program]
            ok = error is None and digest(case.spec, request.args) \
                == self.expected[plan.program, plan.ngpus]
            if ok:
                key = (plan.program, tuple(record.slots))
                if key not in self.modeled:
                    args = AppSpec.snapshot(case.args)
                    ref = case.program.run(
                        case.spec.entry, args, ngpus=plan.ngpus,
                        machine=self.fleet.subset(record.slots))
                    self.modeled[key] = run_facts(ref)
                facts = run_facts(record.run)
                ok = facts == self.modeled[key]
            if ok:
                rnd.latencies.append(latency)
                add_facts(self._facts, facts)
                self._requests += 1
                self.records.append((rnd.index, record.wait_seconds,
                                     record.service_seconds))
            else:
                rnd.failed += 1
        self.reports.append(service.report())

    def facts(self) -> dict[str, float]:
        """Averages per completed request (the mix is seeded, the
        number of requests a timed run gets through is not)."""
        n = max(1, self._requests)
        out = {k: (v if k == "modeled.device_bytes_peak" else v / n)
               for k, v in self._facts.items()}
        entries = list(self.store.glob("*.prog"))
        out["registry.entry_bytes"] = float(
            sum(e.stat().st_size for e in entries))
        for case in self.cases:
            add_facts(out, program_facts(case.program.compiled,
                                         case.spec.source))
        return out

    def close(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


# -- the table -------------------------------------------------------------

def _stream() -> Workload:
    n = 2 ** 19
    return CaseWorkload("stream", [
        Case("jacobi", dict(n=n, maxiter=6), hypothetical_node(4), 4,
             launches=6 * 2 * 4),
        Case("stencil", dict(n=n, steps=3), hypothetical_node(1), 1,
             launches=3 * 2),
        Case("gradpipe", dict(n=n, steps=3), hypothetical_node(2), 2,
             CompileOptions(fuse=True), launches=3 * 2),
    ])


def _launch_small() -> Workload:
    node = hypothetical_node(8)
    # tol=1e-30 keeps jacobi sweeping for exactly ``maxiter`` rounds on
    # every seed (tol=0 would skip the loop: ``err`` starts at 2*tol).
    overlapped = dict(overlap=True, coalesce=True)
    observer = CaseWorkload("launch_small.observer", [
        Case("jacobi", dict(n=512, maxiter=6, tol=1e-30), node, 8),
        Case("stencil", dict(n=512, steps=4), node, 8),
        Case("phasepipe", dict(n=512, off=5, steps=2), node, 8,
             run_flags=dict(overlapped)),
    ])
    return CaseWorkload("launch_small", [
        Case("jacobi", dict(n=2 ** 14, maxiter=20, tol=1e-30), node, 8,
             launches=20 * 2 * 8),
        Case("stencil", dict(n=2 ** 14, steps=16), node, 8,
             launches=16 * 2 * 8),
        Case("phasepipe", dict(n=2 ** 12, off=5, steps=8), node, 8,
             run_flags=dict(overlapped), launches=8 * 3 * 8),
    ], observer=observer)


def _cluster_comm() -> Workload:
    cluster = hypothetical_cluster(2, 4)
    flags = dict(collective="auto", overlap=True, coalesce=True)

    def case(app: str, params: dict) -> Case:
        return Case(app, params, cluster, 8, run_flags=dict(flags))

    return CaseWorkload("cluster_comm", [
        case("md", _test_params("md")),
        case("kmeans", _test_params("kmeans")),
        case("bfs", _test_params("bfs")),
        case("stencil_probes", dict(n=2 ** 14, nprobes=2048, steps=4)),
        case("shift_scale", dict(n=2 ** 16, shift=4099)),
    ])


WORKLOADS = {
    "stream": _stream,
    "launch_small": _launch_small,
    "cluster_comm": _cluster_comm,
    "compile_cold": CompileColdWorkload,
    "serve_mix": ServeMixWorkload,
}
