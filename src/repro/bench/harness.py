"""Experiment harness: regenerates the paper's tables and figures.

Each public function computes the data behind one artifact of the
evaluation section; :mod:`repro.bench.report` renders them as the text
tables the benchmark suite prints and EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..api import compile as compile_acc
from ..apps import ALL_APPS
from ..apps.base import AppSpec
from ..runtime.config import RunConfig
from ..vcuda.profiler import TimeBreakdown
from ..vcuda.specs import MACHINES
from .versions import VersionResult, run_version

MB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# Fig. 7: relative performance vs OpenMP
# ---------------------------------------------------------------------------


@dataclass
class Fig7Row:
    app: str
    machine: str
    #: label -> relative performance (OpenMP time / version time).
    relative: dict[str, float] = field(default_factory=dict)
    openmp_seconds: float = 0.0


def fig7(machine: str = "desktop", apps: dict[str, AppSpec] | None = None,
         workload: str = "bench", check: bool = False) -> list[Fig7Row]:
    """Relative performance of every version, per app (paper Fig. 7)."""
    apps = apps or ALL_APPS
    spec = MACHINES[machine]
    gpu_counts = list(range(1, spec.gpu_count + 1))
    rows: list[Fig7Row] = []
    for name, app in apps.items():
        base = run_version(app, "openmp", machine, workload=workload,
                           check=check)
        row = Fig7Row(app=name, machine=machine,
                      openmp_seconds=base.elapsed)
        row.relative["OpenMP"] = 1.0
        for version, counts in (("pgi", [1]), ("cuda", [1]),
                                ("proposal", gpu_counts)):
            for g in counts:
                r = run_version(app, version, machine, ngpus=g,
                                workload=workload, check=check)
                row.relative[r.label] = base.elapsed / r.elapsed
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Fig. 8: execution-time breakdown
# ---------------------------------------------------------------------------


@dataclass
class Fig8Row:
    app: str
    machine: str
    ngpus: int
    #: Normalized to the single-GPU total of the same app/machine.
    kernels: float
    cpu_gpu: float
    gpu_gpu: float
    #: Inter-GPU time hidden under kernels by the async communication
    #: layer (zero in the paper's synchronous mode).  Not part of
    #: ``total``: the three exposed buckets are what Fig. 8 stacks.
    gpu_gpu_overlapped: float = 0.0

    @property
    def total(self) -> float:
        return self.kernels + self.cpu_gpu + self.gpu_gpu


def fig8(machine: str = "desktop", apps: dict[str, AppSpec] | None = None,
         workload: str = "bench",
         config: RunConfig | None = None) -> list[Fig8Row]:
    """Breakdown of proposal time into the paper's three buckets.

    Under ``config.overlap`` the GPU-GPU column reports only *exposed*
    communication; the hidden remainder lands in
    :attr:`Fig8Row.gpu_gpu_overlapped`.
    """
    apps = apps or ALL_APPS
    spec = MACHINES[machine]
    rows: list[Fig8Row] = []
    for name, app in apps.items():
        results: list[VersionResult] = []
        for g in range(1, spec.gpu_count + 1):
            results.append(run_version(app, "proposal", machine, ngpus=g,
                                       workload=workload, config=config))
        denom = results[0].breakdown.total if results[0].breakdown else 1.0
        for r in results:
            bd: TimeBreakdown = r.breakdown  # type: ignore[assignment]
            nb = bd.normalized_to(denom)
            rows.append(Fig8Row(app=name, machine=machine, ngpus=r.ngpus,
                                kernels=nb.kernels, cpu_gpu=nb.cpu_gpu,
                                gpu_gpu=nb.gpu_gpu,
                                gpu_gpu_overlapped=nb.gpu_gpu_overlapped))
    return rows


@dataclass
class Fig8Reconciliation:
    """Traced vs reported seconds for one (app, ngpus) Fig. 8 row."""

    app: str
    machine: str
    ngpus: int
    #: Per bucket: {"traced": s, "reported": s, "residual": s}.
    buckets: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max((abs(b["residual"]) for b in self.buckets.values()),
                   default=0.0)


def fig8_reconciliation(
    machine: str = "desktop", apps: dict[str, AppSpec] | None = None,
    workload: str = "bench", config: RunConfig | None = None,
) -> list[Fig8Reconciliation]:
    """Fig. 8 accounting identity: traced per-category seconds vs the
    profiler's reported breakdown, per app and GPU count.

    The tracer accumulates exactly the deltas the virtual clock
    accumulates, in the same order, so the residual of every
    categorized bucket is identically zero; ``other`` is a profiler
    subtraction and its residual is float rounding only.  The trace
    tests pin both down.
    """
    from ..trace import reconcile

    apps = apps or ALL_APPS
    spec = MACHINES[machine]
    traced = replace(config or RunConfig(), trace=True)
    rows: list[Fig8Reconciliation] = []
    for name, app in apps.items():
        for g in range(1, spec.gpu_count + 1):
            r = run_version(app, "proposal", machine, ngpus=g,
                            workload=workload, config=traced)
            assert r.tracer is not None and r.breakdown is not None
            rows.append(Fig8Reconciliation(
                app=name, machine=machine, ngpus=g,
                buckets=reconcile(r.tracer, r.breakdown)))
    return rows


# ---------------------------------------------------------------------------
# Fig. 9: device memory usage
# ---------------------------------------------------------------------------


@dataclass
class Fig9Row:
    app: str
    machine: str
    ngpus: int
    #: Normalized to the single-GPU total (user+system) of the same app.
    user: float
    system: float

    @property
    def total(self) -> float:
        return self.user + self.system


def fig9(machine: str = "desktop", apps: dict[str, AppSpec] | None = None,
         workload: str = "bench") -> list[Fig9Row]:
    """Device memory split into User and System (paper Fig. 9)."""
    apps = apps or ALL_APPS
    spec = MACHINES[machine]
    rows: list[Fig9Row] = []
    for name, app in apps.items():
        results = [run_version(app, "proposal", machine, ngpus=g,
                               workload=workload)
                   for g in range(1, spec.gpu_count + 1)]
        denom = float(results[0].mem_user + results[0].mem_system)
        for r in results:
            rows.append(Fig9Row(app=name, machine=machine, ngpus=r.ngpus,
                                user=r.mem_user / denom,
                                system=r.mem_system / denom))
    return rows


# ---------------------------------------------------------------------------
# Table I / Table II
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    machine: str
    cpu: str
    cpu_sockets: int
    gpus: str
    gpu_count: int
    bus: str


def table1() -> list[Table1Row]:
    rows = []
    for key, spec in MACHINES.items():
        rows.append(Table1Row(
            machine=spec.name,
            cpu=spec.cpu.name,
            cpu_sockets=spec.cpu_sockets,
            gpus=spec.gpu_mix_label,
            gpu_count=spec.gpu_count,
            bus=spec.bus.name,
        ))
    return rows


@dataclass
class Table2Row:
    app: str
    source_suite: str
    input_label: str
    #: Column A at paper scale (computed from the paper's array shapes).
    paper_mb: float
    computed_paper_mb: float
    #: Column A at our bench workload (measured on a 1-GPU run).
    measured_bench_mb: float
    #: Column B: number of parallel loops.
    parallel_loops: int
    paper_parallel_loops: int
    #: Column C: kernel executions in one bench run.
    kernel_executions: int
    paper_kernel_executions: int
    #: Column D: localaccess arrays / arrays used in parallel loops.
    localaccess: str
    paper_localaccess: str


def table2(apps: dict[str, AppSpec] | None = None,
           workload: str = "bench") -> list[Table2Row]:
    """App characteristics, paper values vs this reproduction's."""
    apps = apps or ALL_APPS
    rows = []
    for name, app in apps.items():
        assert app.table2_paper is not None
        suite, input_label, paper_mb, paper_b, paper_c, paper_d = \
            app.table2_paper
        prog = compile_acc(app.source)
        n_loops = len(prog.compiled.plans)
        # Column D: union over loops of (localaccess arrays, used arrays).
        used: set[str] = set()
        with_la: set[str] = set()
        for plan in prog.compiled.plans:
            for aname, cfg in plan.config.arrays.items():
                used.add(aname)
                if cfg.has_localaccess:
                    with_la.add(aname)
        run = run_version(app, "proposal", "desktop", ngpus=1,
                          workload=workload)
        computed = (app.paper_scale_bytes() / MB
                    if app.paper_scale_bytes else 0.0)
        rows.append(Table2Row(
            app=name,
            source_suite=suite,
            input_label=input_label,
            paper_mb=paper_mb,
            computed_paper_mb=computed,
            measured_bench_mb=(run.mem_user + run.mem_system) / MB,
            parallel_loops=n_loops,
            paper_parallel_loops=paper_b,
            kernel_executions=run.kernel_executions,
            paper_kernel_executions=paper_c,
            localaccess=f"{len(with_la)}/{len(used)}",
            paper_localaccess=paper_d,
        ))
    return rows
