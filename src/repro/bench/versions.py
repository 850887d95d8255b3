"""The four program versions of the paper's evaluation (section V-A).

* **OpenMP** -- the multicore baseline, all Fig. 7 numbers are relative
  to it;
* **PGI OpenACC** -- a single-GPU commercial OpenACC compile: our
  translator restricted to one GPU with the multi-GPU-oriented
  optimizations (layout transformation, check elision) disabled;
* **CUDA** -- hand-written single-GPU programs against the raw virtual
  CUDA API (:mod:`repro.apps.cuda_baselines`);
* **Proposal** -- the full system on 1..3 GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..api import compile as compile_acc
from ..apps.base import AppSpec
from ..apps.cuda_baselines import bfs_cuda, kmeans_cuda, md_cuda
from ..cpu.openmp import run_openmp
from ..runtime.config import RunConfig
from ..translator.compiler import CompileOptions
from ..vcuda.memory import PURPOSE_SYSTEM, PURPOSE_USER
from ..vcuda.profiler import TimeBreakdown
from ..vcuda.specs import MACHINES, MachineSpec

VERSIONS = ("openmp", "pgi", "cuda", "proposal")

_CUDA_BASELINES = {"md": md_cuda, "kmeans": kmeans_cuda, "bfs": bfs_cuda}


@dataclass
class VersionResult:
    """One (app, version, machine, ngpus) measurement."""

    app: str
    version: str
    machine: str
    ngpus: int
    elapsed: float
    breakdown: TimeBreakdown | None = None
    mem_user: int = 0
    mem_system: int = 0
    kernel_executions: int = 0
    #: The run's :class:`repro.trace.Tracer` when tracing was requested
    #: (proposal/pgi versions only; else None).
    tracer: Any | None = None

    @property
    def label(self) -> str:
        if self.version in ("openmp",):
            return "OpenMP"
        if self.version == "pgi":
            return "PGI(1)"
        if self.version == "cuda":
            return "CUDA(1)"
        return f"Proposal({self.ngpus})"


def _resolve_machine(machine: str | MachineSpec) -> tuple[str, MachineSpec]:
    if isinstance(machine, str):
        return machine, MACHINES[machine]
    return machine.name, machine


def run_version(
    app: AppSpec,
    version: str,
    machine: str | MachineSpec,
    ngpus: int = 1,
    workload: str = "bench",
    check: bool = False,
    config: RunConfig | None = None,
) -> VersionResult:
    """Run one version of one app and collect its measurements;
    ``config`` configures the proposal's runs."""
    mname, spec = _resolve_machine(machine)
    args = app.args_for(workload)
    snap = app.snapshot(args) if check else None

    if version == "openmp":
        r = run_openmp(compile_acc(app.source).compiled, app.entry, args, spec)
        result = VersionResult(app=app.name, version=version, machine=mname,
                               ngpus=0, elapsed=r.elapsed,
                               kernel_executions=len(r.loop_stats))
    elif version == "cuda":
        if app.name not in _CUDA_BASELINES:
            raise KeyError(f"no hand-CUDA baseline for app {app.name!r}")
        r = _CUDA_BASELINES[app.name](spec, args)
        result = VersionResult(app=app.name, version=version, machine=mname,
                               ngpus=1, elapsed=r.elapsed,
                               kernel_executions=r.kernel_launches)
    elif version in ("pgi", "proposal"):
        if version == "pgi":
            options = CompileOptions(layout_transform=False,
                                     elide_write_checks=False)
            ngpus = 1
        else:
            options = CompileOptions()
        prog = compile_acc(app.source, options)
        run = prog.run(app.entry, args, machine=spec, ngpus=ngpus,
                       config=config)
        result = VersionResult(
            app=app.name, version=version, machine=mname, ngpus=ngpus,
            elapsed=run.elapsed, breakdown=run.breakdown,
            mem_user=run.memory_high_water(PURPOSE_USER),
            mem_system=run.memory_high_water(PURPOSE_SYSTEM),
            kernel_executions=len(run.loop_stats),
            tracer=run.tracer,
        )
    else:
        raise ValueError(f"unknown version {version!r}; pick from {VERSIONS}")

    if check:
        assert snap is not None
        app.check(args, snap)
    return result
