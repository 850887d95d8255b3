"""Simulated OpenMP CPU baseline (the denominator of Fig. 7).

Executes the same compiled program with every parallel loop run on the
host CPU: one single-address-space "device" covering the whole
iteration space, no data transfers, and a multicore cost model.

The cost model mirrors the GPU one (roofline over the statically
counted work), with CPU characteristics:

* compute throughput = sockets x cores x SIMD FLOPs/cycle x clock,
  derated by the OpenMP parallel efficiency;
* memory throughput = aggregate socket bandwidth; random traffic is
  rescaled from the GPU cost model's inflation to the CPU's own
  penalty (a latency-bound multicore pays ~10x raw bytes on dependent
  random access, vs the model's 4x GPU inflation).

Functionally the kernels run in permissive mode: stores go straight to
the host arrays, reductions accumulate onto the host initial values --
exactly OpenMP shared-memory semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..runtime.kernelctx import KernelContext
from ..translator.compiler import CompiledProgram, KernelPlan
from ..translator.host import HostExecutor, RunResult
from ..vcuda.clock import VirtualClock
from ..vcuda.device import KernelWork
from ..vcuda.specs import MachineSpec

CATEGORY_CPU = "CPU"

#: Ratio applied to the cost collector's (GPU-inflated) random bytes to
#: get the CPU-equivalent traffic: ~12x raw over the collector's 4x GPU
#: inflation -- dependent random gathers on a Westmere-class core are
#: latency-bound at ~2 GB/s, far below streaming bandwidth.
_CPU_RANDOM_RESCALE = 12.0 / 4.0
#: Parallel-region entry/exit overhead (fork/join + barrier).
_OMP_REGION_OVERHEAD = 4e-6


@dataclass
class CpuLoopStats:
    kernel_name: str
    n_iterations: int
    seconds: float
    dyn_counts: dict[str, int] = field(default_factory=dict)


class CpuPlatform:
    """Minimal platform: a clock and the CPU spec."""

    def __init__(self, machine: MachineSpec, threads: int | None = None) -> None:
        self.machine = machine
        self.clock = VirtualClock()
        self.threads = threads if threads is not None \
            else machine.total_cpu_threads

    def loop_time(self, work: KernelWork) -> float:
        cpu = self.machine.cpu
        sockets = self.machine.cpu_sockets
        # Hyper-threads add little FLOP throughput; cores are the resource.
        peak = cpu.peak_sp_flops * sockets * cpu.omp_efficiency
        ops = work.flops + 0.5 * work.int_ops
        compute_t = ops / peak
        bw = cpu.mem_bandwidth * sockets
        mem_t = (work.coalesced_bytes
                 + work.random_bytes * _CPU_RANDOM_RESCALE) / bw
        return _OMP_REGION_OVERHEAD + max(compute_t, mem_t) * work.serialization

    def elapsed(self) -> float:
        return self.clock.now


class OpenMPExecutor:
    """Executor with the AccExecutor run_loop interface, CPU-backed."""

    def __init__(self, platform: CpuPlatform, engine: str = "vector") -> None:
        self.platform = platform
        self.engine = engine
        self.history: list[CpuLoopStats] = []
        self.loader = _NullLoader()

    def run_loop(self, plan: KernelPlan, lower: int, upper: int,
                 host_env: dict[str, Any]) -> CpuLoopStats:
        scalars = {n: host_env[n] for n in plan.scalar_names}
        ctx = KernelContext(device_index=0, i0=lower, i1=upper,
                            scalars=scalars, permissive=True)
        for name in plan.config.arrays:
            arr = host_env.get(name)
            if not isinstance(arr, np.ndarray):
                raise KeyError(
                    f"loop {plan.name!r} uses array {name!r} which is not in "
                    "the host environment")
            ctx.arrays[name] = arr
            ctx.base[name] = 0
        plan.execute(ctx, self.engine)
        n = max(0, upper - lower)
        work = plan.cost.total(n, ctx.dyn_counts)
        seconds = self.platform.loop_time(work) if n else 0.0
        self.platform.clock.advance(seconds, CATEGORY_CPU)
        # Scalar reductions fold straight into the host variables.
        for name, partial in ctx.scalar_results.items():
            op = ctx.scalar_ops[name]
            from ..translator.kernel_support import red_fold

            initial = host_env[name]
            final = red_fold(op, partial, np.asarray(initial), None, 1)
            host_env[name] = int(final) \
                if isinstance(initial, (int, np.integer)) else float(final)
        stats = CpuLoopStats(kernel_name=plan.name, n_iterations=n,
                             seconds=seconds, dyn_counts=dict(ctx.dyn_counts))
        self.history.append(stats)
        return stats


class _NullLoader:
    """Data-region no-op: the CPU shares the host address space."""

    def __init__(self) -> None:
        self.arrays: dict[str, Any] = {}
        self._stack: list[list[str]] = []

    def enter_region(self, sections) -> None:
        names = []
        for name, arr, _kind in sections:
            self.arrays[name] = arr
            names.append(name)
        self._stack.append(names)

    def exit_region(self) -> None:
        for name in self._stack.pop():
            self.arrays.pop(name, None)

    def update_host(self, names) -> None:
        pass

    def update_device(self, names) -> None:
        pass

    def before_host_write(self, host) -> None:
        pass


@dataclass
class OpenMPRun:
    """Outcome of an OpenMP-baseline execution."""

    result: RunResult
    platform: CpuPlatform
    loop_stats: list[CpuLoopStats]

    @property
    def elapsed(self) -> float:
        return self.platform.elapsed()

    @property
    def value(self) -> Any:
        return self.result.value


def run_openmp(
    compiled: CompiledProgram,
    entry: str,
    args: dict[str, Any],
    machine: MachineSpec,
    engine: str = "vector",
    threads: int | None = None,
) -> OpenMPRun:
    """Run the program as its OpenMP version on ``machine``'s CPUs."""
    platform = CpuPlatform(machine, threads)
    executor = OpenMPExecutor(platform, engine=engine)
    host = HostExecutor(compiled, executor)  # type: ignore[arg-type]
    result = host.call(entry, args)
    return OpenMPRun(result=result, platform=platform,
                     loop_stats=list(executor.history))
