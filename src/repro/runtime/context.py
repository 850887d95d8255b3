"""Execution context: runs one compiled parallel loop on the platform.

Implements the paper's three BSP steps (section III-A) for every
parallel loop:

1. **Map**: split the iteration space into equal blocks, one per GPU,
   and have the data loader make every array resident under its
   placement policy (``CPU-GPU`` time).
2. **Compute**: run the kernel on each GPU's slice; launches on
   different GPUs overlap, and each launch is priced by the static cost
   model combined with the dynamic trip counts the kernel reported
   (``KERNELS`` time).
3. **Communicate**: the inter-GPU communication manager propagates
   replica writes, routes write misses, refreshes halos and merges
   reductions (``GPU-GPU`` time); scalar reductions finalize into the
   host environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from ..frontend.analysis import const_value
from ..translator.array_config import LoopConfig, Placement, WriteHandling
from ..translator.cost import KernelCostInfo
from ..vcuda.api import Platform
from ..vcuda.bus import CATEGORY_CPU_GPU, CATEGORY_KERNELS
from ..vcuda.device import LaunchConfig
from .balancer import AdaptiveBalancer
from .comm import CommunicationManager
from .data_loader import DataLoader
from .kernelctx import KernelContext, ScratchArena
from .reduction_rt import finalize_scalar_reductions


class KernelPlanLike(Protocol):
    """What the executor needs from a compiled kernel plan."""

    name: str
    config: LoopConfig
    loop_var: str
    scalar_names: list[str]
    cost: KernelCostInfo
    block_dim: int | None
    max_gangs: int | None

    def execute(self, ctx: KernelContext, engine: str) -> None: ...


@dataclass
class LoopRunStats:
    """Telemetry of one parallel-loop execution (tests/benchmarks)."""

    kernel_name: str = ""
    tasks: list[tuple[int, int]] = field(default_factory=list)
    kernel_seconds: float = 0.0
    load_seconds: float = 0.0
    comm_seconds: float = 0.0
    dyn_counts: list[dict[str, int]] = field(default_factory=list)


class AccExecutor:
    """Multi-GPU executor bound to one platform."""

    def __init__(
        self,
        platform: Platform,
        loader: DataLoader | None = None,
        engine: str = "vector",
        tree_reduction: bool = True,
        overlap: bool = False,
        coalesce: bool = False,
        adaptive: bool = False,
        balancer: AdaptiveBalancer | None = None,
        sanitizer: Any | None = None,
        tracer: Any | None = None,
        internode: str = "staged",
        collective: str = "none",
    ) -> None:
        if engine not in ("vector", "interp"):
            raise ValueError("engine must be 'vector' or 'interp'")
        self.platform = platform
        self.loader = loader or DataLoader(platform)
        #: Opt-in coherence sanitizer (:mod:`repro.sanitizer`).  None by
        #: default: the hot path pays a single ``is None`` test per loop.
        self.sanitizer = sanitizer
        if sanitizer is not None:
            self.loader.sanitizer = sanitizer
            sanitizer.engine = engine
        #: Opt-in structured tracer (:mod:`repro.trace`), a pure
        #: observer like the sanitizer.
        self.tracer = tracer
        if tracer is not None:
            self.loader.tracer = tracer
            platform.clock.observer = tracer.on_clock
            platform.bus.observer = tracer.on_transfer
        self.comm = CommunicationManager(platform, self.loader,
                                         tree_reduction=tree_reduction,
                                         overlap=overlap, coalesce=coalesce,
                                         tracer=tracer, internode=internode,
                                         collective=collective)
        #: Per-(plan, GPU) kernel contexts with their argument bindings,
        #: revalidated against each array's version counter.  Values
        #: pin the plan/config objects they were built from so identity
        #: comparisons stay sound.
        self._ctx_cache: dict[tuple[int, int], tuple] = {}
        #: Kernel scratch, one arena per device, alive for this run.
        self._arenas = [ScratchArena() for _ in range(platform.ngpus)]
        #: Halo-split stride qualification per array config (overlap
        #: mode re-derives it every launch otherwise).
        self._stride_qual: dict[int, tuple[Any, Any]] = {}
        #: Asynchronous communication pipelining: kernels of the next
        #: loop gate on per-array comm completion instead of a global
        #: barrier, and waits are attributed by the platform timeline.
        self.overlap = overlap
        self.engine = engine
        #: Profile-guided adaptive mapping + placement switching.
        self.adaptive = adaptive
        self.balancer = balancer
        if adaptive and self.balancer is None:
            self.balancer = AdaptiveBalancer(platform, self.loader)
        if self.tracer is not None and self.balancer is not None:
            self.balancer.tracer = self.tracer
        self.history: list[LoopRunStats] = []
        if overlap:
            platform.enable_overlap_accounting()
            self.loader.pre_access_hook = self._host_access_barrier

    # -- main entry ------------------------------------------------------------

    def run_loop(
        self,
        plan: KernelPlanLike,
        lower: int,
        upper: int,
        host_env: dict[str, Any],
    ) -> LoopRunStats:
        from ..runtime.partition import split_tasks

        stats = LoopRunStats(kernel_name=plan.name)
        if self.tracer is not None:
            # Before planning, so balancer decisions (resplits,
            # placement switches) attribute to this loop.
            self.tracer.enter_loop(plan.name)
        if self.adaptive and self.balancer is not None:
            tasks = self.balancer.plan_tasks(plan, lower, upper)
            configs = self.balancer.effective_configs(plan)
        else:
            tasks = split_tasks(lower, upper, self.platform.ngpus)
            configs = plan.config.arrays
        stats.tasks = tasks
        if self.tracer is not None:
            self.tracer.loop_started(self.platform.clock.now, tasks)

        scalars = {}
        for n in plan.scalar_names:
            if n not in host_env:
                raise KeyError(
                    f"kernel {plan.name!r} needs host scalar {n!r} which is "
                    "not defined")
            scalars[n] = host_env[n]

        # Step 1: mapping + loading.  (The window evaluator only reads
        # host_env, so no defensive copy per launch.)
        self.loader.ensure_for_loop(configs, tasks,
                                    plan.loop_var, host_env)
        if self.platform.bus.pending_count():
            if self.overlap:
                # GPU-GPU traffic from earlier loops may still be in
                # flight; wait only for this loop's host transfers.
                stats.load_seconds = self.platform.bus.sync_category(
                    CATEGORY_CPU_GPU)
            else:
                stats.load_seconds = self.platform.bus.sync()
        if self.sanitizer is not None:
            # Pre-launch invariants + shadow run (oracle).
            self.sanitizer.before_kernels(plan, configs, tasks, host_env)

        # Step 2: compute.
        kern0 = self.platform.clock.elapsed_in(CATEGORY_KERNELS)
        profiler = self.platform.profiler
        profiler.note_loop_call(plan.name)
        per_gpu_seconds = [0.0] * self.platform.ngpus
        contexts: list[KernelContext] = []
        for g, (t0, t1) in enumerate(tasks):
            ctx = self._make_context(g, t0, t1, plan, scalars, configs)
            contexts.append(ctx)
            plan.execute(ctx, self.engine)
            n = max(0, t1 - t0)
            if n == 0:
                continue
            work = plan.cost.total(n, ctx.dyn_counts)
            dev = self.platform.devices[g]
            n_recs = len(dev.launches)
            if self.overlap:
                seconds, launches = self._launch_async(
                    plan, g, t0, t1, work, dev, configs)
            else:
                cfg = self._launch_cfg(plan, n)
                seconds = dev.kernel_time(work, cfg)
                launches = 1
                start = max(dev.busy_until, self.platform.clock.now)
                rec = dev.record_launch(plan.name, work, cfg, seconds)
                rec.start = start
                dev.busy_until = start + seconds
            per_gpu_seconds[g] = seconds
            profiler.record_kernel(plan.name, g, seconds,
                                   launches=launches, iterations=n)
            if self.tracer is not None:
                fusion = getattr(plan, "fusion_members", None)
                for rec in dev.launches[n_recs:]:
                    self.tracer.kernel_event(rec, iterations=n,
                                             fusion=fusion)
        if not self.overlap:
            stats.kernel_seconds = self.platform.sync_devices()
        stats.dyn_counts = [dict(c.dyn_counts) for c in contexts]
        if self.sanitizer is not None:
            # Dirty-bit soundness, while the bits are still set.
            self.sanitizer.after_kernels(plan)

        # Step 3: communicate.
        stats.comm_seconds = self.comm.after_kernels(configs)
        if self.overlap:
            if any(c.scalar_ops for c in contexts):
                # The host consumes the reduction values right after this
                # loop: conservative synchronous fallback (barrier on
                # every queued kernel before the tiny readbacks).
                self.comm._kernel_barrier()
            stats.kernel_seconds = (
                self.platform.clock.elapsed_in(CATEGORY_KERNELS) - kern0)
        finalize_scalar_reductions(
            self.platform,
            [c.scalar_results for c in contexts],
            [c.scalar_ops for c in contexts],
            host_env,
        )
        if self.sanitizer is not None:
            # Replay completeness, replica agreement, localaccess spans,
            # and the oracle diff of every written array and scalar.
            self.sanitizer.after_comm(plan, host_env)
        if self.adaptive and self.balancer is not None:
            self.balancer.observe(plan, tasks, per_gpu_seconds,
                                  self.comm.last_call_bytes)
        if self.tracer is not None:
            self.tracer.end_loop(self.platform.clock.now)
        self.history.append(stats)
        return stats

    # -- launch helpers -----------------------------------------------------------

    def _launch_cfg(self, plan: KernelPlanLike, n: int) -> LaunchConfig:
        block = getattr(plan, "block_dim", None) or 256
        cfg = LaunchConfig.for_tasks(n, block_dim=block)
        max_gangs = getattr(plan, "max_gangs", None)
        if max_gangs is not None:
            cfg = LaunchConfig(grid_dim=min(cfg.grid_dim, max_gangs),
                               block_dim=cfg.block_dim)
        return cfg

    def _launch_async(self, plan: KernelPlanLike, g: int, t0: int, t1: int,
                      work, dev, configs: dict | None = None,
                      ) -> tuple[float, int]:
        """Event-gated launch: wait only for the arrays this kernel
        touches; split off the halo boundary when that lets the interior
        start before inbound halos land (overlap mode).  Returns the
        launched kernel seconds and launch count (profiler feedback)."""
        clock = self.platform.clock
        n = t1 - t0
        arrays = configs if configs is not None else plan.config.arrays
        ready_full = self.comm.ready_time(g, arrays)
        ready_int = self.comm.ready_time(g, arrays, interior=True)
        if ready_full > ready_int + 1e-15:
            split = self._split_geometry(plan, g, arrays)
            if split is not None:
                before, after = split
                n_bnd = min(n, before + after)
                n_int = n - n_bnd
                if n_int > 0 and n_bnd > 0:
                    # Interior/boundary split: the interior sub-launch
                    # reads no in-flight halo element and starts as soon
                    # as the device is free; the boundary sub-launch
                    # waits for the halos.  Two launches pay extra
                    # launch overhead and reduced occupancy -- the
                    # honest cost of the overlap.
                    w_int = work.scaled(n_int / n)
                    w_bnd = work.scaled(n_bnd / n)
                    cfg_i = self._launch_cfg(plan, n_int)
                    s_i = dev.kernel_time(w_int, cfg_i)
                    start = max(dev.busy_until, clock.now, ready_int)
                    rec = dev.record_launch(plan.name + "[int]", w_int,
                                            cfg_i, s_i)
                    rec.start = start
                    dev.busy_until = start + s_i
                    cfg_b = self._launch_cfg(plan, n_bnd)
                    s_b = dev.kernel_time(w_bnd, cfg_b)
                    start = max(dev.busy_until, clock.now, ready_full)
                    rec = dev.record_launch(plan.name + "[bnd]", w_bnd,
                                            cfg_b, s_b)
                    rec.start = start
                    dev.busy_until = start + s_b
                    return s_i + s_b, 2
        cfg = self._launch_cfg(plan, n)
        seconds = dev.kernel_time(work, cfg)
        start = max(dev.busy_until, clock.now, ready_full)
        rec = dev.record_launch(plan.name, work, cfg, seconds)
        rec.start = start
        dev.busy_until = start + seconds
        return seconds, 1

    def _split_geometry(self, plan: KernelPlanLike, g: int,
                        configs: dict | None = None) -> tuple[int, int] | None:
        """Boundary iteration counts ``(before, after)`` of a halo split.

        Only valid when every pending read of this kernel is a
        unit-stride halo'd distributed array: then iteration ``i`` reads
        elements ``[i - left, i + right]`` and exactly the first
        ``primary.lo - blocks.lo`` / last ``blocks.hi - primary.hi``
        iterations of the slice touch in-flight halo elements.
        """
        now = self.platform.clock.now
        before = after = 0
        found = False
        arrays = configs if configs is not None else plan.config.arrays
        for name, cfg in arrays.items():
            pc = self.comm.pending.get(name)
            if pc is None or pc.finish <= now:
                continue
            if cfg.written or not cfg.read:
                continue  # gated via ready_time; no split benefit
            if not pc.halo_only or cfg.placement != Placement.DISTRIBUTED:
                return None
            ent = self._stride_qual.get(id(cfg))
            if ent is not None and ent[0] is cfg:
                stride = ent[1]
            else:
                # Qualify once per config object: the window spec is
                # static, so the evaluated stride cannot change between
                # launches.  ``None`` records a disqualified config.
                spec = cfg.window.spec if cfg.window is not None else None
                if spec is not None:
                    if spec.kind != "stride":
                        stride = None
                    else:
                        stride = (const_value(spec.stride)
                                  if spec.stride is not None else 1)
                elif (cfg.window is not None
                        and cfg.window.origin == "inferred"
                        and cfg.inferred_span is not None):
                    # Compiler-inferred windows carry their static span
                    # directly; they qualify for the halo split exactly
                    # as a declared stride form does.
                    stride = cfg.inferred_span[0]
                else:
                    stride = None
                self._stride_qual[id(cfg)] = (cfg, stride)
            if stride != 1:
                return None
            ma = self.loader._get(name)
            blk, prim = ma.blocks[g], ma.primary[g]
            before = max(before, prim.lo - blk.lo)
            after = max(after, blk.hi - prim.hi)
            found = True
        if not found or before + after <= 0:
            return None
        return before, after

    def _host_access_barrier(self, name: str) -> None:
        """The loader is about to read or replace device buffers of
        ``name`` on the host path: wait for every queued kernel and any
        in-flight communication on that array (overlap mode)."""
        pc = self.comm.pending.pop(name, None)
        target = max([d.busy_until for d in self.platform.devices]
                     + [self.platform.clock.now])
        if pc is not None:
            target = max(target, pc.finish)
        self.platform.timeline_advance(target)

    def finish(self) -> float:
        """End-of-program drain: retire in-flight communication and
        outstanding kernel time so the profiler snapshot is complete,
        and give the kernels' scratch back."""
        for arena in self._arenas:
            arena.release()
        return self.comm.drain()

    # -- context construction ------------------------------------------------------

    def _make_context(self, g: int, t0: int, t1: int,
                      plan: KernelPlanLike, scalars: dict[str, Any],
                      configs: dict | None = None) -> KernelContext:
        arrays = configs if configs is not None else plan.config.arrays
        key = (id(plan), g)
        hit = self._ctx_cache.get(key)
        if hit is not None:
            ctx, c_plan, c_arrays, deps = hit
            if c_plan is plan and c_arrays is arrays and all(
                    ma.version == v for ma, v in deps):
                # Steady-state launch: every binding (buffer views,
                # base offsets, trackers, miss buffers, windows) is
                # unchanged -- refresh only the per-launch slice,
                # scalars and result slots.
                ctx.i0 = t0
                ctx.i1 = t1
                ctx.scalars = dict(scalars)
                ctx.trace = self.tracer
                ctx.dyn_counts = {}
                ctx.scalar_results = {}
                ctx.scalar_ops = {}
                return ctx
        ctx = KernelContext(device_index=g, i0=t0, i1=t1,
                            scalars=dict(scalars), trace=self.tracer,
                            arena=self._arenas[g])
        deps = []
        for name, cfg in arrays.items():
            ma = self.loader._get(name)
            deps.append((ma, ma.version))
            buf = ma.buffers[g]
            if buf is None:
                ctx.arrays[name] = np.empty(0, dtype=ma.host.dtype)
                ctx.base[name] = 0
            else:
                ctx.arrays[name] = buf.data
                ctx.base[name] = ma.blocks[g].lo
            if cfg.write_handling == WriteHandling.DIRTY_BITS:
                tracker = ma.dirty[g]
                assert tracker is not None
                ctx.dirty[name] = tracker
            elif cfg.write_handling == WriteHandling.MISS_CHECK:
                ctx.windows[name] = ma.blocks[g]
                buf_m = ma.miss[g]
                assert buf_m is not None
                ctx.miss[name] = buf_m
            if cfg.write_handling == WriteHandling.REDUCTION:
                ctx.reduction_arrays[name] = ctx.arrays[name]
        self._ctx_cache[key] = (ctx, plan, arrays, deps)
        return ctx
