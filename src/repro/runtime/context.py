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

Every launch runs all three steps through one body
(:meth:`AccExecutor.run_loop`); what a plan keeps between launches is
its contexts and each GPU's priced launch (:class:`PlanMemo`).
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
from ..vcuda.device import KernelWork, LaunchConfig
from .balancer import AdaptiveBalancer
from .comm import CommunicationManager
from .config import RunConfig
from .data_loader import DataLoader, ManagedArray
from .kernelctx import KernelContext, ScratchArena
from .partition import split_tasks
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

    def execute(self, ctx: KernelContext) -> None: ...


@dataclass
class LoopRunStats:
    """Telemetry of one parallel-loop execution (tests/benchmarks)."""

    kernel_name: str = ""
    tasks: list[tuple[int, int]] = field(default_factory=list)
    kernel_seconds: float = 0.0
    load_seconds: float = 0.0
    comm_seconds: float = 0.0
    dyn_counts: list[dict[str, int]] = field(default_factory=list)


@dataclass(slots=True)
class GpuLaunch:
    """One GPU's launch of ``n`` iterations, priced for the trip counts
    ``dyn_counts``; ``halves`` are its priced interior and boundary
    sub-launches when overlap mode splits off ``n_bnd`` boundary
    iterations."""

    n: int
    dyn_counts: dict[str, int]
    work: KernelWork
    config: LaunchConfig
    seconds: float
    n_bnd: int = 0
    halves: tuple = ()


@dataclass
class PlanMemo:
    """What the executor keeps of one plan between its launches."""

    #: Pinned: the memo is found by ``id(plan)``.
    plan: Any
    #: Per GPU, the latest priced launch (``None`` before the first).
    nodes: list[GpuLaunch | None]
    #: The configs object and the ``(array, version)`` pairs the
    #: contexts were built for.
    configs: Any = None
    versions: list[tuple[ManagedArray, int]] = field(default_factory=list)
    #: Per-GPU kernel contexts with their argument bindings.
    contexts: list[KernelContext] = field(default_factory=list)


class AccExecutor:
    """Multi-GPU executor bound to one platform."""

    def __init__(self, platform: Platform,
                 config: RunConfig | None = None) -> None:
        self.platform = platform
        #: The run's flags (:class:`RunConfig`).
        self.config = config = config or RunConfig()
        self.loader = loader = DataLoader(platform, config)
        #: Opt-in coherence sanitizer (:mod:`repro.sanitizer`).  None by
        #: default: the hot path pays a single ``is None`` test per loop.
        self.sanitizer = None
        if config.sanitize:
            from ..sanitizer import Sanitizer

            self.sanitizer = loader.sanitizer = Sanitizer(loader)
            for dev in platform.devices:
                dev.memory.poison_on_free = True
        #: Opt-in structured tracer (:mod:`repro.trace`), a pure
        #: observer like the sanitizer.
        self.tracer = tracer = None
        if config.trace:
            from ..trace import Tracer

            self.tracer = loader.tracer = tracer = Tracer(
                ngpus=platform.ngpus, machine=platform.machine.name)
            platform.clock.observer = tracer.on_clock
            platform.bus.observer = tracer.on_transfer
        self.comm = CommunicationManager(platform, loader, config, tracer)
        #: One :class:`PlanMemo` per plan, keyed by ``id``.
        self._plans: dict[int, PlanMemo] = {}
        #: Kernel scratch, one arena per device, alive for this run.
        self._arenas = [ScratchArena() for _ in range(platform.ngpus)]
        #: Halo-split stride qualification per array config (overlap
        #: mode re-derives it every launch otherwise).
        self._stride_qual: dict[int, tuple[Any, Any]] = {}
        self.balancer = None
        if config.adaptive:
            self.balancer = AdaptiveBalancer(platform, loader)
            self.balancer.tracer = tracer
        self.history: list[LoopRunStats] = []
        if config.overlap:
            platform.enable_overlap_accounting()
            loader.pre_access_hook = self._host_access_barrier

    # -- main entry ------------------------------------------------------------

    def run_loop(
        self,
        plan: KernelPlanLike,
        lower: int,
        upper: int,
        host_env: dict[str, Any],
    ) -> LoopRunStats:
        """Run ``plan`` over ``[lower, upper)``: map (:meth:`_build`),
        compute, price and place (:meth:`_place`), then communicate
        (:meth:`CommunicationManager.after_kernels`)."""
        memo = self._memo(plan)
        scalars = self._scalars(plan, host_env)
        stats = LoopRunStats(kernel_name=plan.name)
        # Step 1: map.
        self._build(memo, plan, lower, upper, host_env, stats)
        tasks, configs, nodes = stats.tasks, memo.configs, memo.nodes

        # Step 2: compute, price and place.
        kern0 = self.platform.clock.elapsed_in(CATEGORY_KERNELS)
        devices = self.platform.devices
        per_gpu_seconds = [0.0] * self.platform.ngpus
        contexts = memo.contexts
        for g, (t0, t1) in enumerate(tasks):
            ctx = contexts[g]
            ctx.i0, ctx.i1, ctx.scalars = t0, t1, dict(scalars)
            ctx.dyn_counts, ctx.scalar_results, ctx.scalar_ops = {}, {}, {}
            plan.execute(ctx)
            n = t1 - t0
            if n <= 0:
                continue
            node = nodes[g]
            # The price is a pure function of the plan's cost info and
            # launch geometry, n, the trip counts and device g's spec,
            # so the node stands while n and the trip counts do.
            if (node is None or node.n != n
                    or node.dyn_counts != ctx.dyn_counts):
                node = nodes[g] = GpuLaunch(
                    n, dict(ctx.dyn_counts),
                    *self._price(plan, g, n, plan.cost.total(
                        n, ctx.dyn_counts)))
            placed = len(devices[g].launches)
            per_gpu_seconds[g] = self._place(plan, g, node, configs)
            if self.tracer is not None:
                fusion = getattr(plan, "fusion_members", None)
                for rec in devices[g].launches[placed:]:
                    self.tracer.kernel_event(rec, iterations=n,
                                             fusion=fusion)
        if not self.config.overlap:
            stats.kernel_seconds = self.platform.sync_devices()
        stats.dyn_counts = [dict(c.dyn_counts) for c in contexts]
        if self.sanitizer is not None:
            # Dirty-bit soundness, while the bits are still set.
            self.sanitizer.after_kernels(plan)

        # Step 3: communicate.
        stats.comm_seconds = self.comm.after_kernels(configs)
        if self.config.overlap:
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
        if self.config.adaptive and self.balancer is not None:
            self.balancer.observe(plan, tasks, per_gpu_seconds,
                                  self.comm.last_call_bytes)
        if self.tracer is not None:
            self.tracer.end_loop(self.platform.clock.now)
        self.history.append(stats)
        return stats

    # -- map --------------------------------------------------------------------

    def _memo(self, plan: KernelPlanLike) -> PlanMemo:
        memo = self._plans.get(id(plan))
        if memo is None or memo.plan is not plan:
            memo = self._plans[id(plan)] = PlanMemo(
                plan, [None] * self.platform.ngpus)
        return memo

    def _build(self, memo: PlanMemo, plan: KernelPlanLike, lower: int,
               upper: int, host_env: dict[str, Any],
               stats: LoopRunStats) -> None:
        """Map: split the iteration space into ``stats.tasks``, make every
        array resident, and revalidate or rebuild the plan's contexts for
        ``memo.configs``."""
        if self.tracer is not None:
            # Before planning, so balancer decisions (resplits,
            # placement switches) attribute to this loop.
            self.tracer.enter_loop(plan.name)
        if self.config.adaptive and self.balancer is not None:
            tasks = self.balancer.plan_tasks(plan, lower, upper)
            configs = self.balancer.effective_configs(plan)
        else:
            tasks = split_tasks(lower, upper, self.platform.ngpus)
            configs = plan.config.arrays
        stats.tasks = tasks
        if self.tracer is not None:
            self.tracer.loop_started(self.platform.clock.now, tasks)
        # (The window evaluator only reads host_env, so no defensive
        # copy per launch.)
        self.loader.ensure_for_loop(configs, tasks, plan.loop_var, host_env)
        bus = self.platform.bus
        if bus.pending_count():
            if self.config.overlap:
                # GPU-GPU traffic from earlier loops may still be in
                # flight; wait only for this loop's host transfers.
                stats.load_seconds = bus.sync_category(CATEGORY_CPU_GPU)
            else:
                stats.load_seconds = bus.sync()
        if self.sanitizer is not None:
            # Pre-launch invariants + shadow run (oracle).
            self.sanitizer.before_kernels(plan, configs, tasks, host_env)
        if memo.configs is not configs or any(
                ma.version != v for ma, v in memo.versions):
            self._bind(memo, configs)

    def _bind(self, memo: PlanMemo, configs: dict) -> None:
        """Build one context per GPU with every argument binding (buffer
        views, base offsets, trackers, miss buffers, windows) of
        ``configs``; a launch refreshes only its slice, scalars and
        result slots."""
        arrays = [self.loader._get(name) for name in configs]
        memo.configs = configs
        memo.versions = [(ma, ma.version) for ma in arrays]
        memo.contexts = []
        for g, arena in enumerate(self._arenas):
            ctx = KernelContext(device_index=g, i0=0, i1=0,
                                trace=self.tracer, arena=arena)
            for ma, (name, cfg) in zip(arrays, configs.items()):
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
            memo.contexts.append(ctx)

    @staticmethod
    def _scalars(plan: KernelPlanLike,
                 host_env: dict[str, Any]) -> dict[str, Any]:
        scalars = {}
        for n in plan.scalar_names:
            if n not in host_env:
                raise KeyError(
                    f"kernel {plan.name!r} needs host scalar {n!r} which is "
                    "not defined")
            scalars[n] = host_env[n]
        return scalars

    # -- launch helpers -----------------------------------------------------------

    def _launch_cfg(self, plan: KernelPlanLike, n: int) -> LaunchConfig:
        block = getattr(plan, "block_dim", None) or 256
        cfg = LaunchConfig.for_tasks(n, block_dim=block)
        max_gangs = getattr(plan, "max_gangs", None)
        if max_gangs is not None:
            cfg = LaunchConfig(grid_dim=min(cfg.grid_dim, max_gangs),
                               block_dim=cfg.block_dim)
        return cfg

    def _price(self, plan: KernelPlanLike, g: int, n: int,
               work: KernelWork) -> tuple[KernelWork, LaunchConfig, float]:
        """``work`` of ``n`` iterations on GPU ``g``, with its launch
        geometry and seconds."""
        cfg = self._launch_cfg(plan, n)
        return work, cfg, self.platform.devices[g].kernel_time(work, cfg)

    def _place(self, plan: KernelPlanLike, g: int, node: GpuLaunch,
               configs: dict) -> float:
        """Put GPU ``g``'s priced launch on its timeline; returns the
        launched seconds.

        Synchronous mode places it at the host clock.  Overlap mode
        waits only for the arrays this kernel touches, and splits off
        the halo boundary when that lets the interior start before
        inbound halos land.
        """
        dev = self.platform.devices[g]
        now = ready = self.platform.clock.now
        if self.config.overlap:
            n = node.n
            ready = self.comm.ready_time(g, configs)
            ready_int = self.comm.ready_time(g, configs, interior=True)
            split = (self._split_geometry(g, configs)
                     if ready > ready_int + 1e-15 else None)
            n_bnd = min(n, split[0] + split[1]) if split else 0
            if 0 < n_bnd < n:
                # Interior/boundary split: the interior sub-launch reads
                # no in-flight halo element and starts as soon as the
                # device is free; the boundary sub-launch waits for the
                # halos.  Two launches pay extra launch overhead and
                # reduced occupancy -- the honest cost of the overlap.
                if node.n_bnd != n_bnd:
                    node.n_bnd = n_bnd
                    node.halves = tuple(
                        self._price(plan, g, m, node.work.scaled(m / n))
                        for m in (n - n_bnd, n_bnd))
                for part, (work, cfg, seconds), floor in zip(
                        ("[int]", "[bnd]"), node.halves, (ready_int, ready)):
                    dev.place_launch(plan.name + part, work, cfg, seconds,
                                     now, floor)
                return node.halves[0][2] + node.halves[1][2]
        dev.place_launch(plan.name, node.work, node.config, node.seconds,
                         now, ready)
        return node.seconds

    def _split_geometry(self, g: int,
                        configs: dict) -> tuple[int, int] | None:
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
        for name, cfg in configs.items():
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
