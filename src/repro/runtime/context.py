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

A synchronous loop that repeats a launch whose every array skipped its
reload skips the map step's build: the executor places the
:class:`LaunchGraph` it recorded (see :meth:`AccExecutor.run_loop`).
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
from .comm import CommunicationManager, HaloRecord
from .config import RunConfig
from .data_loader import DataLoader, ManagedArray
from .kernelctx import KernelContext, ScratchArena
from .partition import split_tasks, window_free_names
from .reduction_rt import finalize_scalar_reductions

#: Write handlings whose post-kernel traffic is a function of the
#: layout alone (halo refreshes at most), so a launch graph can hold it.
_REPLAYABLE = (WriteHandling.NONE, WriteHandling.LOCAL_PROVEN)


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
    """One GPU's launch node: the launch as priced for the trip counts
    ``dyn_counts``."""

    config: LaunchConfig
    dyn_counts: dict[str, int] | None = None
    work: KernelWork | None = None
    seconds: float = 0.0


@dataclass
class LaunchGraph:
    """One synchronous launch of a plan, recorded to be replayed.

    Recorded at a launch whose every array skipped its reload; replayed
    while :meth:`AccExecutor._graph_key` returns the key it was recorded
    under, which pins everything the build read besides the kernel's own
    data and the live timelines.
    """

    key: tuple
    tasks: list[tuple[int, int]]
    #: Per GPU, ``None`` where the slice is empty.
    kernels: list[GpuLaunch | None]
    halos: HaloRecord


@dataclass
class PlanMemo:
    """What the executor keeps of one plan between its launches."""

    #: Pinned: the memo is found by ``id(plan)``.
    plan: Any
    #: The host scalars the ``localaccess`` bounds read, or ``None`` when
    #: no launch of the plan can be replayed (:func:`_bound_names`).
    bounds: tuple[str, ...] | None
    #: The configs object and the ``(array, version)`` pairs the
    #: contexts were built for; the pairs also pin the arrays a graph's
    #: key names by ``id``.
    configs: Any = None
    versions: list[tuple[ManagedArray, int]] = field(default_factory=list)
    #: Per-GPU kernel contexts with their argument bindings.
    contexts: list[KernelContext] = field(default_factory=list)
    graph: LaunchGraph | None = None


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
        self._multinode = platform.machine.node_count > 1
        #: Telemetry: launches replayed from a graph.
        self.graph_replays = 0
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
        """Run ``plan`` over ``[lower, upper)``: build, compute and place,
        communicate.  A launch whose key (:meth:`_graph_key`) is that of
        the plan's recorded :class:`LaunchGraph` skips the build and
        places the graph's priced launches and halo transfers; a built
        launch that skipped every reload records one."""
        memo = self._memo(plan)
        key = self._graph_key(plan, lower, upper, host_env)
        graph = memo.graph
        hit = key is not None and graph is not None and graph.key == key
        scalars = self._scalars(plan, host_env)
        stats = LoopRunStats(kernel_name=plan.name)
        # Step 1: map (the build), skipped on a graph hit.
        if hit:
            stats.tasks = list(graph.tasks)
            # What ensure_for_loop does for an array that skips.
            self.loader.reloads_skipped += len(memo.versions)
            for ma, _ in memo.versions:
                ma.reduction_identity = None
        elif self._build(memo, plan, lower, upper, host_env, stats):
            key = None  # this launch loaded: nothing to record
        tasks, configs = stats.tasks, memo.configs
        nodes = graph.kernels if hit else [None] * len(tasks)

        # Step 2: compute, price and place.
        kern0 = self.platform.clock.elapsed_in(CATEGORY_KERNELS)
        profiler = self.platform.profiler
        profiler.note_loop_call(plan.name)
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
            if node is None:
                node = nodes[g] = GpuLaunch(self._launch_cfg(plan, n))
            if node.dyn_counts != ctx.dyn_counts:
                # A fresh node, or other trip counts on the same slice.
                node.dyn_counts = dict(ctx.dyn_counts)
                node.work = plan.cost.total(n, ctx.dyn_counts)
                node.seconds = self.platform.devices[g].kernel_time(
                    node.work, node.config)
            per_gpu_seconds[g], count = self._place(plan, g, n, node,
                                                    configs)
            profiler.record_kernel(plan.name, g, per_gpu_seconds[g],
                                   launches=count, iterations=n)
            if self.tracer is not None:
                fusion = getattr(plan, "fusion_members", None)
                for rec in self.platform.devices[g].launches[-count:]:
                    self.tracer.kernel_event(rec, iterations=n,
                                             fusion=fusion)
        if not self.config.overlap:
            stats.kernel_seconds = self.platform.sync_devices()
        stats.dyn_counts = [dict(c.dyn_counts) for c in contexts]
        if self.sanitizer is not None:
            # Dirty-bit soundness, while the bits are still set.
            self.sanitizer.after_kernels(plan)

        # Step 3: communicate.
        if hit:
            stats.comm_seconds = self.comm.replay_halos(graph.halos)
            self.graph_replays += 1
        else:
            stats.comm_seconds = self.comm.after_kernels(configs)
            if key is not None:
                memo.graph = LaunchGraph(key, tasks, nodes,
                                         self.comm.record_halos(configs))
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

    # -- build and launch graphs -----------------------------------------------

    def _memo(self, plan: KernelPlanLike) -> PlanMemo:
        memo = self._plans.get(id(plan))
        if memo is None or memo.plan is not plan:
            memo = self._plans[id(plan)] = PlanMemo(plan, _bound_names(plan))
        return memo

    def _build(self, memo: PlanMemo, plan: KernelPlanLike, lower: int,
               upper: int, host_env: dict[str, Any],
               stats: LoopRunStats) -> bool:
        """Map: split the iteration space into ``stats.tasks``, make every
        array resident, and revalidate or rebuild the plan's contexts for
        ``memo.configs``.  Returns whether any array reloaded."""
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
        skipped = self.loader.reloads_skipped
        self.loader.ensure_for_loop(configs, tasks, plan.loop_var, host_env)
        loaded = self.loader.reloads_skipped - skipped < len(configs)
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
        return loaded

    def _bind(self, memo: PlanMemo, configs: dict) -> None:
        """Build one context per GPU with every argument binding (buffer
        views, base offsets, trackers, miss buffers, windows) of
        ``configs``; a launch refreshes only its slice, scalars and
        result slots.  A graph recorded over the old contexts goes."""
        arrays = [self.loader._get(name) for name in configs]
        memo.configs = configs
        memo.versions = [(ma, ma.version) for ma in arrays]
        memo.contexts = []
        memo.graph = None
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

    def _graph_key(self, plan: KernelPlanLike, lower: int, upper: int,
                   host_env: dict[str, Any]) -> tuple | None:
        """What the build of a synchronous launch of ``plan`` reads
        besides the live timelines, or ``None`` when the launch
        can be neither recorded nor replayed.

        The key holds the bounds, and per array its ``ManagedArray``
        (by identity: a graph pins the objects), ``version``, ``valid``,
        ``signature`` and ``skip_invalidated``, and the type and value of
        every host scalar the ``localaccess`` bounds read -- what
        :meth:`DataLoader.ensure_for_loop` decides a reload skip from.
        Overlap and adaptive mode, a tracer or sanitizer, a multi-node
        machine, a queued transfer, and a plan with an array whose
        coherence traffic depends on the launch's data (dirty bits, miss
        checks, reductions) or whose window bound reads a host array
        all give ``None``.
        """
        loader = self.loader
        if (self.config.overlap or self.config.adaptive
                or self.tracer is not None or self.sanitizer is not None
                or loader.tracer is not None or loader.sanitizer is not None
                or self._multinode or self.platform.bus.pending_count()):
            return None
        names = self._memo(plan).bounds
        if names is None:
            return None
        key: list = [lower.__class__, lower, upper.__class__, upper]
        arrays = loader.arrays
        for name in plan.config.arrays:
            ma = arrays.get(name)
            if ma is None:
                return None
            key += (id(ma), ma.version, ma.valid, ma.signature,
                    ma.skip_invalidated)
        for n in names:
            v = host_env.get(n)
            if not isinstance(v, (int, float, np.generic)):
                return None
            # 1 == 1.0 == True, but C division differs by type.
            key += (v.__class__, v)
        return tuple(key)

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

    def _place(self, plan: KernelPlanLike, g: int, n: int, node: GpuLaunch,
               configs: dict) -> tuple[float, int]:
        """Put GPU ``g``'s priced launch of ``n`` iterations on its
        timeline; returns the launched seconds and launch count
        (profiler feedback).

        Synchronous mode places it at the host clock.  Overlap mode
        waits only for the arrays this kernel touches, and splits off
        the halo boundary when that lets the interior start before
        inbound halos land.
        """
        dev = self.platform.devices[g]
        now = ready = self.platform.clock.now
        if self.config.overlap:
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
                seconds = []
                for part, m, floor in (("[int]", n - n_bnd, ready_int),
                                       ("[bnd]", n_bnd, ready)):
                    work = node.work.scaled(m / n)
                    cfg = self._launch_cfg(plan, m)
                    seconds.append(dev.kernel_time(work, cfg))
                    dev.place_launch(plan.name + part, work, cfg,
                                     seconds[-1], now, floor)
                return seconds[0] + seconds[1], 2
        dev.place_launch(plan.name, node.work, node.config, node.seconds,
                         now, ready)
        return node.seconds, 1

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


def _bound_names(plan: KernelPlanLike) -> tuple[str, ...] | None:
    """The host scalars the ``localaccess`` bounds of ``plan`` read, or
    ``None`` when no launch of it can be replayed: an array's coherence
    traffic depends on the launch's data, or a bound reads a host array."""
    names: list[str] = []
    for cfg in plan.config.arrays.values():
        if cfg.write_handling not in _REPLAYABLE:
            return None
        if cfg.placement == Placement.DISTRIBUTED and cfg.window is not None:
            free = window_free_names(cfg.window)
            if free is None:
                return None
            names += [n for n in free
                      if n != plan.loop_var and n not in names]
    return tuple(names)
