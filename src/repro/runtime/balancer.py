"""Profile-guided adaptive task mapping and placement switching.

The static executor follows the paper exactly: equal iteration-space
splits (section IV-B2) and compile-time placement policies (IV-C).
Both decisions are blind to the machine actually running the program --
a mixed-generation node leaves the fast GPUs idle while the slow ones
finish, and a replica array whose dirty broadcasts dwarf its halo
traffic keeps paying the full all-to-all price.

:class:`AdaptiveBalancer` closes both loops:

* **Task mapping.**  Per parallel loop it keeps an estimated
  *iteration rate* (iterations/second) for every GPU.  The prior comes
  from the translator's static :class:`~repro.translator.cost.KernelCostInfo`
  priced through each device's roofline model -- so even a loop that
  runs *once* (MD's force kernel) gets a weighted split on its first
  call.  Measured per-GPU kernel times then refine the rates with an
  exponential moving average.  New weights are applied only when they
  move past a hysteresis band, and :func:`split_tasks_weighted`
  enforces a minimum chunk per GPU; otherwise the split from the
  previous call is reused so the data loader's reload skipping keeps
  firing.

* **Placement advisory.**  For replica arrays written under dirty-bit
  tracking whose every access the compiler proved affine in the loop
  variable (``ArrayConfig.inferred_window``), the advisor compares the
  observed dirty-broadcast volume against a model of the windowed
  (distributed) propagation volume.  When broadcasts exceed the model
  by ``demote_factor`` the array is demoted to distribution for that
  loop; when observed halo/windowed traffic later dominates the
  remembered broadcast volume the array is promoted back.  A cooldown
  keeps the policy from thrashing.  The switch is sound because both
  kernel engines address arrays relative to ``ctx.base``: placement is
  purely a data-loader decision.

Everything here is advisory: the executor consults the balancer only
when its run's config sets ``adaptive``, and the static path is
untouched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..translator.array_config import ArrayConfig, Placement, WriteHandling
from ..vcuda.device import LaunchConfig
from .partition import split_tasks_hierarchical, split_tasks_weighted

if TYPE_CHECKING:
    from ..vcuda.api import Platform
    from .data_loader import DataLoader


@dataclass
class LoopBalanceState:
    """Balancing history of one parallel loop."""

    #: Weights last *applied* to a split (normalized, one per GPU).
    weights: list[float]
    #: Estimated iteration rate per GPU (iterations/second); starts at
    #: the roofline prior, refined by measurement.
    rates: list[float]
    #: Whether ``rates[g]`` has absorbed at least one measurement.
    measured: list[bool] = field(default_factory=list)
    calls: int = 0
    #: Number of times the applied weights actually changed.
    resplits: int = 0
    #: Split-consistency group this loop belongs to (loops sharing
    #: distributed arrays use one weight vector).
    group: int = -1


@dataclass
class ArrayPolicyState:
    """Placement advisory state of one (loop, array) pair."""

    demoted: bool = False
    #: Calls remaining before the next switch is allowed.
    cooldown: int = 0
    calls: int = 0
    #: EMA of observed replica dirty-broadcast bytes per call.
    replica_bytes_avg: float = 0.0
    #: EMA of observed windowed/halo propagation bytes per call.
    windowed_bytes_avg: float = 0.0
    switches: int = 0


class AdaptiveBalancer:
    """Keeps per-loop rate estimates and per-array placement advice."""

    def __init__(
        self,
        platform: "Platform",
        loader: "DataLoader | None" = None,
        *,
        alpha: float = 0.5,
        hysteresis: float = 0.05,
        min_chunk: int = 1,
        demote_factor: float = 1.5,
        promote_factor: float = 1.25,
        min_calls: int = 2,
        cooldown: int = 3,
        min_traffic_bytes: int = 4096,
        model_iters: int = 40,
        starve_threshold: float = 0.01,
    ) -> None:
        self.platform = platform
        self.loader = loader
        #: Opt-in tracer: resplits and placement switches emit decision
        #: events.  Set by the executor when tracing is enabled.
        self.tracer: Any | None = None
        #: EMA smoothing for measured rates (1.0 = trust only the last).
        self.alpha = alpha
        #: Re-split only when some GPU's target weight moved by more
        #: than this fraction of the iteration space.
        self.hysteresis = hysteresis
        self.min_chunk = min_chunk
        self.demote_factor = demote_factor
        self.promote_factor = promote_factor
        #: Observations required before the advisor may switch.
        self.min_calls = min_calls
        #: Calls between placement switches of the same array.
        self.cooldown = cooldown
        #: Broadcast volume below this never triggers a demotion (the
        #: per-transfer latency floor makes tiny windowed transfers a
        #: wash).
        self.min_traffic_bytes = min_traffic_bytes
        #: Fixed-point iterations of the roofline prior.  The per-task
        #: speed of a GPU depends on its slice size (occupancy), so the
        #: balanced split is a fixed point, not a single evaluation:
        #: under-occupied devices get slower as their slice shrinks,
        #: which can legitimately drive their share toward zero.
        self.model_iters = model_iters
        #: A GPU whose converged weight falls below this is starved
        #: entirely (zero tasks): its kernel contribution is noise, but
        #: keeping it active costs real fixed overheads -- a launch, a
        #: distributed-block load, and membership in every replica
        #: broadcast (one latency-bound transfer per source per level).
        self.starve_threshold = starve_threshold
        self.loops: dict[str, LoopBalanceState] = {}
        self.arrays: dict[tuple[str, str], ArrayPolicyState] = {}
        #: Applied weight vectors shared across loops: a loop whose
        #: target lands within the hysteresis band of a vector another
        #: loop already uses adopts that exact vector, so loops with
        #: near-identical balance produce *identical* splits and the
        #: data loader's reload skipping keeps firing across them.
        self._applied_vectors: list[list[float]] = []
        #: Split-consistency groups: loops that touch the same
        #: distributed array must split identically, or every call
        #: alternation re-places that array (reload/migration churn
        #: that dwarfs any kernel-balance gain).  Maps group id ->
        #: shared weight vector; the group's vector is set by its
        #: first-seen (typically dominant) loop.
        self._group_weights: dict[int, list[float]] = {}
        self._group_owner: dict[int, str] = {}
        self._array_group: dict[str, int] = {}
        self._next_group = 0
        #: Loops observed touching each array name (placement advisor
        #: guard: never demote an array several loops share).
        self._array_loops: dict[str, set[str]] = {}

    # -- task mapping ----------------------------------------------------------

    def plan_tasks(self, plan: Any, lower: int,
                   upper: int) -> list[tuple[int, int]]:
        """Weighted contiguous split of ``[lower, upper)`` for ``plan``."""
        ngpus = self.platform.ngpus
        total = max(0, upper - lower)
        st = self.loops.get(plan.name)
        if st is None:
            gid = self._group_for(plan)
            weights, rates = self._model_split(plan, total)
            weights = self._starve(weights)
            if gid in self._group_weights:
                # A loop sharing distributed arrays already fixed the
                # group's split: adopt it verbatim so those arrays are
                # not re-placed on every loop alternation.
                weights = self._group_weights[gid]
            else:
                weights = self._canonical(weights)
                self._group_weights[gid] = weights
                self._group_owner[gid] = plan.name
            st = LoopBalanceState(weights=weights, rates=rates,
                                  measured=[False] * ngpus, group=gid)
            self.loops[plan.name] = st
        else:
            applied = self._group_weights.get(st.group, st.weights)
            if self._group_owner.get(st.group) == plan.name:
                # Only the group's first (dominant) loop may move the
                # shared vector -- members following their own targets
                # would make the group oscillate.
                target = self._starve(self._normalize(st.rates))
                if max(abs(t - w)
                       for t, w in zip(target, applied)) > self.hysteresis:
                    new = self._canonical(target)
                    if new != applied:
                        self._group_weights[st.group] = new
                        st.resplits += 1
                        if self.tracer is not None:
                            from ..trace.events import EVENT_RESPLIT

                            self.tracer.emit(
                                EVENT_RESPLIT, plan.name,
                                start=self.platform.clock.now,
                                weights=list(new), previous=list(applied))
                            self.tracer.metrics.count(
                                "resplits", 1, loop=plan.name)
            st.weights = self._group_weights.get(st.group, st.weights)
        st.calls += 1
        if self.platform.node_count > 1:
            # Two-level mapping on a cluster: split across nodes by
            # aggregate node weight (throughput), then across each
            # node's GPUs by its members' weights.  Single-node
            # machines keep the flat splitter verbatim.
            node_ranges = [
                (r.start, r.stop)
                for r in (self.platform.node_devices(n)
                          for n in range(self.platform.node_count))
            ]
            return split_tasks_hierarchical(lower, upper, st.weights,
                                            node_ranges, self.min_chunk)
        return split_tasks_weighted(lower, upper, st.weights, self.min_chunk)

    def _group_for(self, plan: Any) -> int:
        """Split-consistency group of ``plan``: loops sharing an array
        that is (or may become) distributed must split identically."""
        names = [n for n, c in plan.config.arrays.items()
                 if c.placement == Placement.DISTRIBUTED
                 or c.inferred_span is not None]
        gid = None
        for n in names:
            if n in self._array_group:
                gid = self._array_group[n]
                break
        if gid is None:
            gid = self._next_group
            self._next_group += 1
        for n in names:
            self._array_group.setdefault(n, gid)
        return gid

    def _model_split(self, plan: Any,
                     total: int) -> tuple[list[float], list[float]]:
        """Fixed point of the roofline prior: weights and final rates.

        Starts from the equal split and alternates "rate the devices at
        the current slice sizes" with "re-split by those rates".  Rates
        use a neutral dynamic guess of one inner trip per outer
        iteration; only the ratio between devices matters.  Because an
        under-occupied device's time is flat in its slice size, its
        rate falls as its share shrinks -- the iteration then correctly
        starves devices that cannot pull their weight at any size.
        """
        ngpus = self.platform.ngpus
        cost = getattr(plan, "cost", None)
        if cost is None or total <= 0:
            eq = [1.0 / ngpus] * ngpus
            return eq, [1.0] * ngpus
        block = getattr(plan, "block_dim", None) or 256
        sizes = [max(total // ngpus, 1)] * ngpus
        weights = [1.0 / ngpus] * ngpus
        rates = [1.0] * ngpus
        for _ in range(self.model_iters):
            rates = []
            for g, dev in enumerate(self.platform.devices):
                n = max(sizes[g], 1)
                dyn = {label: n for label in cost.inner_labels()}
                work = cost.total(n, dyn)
                seconds = dev.kernel_time(
                    work, LaunchConfig.for_tasks(n, block_dim=block))
                rates.append(n / seconds if seconds > 0 else 1.0)
            new = self._normalize(rates)
            if max(abs(a - b) for a, b in zip(new, weights)) < 1e-3:
                weights = new
                break
            weights = new
            sizes = [int(total * w) for w in weights]
        return weights, rates

    def _starve(self, weights: list[float]) -> list[float]:
        """Zero out GPUs below the starvation threshold and renormalize.

        A weight this small means the device cannot do useful work at
        any slice size (its time is flat in the slice, so the fixed
        point starved it); dropping it to zero tasks removes its fixed
        per-call overheads entirely.
        """
        w = [0.0 if x < self.starve_threshold else x for x in weights]
        s = sum(w)
        if s <= 0.0:
            return weights
        return [x / s for x in w]

    def _canonical(self, target: list[float]) -> list[float]:
        """Reuse an already-applied weight vector within the hysteresis
        band of ``target``, so near-identical loops split identically."""
        for vec in self._applied_vectors:
            if max(abs(a - b) for a, b in zip(vec, target)) <= self.hysteresis:
                return vec
        vec = list(target)
        self._applied_vectors.append(vec)
        return vec

    @staticmethod
    def _normalize(rates: list[float]) -> list[float]:
        w = [max(0.0, float(r)) for r in rates]
        s = sum(w)
        if s <= 0.0 or not all(np.isfinite(x) for x in w):
            return [1.0 / len(rates)] * len(rates)
        return [x / s for x in w]

    # -- measurement feedback ---------------------------------------------------

    def observe(
        self,
        plan: Any,
        tasks: list[tuple[int, int]],
        per_gpu_seconds: list[float],
        comm_bytes: dict[str, dict[str, int]] | None = None,
    ) -> None:
        """Fold one execution's measurements into the loop state.

        ``per_gpu_seconds`` are the measured kernel seconds per GPU
        (0 for GPUs with empty slices); ``comm_bytes`` is the
        communication manager's per-array byte accounting of the call
        just finished (``CommunicationManager.last_call_bytes``).
        """
        st = self.loops.get(plan.name)
        if st is not None:
            for g, (t0, t1) in enumerate(tasks):
                n = max(0, t1 - t0)
                secs = per_gpu_seconds[g] if g < len(per_gpu_seconds) else 0.0
                if n <= 0 or secs <= 0.0:
                    continue
                rate = n / secs
                if st.measured[g]:
                    st.rates[g] = ((1.0 - self.alpha) * st.rates[g]
                                   + self.alpha * rate)
                else:
                    st.rates[g] = rate
                    st.measured[g] = True
        self._advise_placement(plan, tasks, comm_bytes or {})

    # -- placement advisory -----------------------------------------------------

    def _advise_placement(
        self,
        plan: Any,
        tasks: list[tuple[int, int]],
        comm_bytes: dict[str, dict[str, int]],
    ) -> None:
        for name in plan.config.arrays:
            self._array_loops.setdefault(name, set()).add(plan.name)
        for name, cfg in plan.config.arrays.items():
            if cfg.write_handling != WriteHandling.DIRTY_BITS:
                continue
            if cfg.placement != Placement.REPLICA or cfg.inferred_span is None:
                continue
            if len(self._array_loops.get(name, ())) > 1:
                # Another loop touches this array under its own (likely
                # replica) policy: demoting it here would re-place the
                # array on every loop alternation.
                continue
            st = self.arrays.setdefault((plan.name, name), ArrayPolicyState())
            st.calls += 1
            if st.cooldown > 0:
                st.cooldown -= 1
            stats = comm_bytes.get(name, {})
            if "replica" in stats:
                st.replica_bytes_avg = self._ema(
                    st.replica_bytes_avg, stats["replica"], st)
            if "windowed" in stats:
                st.windowed_bytes_avg = self._ema(
                    st.windowed_bytes_avg, stats["windowed"], st)
            if "halo" in stats:
                st.windowed_bytes_avg = self._ema(
                    st.windowed_bytes_avg, stats["halo"], st)
            if st.cooldown > 0 or st.calls < self.min_calls:
                continue
            if not st.demoted:
                est = self._windowed_estimate(cfg, tasks, name)
                if (st.replica_bytes_avg > self.min_traffic_bytes
                        and st.replica_bytes_avg
                        > self.demote_factor * est):
                    st.demoted = True
                    st.cooldown = self.cooldown
                    st.switches += 1
                    self._note_switch(name, "demote")
            else:
                if (st.windowed_bytes_avg * self.promote_factor
                        >= st.replica_bytes_avg
                        and st.replica_bytes_avg > 0.0):
                    st.demoted = False
                    st.cooldown = self.cooldown
                    st.switches += 1
                    self._note_switch(name, "promote")

    def _note_switch(self, name: str, direction: str) -> None:
        """Placement switch decided: the loader's reload-skip fast path
        for this array is stale until the next load/migration (the old
        layout no longer matches what the switched placement will
        request, even where the signature tuple still compares equal)."""
        if self.loader is not None:
            self.loader.note_placement_switch(name)
        if self.tracer is not None:
            from ..trace.events import EVENT_PLACEMENT_SWITCH

            self.tracer.emit(EVENT_PLACEMENT_SWITCH, name,
                             start=self.platform.clock.now, array=name,
                             direction=direction)
            self.tracer.metrics.count("placement_switches", 1, array=name,
                                      direction=direction)

    def _ema(self, avg: float, value: float, st: ArrayPolicyState) -> float:
        if avg <= 0.0:
            return float(value)
        return (1.0 - self.alpha) * avg + self.alpha * float(value)

    def _windowed_estimate(self, cfg: ArrayConfig,
                           tasks: list[tuple[int, int]], name: str) -> float:
        """Modeled windowed-propagation bytes per call after demotion.

        With the inferred span ``[coeff*i + lo, coeff*i + hi]`` and a
        contiguous split, adjacent slices' windows overlap by at most
        ``hi - lo + 1 - coeff`` elements per boundary; only dirty
        elements inside an overlap travel, in both directions.
        """
        assert cfg.inferred_span is not None
        coeff, lo_c, hi_c = cfg.inferred_span
        overlap = max(0, hi_c - lo_c + 1 - coeff)
        active = sum(1 for t0, t1 in tasks if t1 > t0)
        itemsize = 8
        if self.loader is not None:
            ma = self.loader.arrays.get(name)
            if ma is not None:
                itemsize = ma.itemsize
        return 2.0 * max(0, active - 1) * overlap * itemsize

    # -- config rewriting -------------------------------------------------------

    def effective_configs(self, plan: Any) -> dict[str, ArrayConfig]:
        """Array configs of ``plan`` with the advisor's demotions applied."""
        configs: dict[str, ArrayConfig] = plan.config.arrays
        out: dict[str, ArrayConfig] | None = None
        for name, cfg in configs.items():
            st = self.arrays.get((plan.name, name))
            if st is None or not st.demoted:
                continue
            if cfg.inferred_window is None or cfg.placement != Placement.REPLICA:
                continue
            if out is None:
                out = dict(configs)
            out[name] = dataclasses.replace(
                cfg,
                placement=Placement.DISTRIBUTED,
                window=cfg.inferred_window)
        return out if out is not None else configs

    # -- introspection ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Telemetry for tests and benchmark reports."""
        return {
            "loops": {
                name: {
                    "weights": list(st.weights),
                    "rates": list(st.rates),
                    "calls": st.calls,
                    "resplits": st.resplits,
                }
                for name, st in self.loops.items()
            },
            "arrays": {
                f"{loop}:{arr}": {
                    "demoted": st.demoted,
                    "switches": st.switches,
                    "replica_bytes_avg": st.replica_bytes_avg,
                    "windowed_bytes_avg": st.windowed_bytes_avg,
                }
                for (loop, arr), st in self.arrays.items()
            },
        }
