"""Adaptive task mapping and placement switching (runtime/balancer.py).

Unit coverage of the balancer mechanics (model prior, hysteresis,
starvation, split-consistency groups, placement advisor), the loader's
delta migration, the per-loop profiler accounting, and end-to-end
parity: ``adaptive=True`` must never change program results, only
timing.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps import ALL_APPS
from repro.bench.machines import hypothetical_node, mixed_node
from repro.frontend.parser import parse_expr
from repro.runtime.balancer import AdaptiveBalancer
from repro.runtime.config import RunConfig
from repro.runtime.data_loader import DataLoader
from repro.runtime.partition import Block, split_tasks
from repro.translator.array_config import (
    ArrayConfig,
    Placement,
    ReadWindow,
    WriteHandling,
)
from repro.vcuda import DESKTOP_MACHINE, Platform
from repro.vcuda.profiler import LoopKernelStats, Profiler
from repro.vcuda.specs import TESLA_C1060, TESLA_M2050
from tests.util import run_source


def fake_plan(name, arrays=None, cost=None):
    return SimpleNamespace(name=name, cost=cost,
                           config=SimpleNamespace(arrays=arrays or {}))


def dist_cfg(name):
    w = ReadWindow(lower=parse_expr("i"), upper=parse_expr("i"))
    return ArrayConfig(name=name, ctype="float", read=True,
                       placement=Placement.DISTRIBUTED, window=w)


def replica_span_cfg(name, coeff=1, lo=0, hi=0):
    w = ReadWindow(lower=parse_expr(f"{coeff}*i + {lo}"),
                   upper=parse_expr(f"{coeff}*i + {hi}"))
    return ArrayConfig(name=name, ctype="float", read=True, written=True,
                       placement=Placement.REPLICA,
                       write_handling=WriteHandling.DIRTY_BITS,
                       inferred_window=w, inferred_span=(coeff, lo, hi))


# ---------------------------------------------------------------------------
# Profiler per-loop accounting (satellite: launch counts / busy time by
# loop id).
# ---------------------------------------------------------------------------


class TestLoopKernelStats:
    def make(self, ngpus=3):
        p = Platform(DESKTOP_MACHINE, min(ngpus, 2))
        return Profiler(p.clock, ngpus=ngpus)

    def test_record_accumulates_per_gpu(self):
        prof = self.make(ngpus=2)
        prof.note_loop_call("L0")
        prof.record_kernel("L0", 0, 0.5, launches=1, iterations=100)
        prof.record_kernel("L0", 1, 0.25, launches=2, iterations=60)
        prof.record_kernel("L0", 1, 0.25, launches=1, iterations=60)
        st = prof.kernel_stats("L0")
        assert st.calls == 1
        assert st.launches == [1, 3]
        assert st.busy_seconds == [0.5, 0.5]
        assert st.iterations == [100, 120]
        assert st.total_launches == 4
        assert st.total_busy_seconds == 1.0

    def test_loops_keyed_independently(self):
        prof = self.make()
        prof.record_kernel("a", 0, 1.0)
        prof.record_kernel("b", 0, 2.0)
        assert prof.kernel_stats("a").busy_seconds[0] == 1.0
        assert prof.kernel_stats("b").busy_seconds[0] == 2.0
        assert prof.kernel_stats("nope") is None

    def test_preallocates_all_gpu_slots(self):
        prof = self.make(ngpus=3)
        prof.note_loop_call("L")
        st = prof.kernel_stats("L")
        assert len(st.launches) == 3 and st.launches == [0, 0, 0]

    def test_e2e_run_populates_loop_stats(self):
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        run = prog.run(spec.entry, spec.args_for("tiny"),
                       machine="desktop", ngpus=2)
        stats = run.platform.profiler.loop_kernels
        assert stats, "no per-loop kernel stats recorded"
        for st_ in stats.values():
            assert isinstance(st_, LoopKernelStats)
            assert st_.calls >= 1
            assert st_.total_launches >= st_.calls
            assert st_.total_busy_seconds > 0.0
            assert sum(st_.iterations) > 0


# ---------------------------------------------------------------------------
# Heterogeneous machine plumbing.
# ---------------------------------------------------------------------------


class TestMixedMachine:
    def test_mixed_node_alternates_specs(self):
        spec = mixed_node()
        assert spec.gpu_count == 4
        assert [g.name for g in spec.gpu_specs] == [
            TESLA_M2050.name, TESLA_C1060.name,
            TESLA_M2050.name, TESLA_C1060.name]
        assert spec.is_heterogeneous
        assert "C1060" in spec.gpu_mix_label and "M2050" in spec.gpu_mix_label

    def test_platform_devices_use_per_slot_specs(self):
        p = Platform(mixed_node(), 4)
        assert p.devices[0].spec is TESLA_M2050
        assert p.devices[1].spec is TESLA_C1060

    def test_uniform_node_not_heterogeneous(self):
        spec = hypothetical_node(4)
        assert not spec.is_heterogeneous
        assert spec.gpu_mix_label == TESLA_M2050.name


# ---------------------------------------------------------------------------
# Balancer task mapping mechanics.
# ---------------------------------------------------------------------------


class TestBalancerMapping:
    def make(self, machine=None, ngpus=2, **kw):
        p = Platform(machine or DESKTOP_MACHINE, ngpus)
        return AdaptiveBalancer(p, **kw)

    def test_no_cost_prior_is_equal_split(self):
        bal = self.make()
        tasks = bal.plan_tasks(fake_plan("L"), 0, 10)
        assert tasks == split_tasks(0, 10, 2)
        assert bal.loops["L"].weights == [0.5, 0.5]

    def test_measured_feedback_resplits(self):
        bal = self.make()
        plan = fake_plan("L")
        tasks = bal.plan_tasks(plan, 0, 100)
        # GPU 0 measured 3x faster than GPU 1 at equal slices.
        bal.observe(plan, tasks, [1.0, 3.0])
        tasks2 = bal.plan_tasks(plan, 0, 100)
        sizes = [b - a for a, b in tasks2]
        assert sizes[0] > sizes[1]
        assert bal.loops["L"].resplits == 1

    def test_hysteresis_suppresses_small_moves(self):
        bal = self.make(hysteresis=0.05)
        plan = fake_plan("L")
        tasks = bal.plan_tasks(plan, 0, 100)
        # 51/49 balance: inside the 5% band, keep the old split so
        # reload skipping keeps firing.
        bal.observe(plan, tasks, [0.98, 1.02])
        assert bal.plan_tasks(plan, 0, 100) == tasks
        assert bal.loops["L"].resplits == 0

    def test_starve_zeroes_tiny_weights(self):
        bal = self.make(ngpus=2)
        assert bal._starve([0.005, 0.995]) == [0.0, 1.0]
        # All-starved degenerates to the input (never all-zero).
        assert bal._starve([0.001, 0.002]) == [0.001, 0.002]

    def test_canonical_vector_shared_across_loops(self):
        bal = self.make()
        a, b = fake_plan("A"), fake_plan("B")
        ta = bal.plan_tasks(a, 0, 100)
        tb = bal.plan_tasks(b, 0, 100)
        bal.observe(a, ta, [1.0, 3.0])
        bal.observe(b, tb, [1.02, 2.95])
        ta2 = bal.plan_tasks(a, 0, 100)
        tb2 = bal.plan_tasks(b, 0, 100)
        # Near-identical targets adopt one canonical vector: the splits
        # coincide exactly, so the loader sees one signature.
        assert ta2 == tb2

    def test_group_members_follow_owner(self):
        bal = self.make()
        arrays = {"d": dist_cfg("d")}
        owner = fake_plan("A", arrays)
        member = fake_plan("B", arrays)
        to = bal.plan_tasks(owner, 0, 100)
        tm = bal.plan_tasks(member, 0, 100)
        assert bal.loops["A"].group == bal.loops["B"].group
        # The member measures wildly different balance; only the owner
        # may move the shared vector, so nothing changes.
        bal.observe(member, tm, [1.0, 9.0])
        assert bal.plan_tasks(member, 0, 100) == tm
        assert bal.loops["B"].resplits == 0
        # The owner's measurement does move the group.
        bal.observe(owner, to, [1.0, 9.0])
        t2 = bal.plan_tasks(owner, 0, 100)
        assert t2 != to
        assert bal.plan_tasks(member, 0, 100) == t2

    def test_unrelated_loops_get_separate_groups(self):
        bal = self.make()
        a = fake_plan("A", {"x": dist_cfg("x")})
        b = fake_plan("B", {"y": dist_cfg("y")})
        bal.plan_tasks(a, 0, 10)
        bal.plan_tasks(b, 0, 10)
        assert bal.loops["A"].group != bal.loops["B"].group


class TestModelPrior:
    def test_mixed_node_prior_skews_toward_fermi(self):
        # The roofline fixed point on the mixed node: a C1060 at any
        # slice size is under-occupied on these kernels (its per-call
        # time is flat), so its share collapses and the starvation rule
        # zeroes it.  MD's single-shot force loop gets this split on
        # its *first* call -- no measurement needed.
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        plans = [p for p in prog.compiled.plans
                 if getattr(p, "cost", None) is not None]
        assert plans, "md has no costed plans"
        bal = AdaptiveBalancer(Platform(mixed_node(), 4))
        weights, _ = bal._model_split(plans[0], 100_000)
        weights = bal._starve(weights)
        m2050 = weights[0] + weights[2]
        assert m2050 > 0.7, weights
        assert weights[0] > weights[1] and weights[2] > weights[3], weights

    def test_uniform_node_prior_is_equal(self):
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        plans = [p for p in prog.compiled.plans
                 if getattr(p, "cost", None) is not None]
        bal = AdaptiveBalancer(Platform(hypothetical_node(4), 4))
        weights, _ = bal._model_split(plans[0], 100_000)
        assert max(abs(w - 0.25) for w in weights) < 1e-6


# ---------------------------------------------------------------------------
# Placement advisor.
# ---------------------------------------------------------------------------


class TestPlacementAdvisor:
    def make(self, **kw):
        p = Platform(DESKTOP_MACHINE, 2)
        kw.setdefault("min_calls", 2)
        kw.setdefault("cooldown", 2)
        return AdaptiveBalancer(p, **kw)

    def observe_replica(self, bal, plan, nbytes, calls=1):
        tasks = [(0, 50), (50, 100)]
        for _ in range(calls):
            bal.observe(plan, tasks, [1.0, 1.0],
                        {"a": {"replica": nbytes}})

    def test_demotes_heavy_broadcaster(self):
        bal = self.make()
        plan = fake_plan("L", {"a": replica_span_cfg("a")})
        self.observe_replica(bal, plan, 1 << 20, calls=2)
        st = bal.arrays[("L", "a")]
        assert st.demoted and st.switches == 1
        eff = bal.effective_configs(plan)
        assert eff["a"].placement == Placement.DISTRIBUTED
        assert eff["a"].window is plan.config.arrays["a"].inferred_window
        # The plan's own config is untouched (copy-on-write).
        assert plan.config.arrays["a"].placement == Placement.REPLICA

    def test_small_traffic_never_demotes(self):
        bal = self.make()
        plan = fake_plan("L", {"a": replica_span_cfg("a")})
        self.observe_replica(bal, plan, 128, calls=6)
        assert not bal.arrays[("L", "a")].demoted

    def test_min_calls_gates_first_switch(self):
        bal = self.make(min_calls=3)
        plan = fake_plan("L", {"a": replica_span_cfg("a")})
        self.observe_replica(bal, plan, 1 << 20, calls=2)
        assert not bal.arrays[("L", "a")].demoted
        self.observe_replica(bal, plan, 1 << 20, calls=1)
        assert bal.arrays[("L", "a")].demoted

    def test_cooldown_and_promotion(self):
        bal = self.make(cooldown=2)
        plan = fake_plan("L", {"a": replica_span_cfg("a")})
        self.observe_replica(bal, plan, 1 << 20, calls=2)
        st = bal.arrays[("L", "a")]
        assert st.demoted
        # Windowed traffic now dominating the remembered broadcast
        # volume argues for promotion, but the cooldown holds first.
        tasks = [(0, 50), (50, 100)]
        bal.observe(plan, tasks, [1.0, 1.0],
                    {"a": {"windowed": 4 << 20}})
        assert st.demoted  # still cooling down
        bal.observe(plan, tasks, [1.0, 1.0],
                    {"a": {"windowed": 4 << 20}})
        bal.observe(plan, tasks, [1.0, 1.0],
                    {"a": {"windowed": 4 << 20}})
        assert not st.demoted and st.switches == 2

    def test_shared_array_never_demoted(self):
        bal = self.make()
        arrays = {"a": replica_span_cfg("a")}
        p1, p2 = fake_plan("L1", arrays), fake_plan("L2", arrays)
        self.observe_replica(bal, p1, 1 << 20, calls=1)
        # A second loop touches 'a': from now on the advisor must not
        # demote it for either loop (re-placement churn on alternation).
        self.observe_replica(bal, p2, 1 << 20, calls=3)
        self.observe_replica(bal, p1, 1 << 20, calls=3)
        assert not any(st.demoted for st in bal.arrays.values())

    def test_effective_configs_identity_without_demotions(self):
        bal = self.make()
        plan = fake_plan("L", {"a": replica_span_cfg("a")})
        assert bal.effective_configs(plan) is plan.config.arrays


# ---------------------------------------------------------------------------
# Delta migration in the data loader.
# ---------------------------------------------------------------------------


class TestDeltaMigration:
    def ensure(self, dl, configs, tasks):
        dl.ensure_for_loop(configs, tasks, "i", {})
        if dl.platform.bus.pending_count():
            dl.platform.bus.sync()

    def test_distributed_resplit_migrates_not_reloads(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p, RunConfig(adaptive=True))
        host = np.arange(100, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = dist_cfg("a")
        self.ensure(dl, {"a": c}, [(0, 50), (50, 100)])
        loads0 = dl.loads
        self.ensure(dl, {"a": c}, [(0, 70), (70, 100)])
        assert dl.migrations == 1
        assert dl.loads == loads0  # no full reload
        ma = dl.arrays["a"]
        assert ma.blocks[0] == Block(0, 70)
        assert ma.blocks[1] == Block(70, 100)
        np.testing.assert_array_equal(ma.buffers[0].data, host[:70])
        np.testing.assert_array_equal(ma.buffers[1].data, host[70:])

    def test_same_split_still_skips(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p, RunConfig(adaptive=True))
        host = np.arange(100, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = dist_cfg("a")
        tasks = [(0, 50), (50, 100)]
        self.ensure(dl, {"a": c}, tasks)
        skipped0 = dl.reloads_skipped
        self.ensure(dl, {"a": c}, tasks)
        assert dl.reloads_skipped == skipped0 + 1
        assert dl.migrations == 0

    def test_idle_gpu_holds_no_replica(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p, RunConfig(adaptive=True))
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = ArrayConfig(name="a", ctype="float", read=True)
        self.ensure(dl, {"a": c}, [(0, 10), (10, 10)])
        ma = dl.arrays["a"]
        assert ma.blocks[0] == Block(0, 10)
        assert ma.blocks[1].size == 0
        assert ma.buffers[1] is None or ma.buffers[1].data.size == 0

    def test_static_loader_keeps_full_replicas_on_idle_gpus(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)  # adaptive off: paper behavior
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = ArrayConfig(name="a", ctype="float", read=True)
        self.ensure(dl, {"a": c}, [(0, 10), (10, 10)])
        assert dl.arrays["a"].blocks[1] == Block(0, 10)

    def test_placement_switch_invalidates_reload_skip(self):
        # Regression: after the balancer switches an array's placement
        # the loader's "same access pattern" fast path must not trust
        # the stale signature -- the buffers it would skip re-checking
        # were materialized under the old placement.
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p, RunConfig(adaptive=True))
        host = np.arange(100, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = dist_cfg("a")
        tasks = [(0, 50), (50, 100)]
        self.ensure(dl, {"a": c}, tasks)
        skipped0 = dl.reloads_skipped
        loads0, migs0 = dl.loads, dl.migrations
        dl.note_placement_switch("a")
        self.ensure(dl, {"a": c}, tasks)
        assert dl.reloads_skipped == skipped0  # fast path suppressed
        assert dl.loads + dl.migrations > loads0 + migs0
        # The invalidation is one-shot: the next stable ensure skips.
        skipped1 = dl.reloads_skipped
        self.ensure(dl, {"a": c}, tasks)
        assert dl.reloads_skipped == skipped1 + 1

    def test_note_placement_switch_on_unknown_array_is_noop(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        dl.note_placement_switch("ghost")  # must not raise


# ---------------------------------------------------------------------------
# End-to-end: adaptive changes timing, never results.
# ---------------------------------------------------------------------------

RELAX_SRC = r"""
void relax(int n, int iters, float *a, float *b) {
  #pragma acc data copy(a[0:n], b[0:n])
  {
    for (int it = 0; it < iters; it++) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        a[i] = a[i] * 0.5f + b[i];
      }
    }
  }
}
"""


def relax_args(n=4096, iters=8, seed=0):
    rng = np.random.default_rng(seed)
    return {"n": n, "iters": iters,
            "a": rng.standard_normal(n).astype(np.float32),
            "b": rng.standard_normal(n).astype(np.float32)}


class TestAdaptiveParity:
    @pytest.mark.parametrize("app", ["md", "bfs"])
    def test_apps_bit_identical_on_mixed_node(self, app):
        spec = ALL_APPS[app]
        prog = repro.compile(spec.source)
        outs = {}
        for adaptive in (False, True):
            args = spec.args_for("tiny")
            prog.run(spec.entry, args, machine=mixed_node(), ngpus=4,
                     adaptive=adaptive)
            outs[adaptive] = {k: np.asarray(args[k]).copy()
                              for k in spec.outputs}
        for k in spec.outputs:
            np.testing.assert_array_equal(outs[False][k], outs[True][k])

    def test_kmeans_matches_reference_adaptively(self):
        spec = ALL_APPS["kmeans"]
        prog = repro.compile(spec.source)
        args = spec.args_for("tiny")
        inputs = spec.snapshot(args)
        prog.run(spec.entry, args, machine=mixed_node(), ngpus=4,
                 adaptive=True)
        spec.check(args, inputs)

    def test_relax_demotes_and_stays_bit_identical(self):
        # infer=False: localaccess inference would distribute a/b at
        # compile time, leaving the balancer no replica to demote --
        # this test covers the runtime demotion path specifically.
        prog = repro.compile(RELAX_SRC,
                             repro.CompileOptions(infer=False))
        outs = {}
        runs = {}
        for adaptive in (False, True):
            args = relax_args(n=200_000, iters=12)
            run = prog.run("relax", args, machine="desktop", ngpus=2,
                           adaptive=adaptive)
            outs[adaptive] = args["a"].copy()
            runs[adaptive] = run
        np.testing.assert_array_equal(outs[False], outs[True])
        snap = runs[True].executor.balancer.snapshot()
        demoted = [a for a in snap["arrays"].values() if a["demoted"]]
        assert demoted, snap["arrays"]
        # The replica->distributed switch moves data by delta migration,
        # not reloads, and the windowed path beats the broadcasts.
        assert runs[True].executor.loader.migrations >= 1
        assert runs[True].breakdown.gpu_gpu < runs[False].breakdown.gpu_gpu

    def test_relax_demote_runs_clean_under_sanitizer(self):
        # A placement switch mid-run exercises the invalidated reload-
        # skip path and the windowed-propagation coherence machinery;
        # the sanitizer must find nothing to complain about.
        # (infer=False so a/b start replicated -- see the parity test.)
        prog = repro.compile(RELAX_SRC,
                             repro.CompileOptions(infer=False))
        args = relax_args(n=200_000, iters=12)
        run = prog.run("relax", args, machine="desktop", ngpus=2,
                       adaptive=True, sanitize=True)
        snap = run.executor.balancer.snapshot()
        assert any(a["demoted"] for a in snap["arrays"].values())
        assert run.sanitizer.loops_checked == 12

    def test_reload_skip_survives_stable_adaptive_split(self):
        # Regression: with an unchanged split the adaptive loader must
        # keep skipping reloads exactly like the static one.
        prog = repro.compile(RELAX_SRC)
        skips = {}
        for adaptive in (False, True):
            args = relax_args(n=2048, iters=10)
            run = prog.run("relax", args, machine="desktop", ngpus=2,
                           adaptive=adaptive)
            skips[adaptive] = run.executor.loader.reloads_skipped
        assert skips[True] > 0
        assert skips[True] >= skips[False] - 2  # demotion may re-place once

    def test_uniform_node_adaptive_matches_static_timing(self):
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        elapsed = {}
        for adaptive in (False, True):
            args = spec.args_for("tiny")
            run = prog.run(spec.entry, args, machine=hypothetical_node(4),
                           ngpus=4, adaptive=adaptive)
            elapsed[adaptive] = run.elapsed
        assert elapsed[True] == pytest.approx(elapsed[False], rel=1e-6)


class TestAdaptiveOracle:
    """Property: adaptive vector execution equals the scalar interpreter
    oracle bit-for-bit on elementwise programs, machine regardless."""

    @given(n=st.integers(16, 400), iters=st.integers(1, 4),
           ngpus=st.integers(1, 4), seed=st.integers(0, 10))
    @settings(max_examples=12, deadline=None)
    def test_relax_matches_interp_oracle(self, n, iters, ngpus, seed):
        oracle, _ = run_source(RELAX_SRC, relax_args(n, iters, seed),
                               ngpus=1, interp=True)
        got, _ = run_source(RELAX_SRC, relax_args(n, iters, seed),
                            ngpus=ngpus, machine=mixed_node(),
                            adaptive=True)
        np.testing.assert_array_equal(got["a"], oracle["a"])
