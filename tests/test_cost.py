"""Cost model tests: collector buckets, access pricing, launch totals,
and what a loop costs when it has no vectorized kernel."""

import numpy as np
import pytest

import repro
from repro.translator.compiler import CompileOptions, compile_source
from repro.translator.cost import (
    ACCESS_BROADCAST,
    ACCESS_COALESCED,
    ACCESS_RANDOM,
    ACCESS_STRIDED,
    CALL_KIND,
    CostCollector,
    KernelCostInfo,
)
from repro.translator.interpreter import _MATH_FUNCS
from repro.translator.vectorizer import _MATH_CALLS
from repro.vcuda.device import KernelWork


class TestCollector:
    def test_base_bucket_default(self):
        c = CostCollector()
        c.flop("+")
        assert c.buckets["base"].flops == 1.0

    def test_push_pop_switches_bucket(self):
        c = CostCollector()
        c.push("L0")
        c.flop("*", 3)
        c.pop()
        c.flop("+")
        assert c.buckets["L0"].flops == 3.0
        assert c.buckets["base"].flops == 1.0

    def test_pop_underflow(self):
        with pytest.raises(RuntimeError):
            CostCollector().pop()

    def test_expensive_ops_cost_more(self):
        c = CostCollector()
        c.flop("sqrt")
        assert c.buckets["base"].flops > 1.0

    def test_access_classes(self):
        c = CostCollector()
        c.access(4, ACCESS_COALESCED)
        c.access(4, ACCESS_BROADCAST)
        c.access(4, ACCESS_STRIDED)
        c.access(4, ACCESS_RANDOM)
        w = c.buckets["base"]
        assert w.coalesced_bytes == pytest.approx(4 + 4 / 32)
        assert w.random_bytes == pytest.approx(4 * 2.5 + 4 * 4.0)

    def test_serialize_keeps_max(self):
        c = CostCollector()
        c.serialize(2.0)
        c.serialize(1.5)
        assert c.buckets["base"].serialization == 2.0


class TestCostInfo:
    def test_total_combines_buckets(self):
        info = KernelCostInfo(buckets={
            "base": KernelWork(flops=2),
            "L0": KernelWork(flops=10),
        })
        w = info.total(5, {"L0": 7})
        assert w.flops == 2 * 5 + 10 * 7

    def test_missing_dyn_total_counts_zero(self):
        info = KernelCostInfo(buckets={"base": KernelWork(flops=1),
                                       "L0": KernelWork(flops=100)})
        assert info.total(3, {}).flops == 3

    def test_inner_labels(self):
        info = KernelCostInfo(buckets={"base": KernelWork(),
                                       "L0": KernelWork()})
        assert info.inner_labels() == ["L0"]


class TestCompiledCosts:
    def compile_kernel(self, src, **opts):
        return compile_source(src, CompileOptions(**opts)).plans[0]

    def test_coalesced_read_detected(self):
        plan = self.compile_kernel("""
        void k(int n, float *x, float *y) {
          #pragma acc localaccess y[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = x[i]; }
        }
        """)
        base = plan.cost.base
        assert base.coalesced_bytes >= 8  # one 4B read + one 4B write
        assert base.random_bytes == 0  # proven-local write: no dirty bits

    def test_gather_priced_random(self):
        plan = self.compile_kernel("""
        void k(int n, int *idx, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = x[idx[i]]; }
        }
        """)
        assert plan.cost.base.random_bytes > 0

    def test_broadcast_read_cheap(self):
        plan = self.compile_kernel("""
        void k(int n, float *c, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = c[0]; }
        }
        """)
        base = plan.cost.base
        assert base.coalesced_bytes < 8  # broadcast read ~free

    def test_layout_transform_changes_pricing(self):
        src = """
        void k(int n, int m, float *x, float *y) {
          #pragma acc localaccess x[stride(m)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float s = 0.0f;
            for (int j = 0; j < m; j++) { s += x[i * m + j]; }
            y[i] = s;
          }
        }
        """
        with_opt = self.compile_kernel(src, layout_transform=True)
        without = self.compile_kernel(src, layout_transform=False)
        lbl = with_opt.cost.inner_labels()[0]
        assert with_opt.cost.buckets[lbl].random_bytes < \
            without.cost.buckets[lbl].random_bytes

    def test_inner_loop_gets_own_bucket(self):
        plan = self.compile_kernel("""
        void k(int n, int m, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            for (int j = 0; j < m; j++) { x[i] += 1.0f; }
          }
        }
        """)
        assert plan.cost.inner_labels() == ["L0"]
        assert plan.cost.buckets["L0"].flops > 0

    def test_dirty_instrumentation_adds_cost(self):
        scatter = """
        void k(int n, int *idx, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[idx[i]] = 1.0f; }
        }
        """
        direct = """
        void k(int n, int *idx, float *x) {
          #pragma acc localaccess x[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        dirty = self.compile_kernel(scatter)
        clean = self.compile_kernel(direct)
        assert dirty.cost.base.int_ops > clean.cost.base.int_ops


class TestInterpreterOnlyLoops:
    """The pricing walk runs before any lowering, so a loop the emitter
    rejects is still modeled with the work its statements do."""

    #: The emitter rejects the irregular compound update of a replica.
    REJECTED = """
    void k(int n, int *idx, float *x) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        x[idx[i]] += 1.0f;
        for (int j = 0; j < 3; j++) { x[idx[i]] += 1.0f; }
      }
    }
    """
    #: The same statements as declared reductions vectorize.
    ANNOTATED = REJECTED.replace(
        "x[idx[i]] += 1.0f;",
        "\n#pragma acc reductiontoarray(+: x)\nx[idx[i]] += 1.0f;")

    def run(self, prog, n=64):
        args = {"n": n, "idx": np.arange(n, dtype=np.int32)[::-1].copy(),
                "x": np.zeros(n, np.float32)}
        return prog.run("k", args, ngpus=2), args

    def test_rejected_loop_keeps_its_real_cost(self):
        prog = repro.compile(self.REJECTED)
        plan = prog.kernels[0]
        assert plan.fn is None and "reductiontoarray" in plan.vectorize_error
        assert "zero work" not in plan.source
        assert plan.cost.inner_labels() == ["L0"]
        for work in plan.cost.buckets.values():
            assert work.flops > 0 and work.random_bytes > 0
            assert work.serialization == 2.0
        run, args = self.run(prog)
        np.testing.assert_array_equal(args["x"], 4.0)
        # The vectorized twin reports its trips under the same label;
        # the interpreter reports none, so only per-iteration work is
        # charged to this run.
        twin, _ = self.run(repro.compile(self.ANNOTATED))
        for stats, labels in ((twin.loop_stats[0], {"L0"}),
                              (run.loop_stats[0], set())):
            assert [set(c) for c in stats.dyn_counts] == [labels, labels]
        unpriced = compile_source(self.REJECTED, cache=False)
        unpriced.plans[0].cost = KernelCostInfo(buckets={"base": KernelWork()})
        overhead_only, _ = self.run(repro.AccProgram(unpriced))
        assert run.breakdown.kernels > overhead_only.breakdown.kernels

    @pytest.mark.parametrize("stmt, reason", [
        ("break;", "break not allowed"),
        ("return;", "return not allowed"),
        ("x[i] = erf(x[i]);", "unsupported function call 'erf'"),
    ])
    def test_unpriceable_construct_is_zero_work_and_says_so(self, stmt,
                                                            reason):
        plan = compile_source("""
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            x[i] = x[i] * 2.0f;
            for (int j = 0; j < 4; j++) { %s }
          }
        }
        """ % stmt).plans[0]
        assert plan.fn is None
        assert plan.cost.buckets == {"base": KernelWork()}
        assert plan.source.startswith("# kernel k_L0: interpreter-only (")
        assert reason in plan.source
        assert "modeled with zero work" in plan.source

    def test_every_priced_call_has_an_emitter_and_an_interpreter(self):
        assert set(CALL_KIND) == set(_MATH_CALLS) == set(_MATH_FUNCS)
