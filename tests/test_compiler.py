"""Compiler-driver tests: plan extraction, array configuration decisions,
write-handling selection, and diagnostics."""

import pytest

from repro.translator.array_config import Placement, WriteHandling
from repro.translator.compiler import (
    CompileError,
    CompileOptions,
    compile_source,
)


def plan_of(src, which=0, **opts):
    return compile_source(src, CompileOptions(**opts)).plans[which]


SAXPY = """
void k(int n, float a, float *x, float *y) {
  #pragma acc parallel
  {
    #pragma acc localaccess x[stride(1)] y[stride(1)]
    #pragma acc loop gang
    for (int i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
  }
}
"""


class TestPlanExtraction:
    def test_kernel_names(self):
        compiled = compile_source(SAXPY)
        assert compiled.kernel_names() == ["k_L0"]

    def test_fused_parallel_loop(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop copyin(x[0:n])
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        compiled = compile_source(src)
        assert len(compiled.plans) == 1
        assert len(compiled.regions_by_stmt) == 1

    def test_multiple_loops_in_one_region(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel
          {
            #pragma acc loop gang
            for (int i = 0; i < n; i++) { x[i] = 1.0f; }
            #pragma acc loop gang
            for (int i = 0; i < n; i++) { y[i] = 2.0f; }
          }
        }
        """
        compiled = compile_source(src)
        assert compiled.kernel_names() == ["k_L0", "k_L1"]
        region = next(iter(compiled.regions_by_stmt.values()))
        assert len(region.plans) == 2

    def test_two_regions_in_one_function(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 2.0f; }
        }
        """
        compiled = compile_source(src)
        assert len(compiled.plans) == 2
        assert len(compiled.regions_by_stmt) == 2

    def test_region_without_loop_rejected(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel
          { x[0] = 1.0f; }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)

    def test_fused_loop_on_non_for_rejected(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          { x[0] = 1.0f; }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)


class TestPlacementDecisions:
    def test_localaccess_gives_distribution(self):
        plan = plan_of(SAXPY)
        assert plan.config.arrays["x"].placement == Placement.DISTRIBUTED
        assert plan.config.arrays["x"].has_localaccess

    def test_no_localaccess_gives_replica(self):
        # Without annotation (and with inference off) arrays replicate;
        # the default pipeline instead infers an equivalent window for
        # this affine loop and distributes (see tests/test_infer.py).
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = x[i]; }
        }
        """
        plan = plan_of(src, infer=False)
        assert plan.config.arrays["x"].placement == Placement.REPLICA
        assert not plan.config.arrays["x"].has_localaccess
        inferred = plan_of(src).config.arrays["x"]
        assert inferred.placement == Placement.DISTRIBUTED
        assert inferred.window_origin == "inferred"

    def test_all_spec_is_replica_but_counts_as_localaccess(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc localaccess x[all]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = x[i]; }
        }
        """
        cfg = plan_of(src).config.arrays["x"]
        assert cfg.placement == Placement.REPLICA
        assert cfg.has_localaccess

    def test_localaccess_on_untouched_array_rejected(self):
        src = """
        void k(int n, float *x, float *ghost) {
          #pragma acc localaccess ghost[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)

    def test_duplicate_localaccess_rejected(self):
        src = """
        void k(int n, float *x) {
          #pragma acc localaccess x[stride(1)]
          #pragma acc localaccess x[all]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)


class TestWriteHandling:
    def test_replica_write_gets_dirty_bits(self):
        src = """
        void k(int n, int *idx, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[idx[i]] = 1.0f; }
        }
        """
        assert plan_of(src).config.arrays["x"].write_handling == \
            WriteHandling.DIRTY_BITS

    def test_proven_local_write(self):
        plan = plan_of(SAXPY)
        assert plan.config.arrays["y"].write_handling == \
            WriteHandling.LOCAL_PROVEN

    def test_proof_respects_halo(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc localaccess y[stride(1, 0, 1)]
          #pragma acc parallel loop
          for (int i = 0; i < n - 1; i++) { y[i + 1] = x[i]; }
        }
        """
        assert plan_of(src).config.arrays["y"].write_handling == \
            WriteHandling.LOCAL_PROVEN

    def test_out_of_window_write_gets_miss_check(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc localaccess y[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n - 5; i++) { y[i + 5] = x[i]; }
        }
        """
        assert plan_of(src).config.arrays["y"].write_handling == \
            WriteHandling.MISS_CHECK

    def test_dynamic_write_gets_miss_check(self):
        src = """
        void k(int n, int *idx, float *y) {
          #pragma acc localaccess y[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[idx[i]] = 1.0f; }
        }
        """
        assert plan_of(src).config.arrays["y"].write_handling == \
            WriteHandling.MISS_CHECK

    def test_elision_disabled_by_option(self):
        plan = plan_of(SAXPY, elide_write_checks=False)
        assert plan.config.arrays["y"].write_handling == \
            WriteHandling.MISS_CHECK

    def test_reduction_destination(self):
        src = """
        void k(int n, int *b, float *h) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: h[0:4])
            h[b[i]] += 1.0f;
          }
        }
        """
        cfg = plan_of(src).config.arrays["h"]
        assert cfg.write_handling == WriteHandling.REDUCTION
        assert cfg.reduction_op == "+"

    def test_stride_window_mismatch_not_proven(self):
        # Writes with coefficient 2 under a stride-1 window cannot be
        # proven local.
        src = """
        void k(int n, float *y) {
          #pragma acc localaccess y[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n / 2; i++) { y[i * 2] = 1.0f; }
        }
        """
        assert plan_of(src).config.arrays["y"].write_handling == \
            WriteHandling.MISS_CHECK


class TestTableTwoInputs:
    def test_localaccess_counts(self):
        from repro.apps import ALL_APPS

        expected = {"md": "2/3", "kmeans": "2/5", "bfs": "2/3"}
        for name, app in ALL_APPS.items():
            compiled = compile_source(app.source)
            used, with_la = set(), set()
            for plan in compiled.plans:
                for aname, cfg in plan.config.arrays.items():
                    used.add(aname)
                    if cfg.has_localaccess:
                        with_la.add(aname)
            assert f"{len(with_la)}/{len(used)}" == expected[name], name

    def test_parallel_loop_counts(self):
        from repro.apps import ALL_APPS

        expected = {"md": 1, "kmeans": 2, "bfs": 1}
        for name, app in ALL_APPS.items():
            assert len(compile_source(app.source).plans) == expected[name]


class TestDiagnostics:
    def test_bad_loop_shape_reports_line(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = n; i > 0; i--) { x[i] = 1.0f; }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)

    def test_unvectorizable_loop_is_a_located_compile_error(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { return; }
        }
        """
        with pytest.raises(CompileError, match="line 4"):
            compile_source(src)

    def test_plan_lookup(self):
        compiled = compile_source(SAXPY)
        assert compiled.plan("k_L0").name == "k_L0"
        with pytest.raises(KeyError):
            compiled.plan("nope")
