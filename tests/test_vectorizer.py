"""Vectorizer semantics: generated kernels vs expected NumPy results,
plus generated-source structure and rejection of unsupported constructs.

Each test compiles a small OpenACC program and runs it end-to-end on the
virtual platform (1 and 2 GPUs where interesting); the heavy
engine-vs-engine equivalence lives in test_differential.py.
"""

import ast
import inspect
import sys

import numpy as np
import pytest

import repro
from repro.translator.compiler import (
    CompileError,
    CompileOptions,
    compile_source,
)
from repro.translator.vectorizer import VectorizeError

from tests.util import run_source


def f32(*vals):
    return np.array(vals, dtype=np.float32)


class TestElementwise:
    def test_saxpy(self):
        src = """
        void k(int n, float a, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
        }
        """
        x = np.arange(8, dtype=np.float32)
        y = np.ones(8, dtype=np.float32)
        args, _ = run_source(src, {"n": 8, "a": 2.0, "x": x, "y": y}, ngpus=2)
        np.testing.assert_allclose(args["y"], 2 * np.arange(8) + 1)

    def test_shifted_read(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n - 1; i++) { y[i] = x[i + 1]; }
        }
        """
        x = np.arange(8, dtype=np.float32)
        y = np.zeros(8, dtype=np.float32)
        args, _ = run_source(src, {"n": 8, "x": x, "y": y})
        np.testing.assert_allclose(args["y"][:7], x[1:])

    def test_integer_division_and_modulo(self):
        src = """
        void k(int n, int *x, int *q, int *r) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            q[i] = x[i] / 3;
            r[i] = x[i] % 3;
          }
        }
        """
        x = np.arange(12, dtype=np.int32)
        args, _ = run_source(src, {
            "n": 12, "x": x,
            "q": np.zeros(12, np.int32), "r": np.zeros(12, np.int32)})
        np.testing.assert_array_equal(args["q"], np.arange(12) // 3)
        np.testing.assert_array_equal(args["r"], np.arange(12) % 3)

    def test_math_calls(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            y[i] = sqrt(fabs(x[i])) + exp(0.0f) + fmax(x[i], 2.0f);
          }
        }
        """
        x = f32(-4.0, 9.0, 1.0)
        args, _ = run_source(src, {"n": 3, "x": x, "y": np.zeros(3, np.float32)})
        np.testing.assert_allclose(
            args["y"], np.sqrt(np.abs(x)) + 1.0 + np.maximum(x, 2.0),
            rtol=1e-6)

    def test_ternary(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = x[i] > 0.0f ? x[i] : -x[i]; }
        }
        """
        x = f32(-3.0, 4.0, -5.0)
        args, _ = run_source(src, {"n": 3, "x": x, "y": np.zeros(3, np.float32)})
        np.testing.assert_allclose(args["y"], np.abs(x))

    def test_cast(self):
        src = """
        void k(int n, int *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = (float)x[i] / 2.0f; }
        }
        """
        args, _ = run_source(src, {
            "n": 4, "x": np.arange(4, dtype=np.int32),
            "y": np.zeros(4, np.float32)})
        np.testing.assert_allclose(args["y"], np.arange(4) / 2.0)

    def test_gather(self):
        src = """
        void k(int n, int *idx, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = x[idx[i]]; }
        }
        """
        idx = np.array([3, 0, 2, 1], dtype=np.int32)
        x = f32(10, 11, 12, 13)
        args, _ = run_source(src, {"n": 4, "idx": idx, "x": x,
                                   "y": np.zeros(4, np.float32)}, ngpus=2)
        np.testing.assert_allclose(args["y"], x[idx])


class TestPredication:
    def test_if_masks_stores(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            if (x[i] > 0.0f) { y[i] = 1.0f; }
          }
        }
        """
        x = f32(-1, 2, -3, 4)
        y = np.zeros(4, dtype=np.float32)
        args, _ = run_source(src, {"n": 4, "x": x, "y": y}, ngpus=2)
        np.testing.assert_allclose(args["y"], [0, 1, 0, 1])

    def test_if_else(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            if (x[i] > 0.0f) { y[i] = 1.0f; } else { y[i] = -1.0f; }
          }
        }
        """
        x = f32(-1, 2, -3, 4)
        args, _ = run_source(src, {"n": 4, "x": x,
                                   "y": np.zeros(4, np.float32)})
        np.testing.assert_allclose(args["y"], [-1, 1, -1, 1])

    def test_nested_if(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            if (x[i] > 0.0f) {
              if (x[i] > 2.0f) { y[i] = 2.0f; } else { y[i] = 1.0f; }
            }
          }
        }
        """
        x = f32(-1, 1, 3)
        args, _ = run_source(src, {"n": 3, "x": x,
                                   "y": np.zeros(3, np.float32)})
        np.testing.assert_allclose(args["y"], [0, 1, 2])

    def test_local_merge_under_mask(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float t = 0.0f;
            if (x[i] > 0.0f) { t = x[i] * 2.0f; }
            y[i] = t;
          }
        }
        """
        x = f32(-1, 2, -3, 4)
        args, _ = run_source(src, {"n": 4, "x": x,
                                   "y": np.zeros(4, np.float32)})
        np.testing.assert_allclose(args["y"], [0, 4, 0, 8])

    def test_guarded_out_of_range_read_is_safe(self):
        # The predicated gather evaluates all lanes; the clip guard must
        # keep lane n-1's x[i+1] from crashing.
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            if (i < n - 1) { y[i] = x[i + 1]; }
          }
        }
        """
        x = np.arange(6, dtype=np.float32)
        args, _ = run_source(src, {"n": 6, "x": x,
                                   "y": np.zeros(6, np.float32)}, ngpus=2)
        np.testing.assert_allclose(args["y"], [1, 2, 3, 4, 5, 0])

    def test_logical_ops_in_condition(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            if (i > 0 && i < n - 1 || x[i] > 10.0f) { y[i] = 1.0f; }
          }
        }
        """
        x = f32(20, 0, 0, 0)
        args, _ = run_source(src, {"n": 4, "x": x,
                                   "y": np.zeros(4, np.float32)})
        np.testing.assert_allclose(args["y"], [1, 1, 1, 0])


class TestInnerLoops:
    def test_constant_trip_accumulation(self):
        src = """
        void k(int n, int m, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float s = 0.0f;
            for (int j = 0; j < m; j++) { s = s + x[i * m + j]; }
            y[i] = s;
          }
        }
        """
        x = np.arange(12, dtype=np.float32)
        args, _ = run_source(src, {"n": 4, "m": 3, "x": x,
                                   "y": np.zeros(4, np.float32)}, ngpus=2)
        np.testing.assert_allclose(args["y"], x.reshape(4, 3).sum(axis=1))

    def test_triangular_bounds(self):
        src = """
        void k(int n, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float s = 0.0f;
            for (int j = 0; j < i; j++) { s = s + 1.0f; }
            y[i] = s;
          }
        }
        """
        args, _ = run_source(src, {"n": 6, "y": np.zeros(6, np.float32)},
                             ngpus=2)
        np.testing.assert_allclose(args["y"], np.arange(6))

    def test_nested_constant_loops(self):
        src = """
        void k(int n, int a, int b, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float s = 0.0f;
            for (int p = 0; p < a; p++) {
              for (int q = 0; q < b; q++) { s = s + 1.0f; }
            }
            y[i] = s;
          }
        }
        """
        args, _ = run_source(src, {"n": 3, "a": 2, "b": 5,
                                   "y": np.zeros(3, np.float32)})
        np.testing.assert_allclose(args["y"], [10, 10, 10])

    def test_csr_flattening(self):
        src = """
        void k(int n, int *row, float *vals, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float s = 0.0f;
            for (int e = row[i]; e < row[i + 1]; e++) { s += vals[e]; }
            y[i] = s;
          }
        }
        """
        row = np.array([0, 2, 2, 5], dtype=np.int32)
        vals = f32(1, 2, 10, 20, 30)
        args, _ = run_source(src, {"n": 3, "row": row, "vals": vals,
                                   "y": np.zeros(3, np.float32)}, ngpus=2)
        np.testing.assert_allclose(args["y"], [3, 0, 60])

    def test_csr_under_outer_if_compresses(self):
        src = """
        void k(int n, int *row, int *col, int *active, int *seen) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            if (active[i] == 1) {
              for (int e = row[i]; e < row[i + 1]; e++) {
                seen[col[e]] = 1;
              }
            }
          }
        }
        """
        row = np.array([0, 2, 4, 6], dtype=np.int32)
        col = np.array([0, 1, 1, 2, 2, 0], dtype=np.int32)
        active = np.array([1, 0, 1], dtype=np.int32)
        seen = np.zeros(3, dtype=np.int32)
        args, _ = run_source(src, {"n": 3, "row": row, "col": col,
                                   "active": active, "seen": seen}, ngpus=2)
        np.testing.assert_array_equal(args["seen"], [1, 1, 1])

    def test_csr_with_inner_if(self):
        src = """
        void k(int n, int *row, float *vals, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float s = 0.0f;
            for (int e = row[i]; e < row[i + 1]; e++) {
              if (vals[e] > 0.0f) { s += vals[e]; }
            }
            y[i] = s;
          }
        }
        """
        row = np.array([0, 3, 5], dtype=np.int32)
        vals = f32(1, -2, 3, -4, 5)
        args, _ = run_source(src, {"n": 2, "row": row, "vals": vals,
                                   "y": np.zeros(2, np.float32)})
        np.testing.assert_allclose(args["y"], [4, 5])

    def test_empty_csr_rows(self):
        src = """
        void k(int n, int *row, float *vals, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            for (int e = row[i]; e < row[i + 1]; e++) { y[i] += vals[e]; }
          }
        }
        """
        row = np.zeros(5, dtype=np.int32)  # all rows empty
        args, _ = run_source(src, {"n": 4, "row": row,
                                   "vals": np.zeros(1, np.float32),
                                   "y": np.zeros(4, np.float32)}, ngpus=2)
        np.testing.assert_allclose(args["y"], 0)


class TestReductions:
    def test_sum_reduction(self):
        src = """
        float k(int n, float *x) {
          float total = 0.0f;
          #pragma acc parallel loop reduction(+:total)
          for (int i = 0; i < n; i++) { total += x[i]; }
          return total;
        }
        """
        x = np.arange(100, dtype=np.float32)
        _, run = run_source(src, {"n": 100, "x": x}, ngpus=2)
        assert run.value == pytest.approx(x.sum())

    def test_sum_with_host_initial_value(self):
        src = """
        float k(int n, float *x) {
          float total = 1000.0f;
          #pragma acc parallel loop reduction(+:total)
          for (int i = 0; i < n; i++) { total += x[i]; }
          return total;
        }
        """
        x = np.ones(10, dtype=np.float32)
        _, run = run_source(src, {"n": 10, "x": x}, ngpus=2)
        assert run.value == pytest.approx(1010.0)

    def test_max_reduction(self):
        src = """
        float k(int n, float *x) {
          float m = -1.0e30f;
          #pragma acc parallel loop reduction(max:m)
          for (int i = 0; i < n; i++) { m = fmax(m, x[i]); }
          return m;
        }
        """
        x = f32(3, 9, 2, 7)
        _, run = run_source(src, {"n": 4, "x": x}, ngpus=2)
        assert run.value == pytest.approx(9.0)

    def test_min_reduction_via_assignment_pattern(self):
        src = """
        float k(int n, float *x) {
          float m = 1.0e30f;
          #pragma acc parallel loop reduction(min:m)
          for (int i = 0; i < n; i++) { m = fmin(x[i], m); }
          return m;
        }
        """
        _, run = run_source(src, {"n": 4, "x": f32(3, 9, 2, 7)}, ngpus=2)
        assert run.value == pytest.approx(2.0)

    def test_masked_reduction(self):
        src = """
        int k(int n, float *x) {
          int cnt = 0;
          #pragma acc parallel loop reduction(+:cnt)
          for (int i = 0; i < n; i++) {
            if (x[i] > 0.0f) { cnt += 1; }
          }
          return cnt;
        }
        """
        x = f32(1, -1, 2, -2, 3)
        _, run = run_source(src, {"n": 5, "x": x}, ngpus=2)
        assert run.value == 3

    def test_reduction_inside_csr(self):
        src = """
        int k(int n, int *row) {
          int edges = 0;
          #pragma acc parallel loop reduction(+:edges)
          for (int i = 0; i < n; i++) {
            for (int e = row[i]; e < row[i + 1]; e++) { edges += 1; }
          }
          return edges;
        }
        """
        row = np.array([0, 2, 5, 9], dtype=np.int32)
        _, run = run_source(src, {"n": 3, "row": row}, ngpus=2)
        assert run.value == 9

    def test_reduction_to_array(self):
        src = """
        void k(int n, int nb, int *bin, float *w, float *hist) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: hist[0:nb])
            hist[bin[i]] += w[i];
          }
        }
        """
        bin_ = np.array([0, 1, 0, 2, 1, 0], dtype=np.int32)
        w = f32(1, 2, 3, 4, 5, 6)
        hist = np.zeros(3, dtype=np.float32)
        args, _ = run_source(src, {"n": 6, "nb": 3, "bin": bin_, "w": w,
                                   "hist": hist}, ngpus=2)
        np.testing.assert_allclose(args["hist"], [10, 7, 4])

    def test_reduction_to_array_keeps_initial(self):
        src = """
        void k(int n, int nb, int *bin, float *hist) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: hist[0:nb])
            hist[bin[i]] += 1.0f;
          }
        }
        """
        hist = f32(100, 200)
        args, _ = run_source(src, {
            "n": 4, "nb": 2, "bin": np.array([0, 0, 1, 0], np.int32),
            "hist": hist}, ngpus=2)
        np.testing.assert_allclose(args["hist"], [103, 201])


class TestGeneratedSource:
    def test_source_is_inspectable(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        prog = repro.compile(src)
        text = prog.kernel_source("k_L0")
        assert "def kernel(ctx):" in text
        assert "ks.store_span(v_x, ctx.i0 - _b_x, _n" in text

    def test_index_rewriting_subtracts_base(self):
        src = """
        void k(int n, float *x) {
          #pragma acc localaccess x[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        text = repro.compile(src).kernel_source("k_L0")
        assert "_b_x" in text

    def test_dirty_marking_emitted_for_replica_writes(self):
        src = """
        void k(int n, int *idx, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[idx[i]] = 1.0f; }
        }
        """
        text = repro.compile(src).kernel_source("k_L0")
        assert "ctx.mark_dirty('x'" in text

    def test_miss_check_emitted_for_unproven_distributed_writes(self):
        src = """
        void k(int n, int *idx, float *x) {
          #pragma acc localaccess x[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[idx[i]] = 1.0f; }
        }
        """
        text = repro.compile(src).kernel_source("k_L0")
        assert "ctx.write_checked('x'" in text

    def test_proven_writes_have_no_instrumentation(self):
        src = """
        void k(int n, float *x) {
          #pragma acc localaccess x[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        text = repro.compile(src).kernel_source("k_L0")
        assert "write_checked" not in text
        assert "mark_dirty" not in text

    def test_dyn_count_emitted_for_inner_loops(self):
        src = """
        void k(int n, int m, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            for (int j = 0; j < m; j++) { x[i] += 1.0f; }
          }
        }
        """
        text = repro.compile(src).kernel_source("k_L0")
        assert "ctx.dyn_count('L0'" in text


#: ``sum(len(plan.source))`` per bundled program, a ceiling and not a
#: pin.  The four whose text has not changed since are held strictly
#: below their size at ``5d71940``, the last commit whose kernels carried
#: a reference twin of the span statements under an ``_f`` test.  The
#: seven whose kernels gather, scatter or stride were re-lowered by PR 22
#: (one three-address statement per operation where the mask lowering
#: nested one expression): their ceiling is their size then -- and for
#: ``bfs`` and ``spmv`` their size once their CSR bodies became
#: three-address code too -- and for ``shift_scale`` its size once its
#: ``%`` became C's truncating ``np.fmod``.  ``shift_scale`` and
#: ``stencil_probes`` bind one ``float`` scalar each: five bytes more
#: each since a ``float`` scalar is bound as ``np.float32(...)``, its C
#: type, where ``float(...)`` bound it as a Python (double) float.
SOURCE_BYTES_WITH_REFERENCE_TWIN = {
    "gradpipe": 2037, "jacobi": 2917, "phasepipe": 2513, "stencil": 3248,
}
SOURCE_BYTES_GATHER_NATIVE = {
    "bfs": 1399, "heat2d": 3894, "kmeans": 2569, "md": 3336,
    "shift_scale": 572, "spmv": 1237, "stencil_probes": 2060,
}


@pytest.mark.parametrize("app", sorted({**SOURCE_BYTES_WITH_REFERENCE_TWIN,
                                        **SOURCE_BYTES_GATHER_NATIVE}))
def test_generated_source_stays_below_ceiling(app):
    from repro.apps import ALL_APPS, EXTRA_APPS
    from repro.bench.multinode import STENCIL_PROBES_SOURCE

    sources = {n: s.source for n, s in {**ALL_APPS, **EXTRA_APPS}.items()}
    sources["stencil_probes"] = STENCIL_PROBES_SOURCE
    plans = compile_source(sources[app]).plans
    size = sum(len(p.source.encode()) for p in plans)
    if app in SOURCE_BYTES_GATHER_NATIVE:
        assert size <= SOURCE_BYTES_GATHER_NATIVE[app]
    else:
        assert size < SOURCE_BYTES_WITH_REFERENCE_TWIN[app]


#: The mask lowering's helpers, retired from ``kernel_support``.
RETIRED_HELPERS = ("ks.bcv", "ks.merge", "ks.msel", "ks.lanes_of")


def module_fixtures():
    """Every OpenACC source written out in this module's tests."""
    tree = ast.parse(inspect.getsource(sys.modules[__name__]))
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "#pragma acc parallel" in node.value]


def test_no_generated_kernel_calls_a_retired_helper():
    """Every bundled source under both option sets and every fixture of
    this module compiles to kernels that call none of the helpers the
    mask lowering needed: one lowering serves every lane axis."""
    from repro.frontend import fortran, parser
    from repro.translator.compiler import compile_program
    from tests.test_frontend_golden import C_SOURCES, FORTRAN_SOURCES

    texts = []
    for name, source in {**C_SOURCES, **FORTRAN_SOURCES}.items():
        parse = parser.parse if name in C_SOURCES else fortran.parse_fortran
        for options in (CompileOptions(), CompileOptions(fuse=True)):
            compiled = compile_program(parse(source), options)
            texts += [p.source for p in [
                *compiled.plans, *(g.fused for g in compiled.fusion_groups)]]
    fixtures = module_fixtures()
    assert len(fixtures) >= 40
    for source in fixtures:
        try:
            texts += [p.source for p in compile_source(source).plans]
        except CompileError:
            pass  # a rejected loop has no kernel
    assert len(texts) >= 80
    for text in texts:
        for helper in RETIRED_HELPERS:
            assert helper not in text, (helper, text)


class TestRejections:
    def expect_reject(self, src, match=None):
        with pytest.raises((VectorizeError, Exception)) as exc:
            compile_source(src)
        if match:
            assert match in str(exc.value)

    def test_irregular_compound_update_needs_annotation(self):
        self.expect_reject("""
        void k(int n, int *idx, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[idx[i]] += 1.0f; }
        }
        """, "reductiontoarray")

    def test_irregular_compound_update_beside_a_unit_stride_access(self):
        # The span lowering writes this body; it classifies the update
        # like the pricing walk does and rejects it all the same.
        self.expect_reject("""
        void k(int n, int *idx, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = 2.0f; x[idx[i]] += y[i]; }
        }
        """, "irregular compound update of 'x' is a complicated reduction; "
             "annotate it with '#pragma acc reductiontoarray'")

    def test_break_rejected(self):
        self.expect_reject("""
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            for (int j = 0; j < 4; j++) { break; }
          }
        }
        """)

    def test_host_scalar_write_rejected(self):
        self.expect_reject("""
        void k(int n, float a, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { a = x[i]; }
        }
        """, "read-only")

    def test_rejected_loop_is_a_located_compile_error(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            for (int j = 0; j < 4; j++) { break; }
          }
        }
        """
        with pytest.raises(CompileError, match="break") as exc:
            compile_source(src)
        assert exc.value.line == 4
