"""Differential testing: vectorized engine vs scalar interpreter.

The scalar interpreter executes loop bodies with real control flow, one
iteration at a time; the vectorizer executes them with predication and
flattening.  Any program both accept must produce identical effects.
Hypothesis generates random inputs for a family of parameterized
programs covering every translation strategy (predication, constant
inner loops, CSR flattening, reductions, dirty-bit stores, miss-checked
stores), and for each we also vary the GPU count so the partitioning
and communication layers are inside the differential net.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.util import compare_engines

_SETTINGS = dict(max_examples=25, deadline=None)

floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                   width=32)


def farr(draw, n, lo=-100.0, hi=100.0):
    vals = draw(st.lists(st.floats(min_value=lo, max_value=hi,
                                   allow_nan=False, width=32),
                         min_size=n, max_size=n))
    return np.array(vals, dtype=np.float32)


class TestElementwisePrograms:
    SRC = """
    void k(int n, float a, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float t = a * x[i] + 1.0f;
        if (t > 0.0f) { y[i] = t; } else { y[i] = -t * 0.5f; }
      }
    }
    """

    @given(st.data(), st.integers(1, 17), st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_predicated_elementwise(self, data, n, ngpus):
        x = farr(data.draw, n)
        a = data.draw(floats)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "a": a, "x": x.copy(),
                     "y": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus), machine=machine)


class TestGatherScatter:
    SRC = """
    void k(int n, int m, int *idx, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        y[idx[i]] = x[i] + 1.0f;
      }
    }
    """

    @given(st.data(), st.integers(1, 12), st.integers(1, 2))
    @settings(**_SETTINGS)
    def test_replica_scatter_with_dirty_bits(self, data, n, ngpus):
        m = n + data.draw(st.integers(0, 5))
        # Unique destinations: duplicate scatter order differs between a
        # sequential interpreter and fancy assignment, and is a race in
        # the source program anyway.
        idx = np.array(data.draw(st.permutations(list(range(m))))[:n],
                       dtype=np.int32)
        x = farr(data.draw, n)
        compare_engines(
            self.SRC,
            lambda: {"n": n, "m": m, "idx": idx.copy(), "x": x.copy(),
                     "y": np.zeros(m, np.float32)},
            ngpus_list=(1, ngpus))


class TestMissCheckedScatter:
    SRC = """
    void k(int n, int shift, float *x, float *y) {
      #pragma acc localaccess x[stride(1)] y[stride(1)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        y[(i + shift) % n] = 2.0f * x[i];
      }
    }
    """

    @given(st.data(), st.integers(2, 24), st.integers(0, 23),
           st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_distributed_scatter_with_miss_routing(self, data, n, shift,
                                                   ngpus):
        x = farr(data.draw, n)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "shift": shift, "x": x.copy(),
                     "y": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus), machine=machine)


class TestConstantInnerLoop:
    SRC = """
    void k(int n, int m, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float s = 0.0f;
        for (int j = 0; j < m; j++) {
          float v = x[i * m + j];
          if (v > 0.0f) { s += v; }
        }
        y[i] = s;
      }
    }
    """

    @given(st.data(), st.integers(1, 8), st.integers(0, 6),
           st.integers(1, 2))
    @settings(**_SETTINGS)
    def test_masked_accumulation(self, data, n, m, ngpus):
        x = farr(data.draw, max(1, n * m))
        compare_engines(
            self.SRC,
            lambda: {"n": n, "m": m, "x": x.copy(),
                     "y": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus))


class TestCsrPrograms:
    SRC = """
    void k(int n, int *row, int *col, float *vals, float *y, int *touched) {
      #pragma acc localaccess row[stride(1, 0, 1)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float s = 0.0f;
        for (int e = row[i]; e < row[i + 1]; e++) {
          if (vals[e] > 0.0f) {
            s += vals[e];
            touched[col[e]] = 1;
          }
        }
        y[i] = s;
      }
    }
    """

    @given(st.data(), st.integers(1, 10), st.integers(1, 2))
    @settings(**_SETTINGS)
    def test_csr_flatten_with_scatter(self, data, n, ngpus):
        degrees = data.draw(st.lists(st.integers(0, 5), min_size=n,
                                     max_size=n))
        row = np.zeros(n + 1, dtype=np.int32)
        row[1:] = np.cumsum(degrees)
        ne = int(row[-1])
        col = np.array(
            [data.draw(st.integers(0, n - 1)) for _ in range(ne)],
            dtype=np.int32) if ne else np.zeros(0, np.int32)
        vals = farr(data.draw, max(1, ne))[:ne] if ne else \
            np.zeros(0, np.float32)
        compare_engines(
            self.SRC,
            lambda: {"n": n, "row": row.copy(), "col": col.copy(),
                     "vals": vals.copy(), "y": np.zeros(n, np.float32),
                     "touched": np.zeros(n, np.int32)},
            ngpus_list=(1, ngpus))


class TestScalarReductions:
    SRC = """
    float k(int n, float thresh, float *x) {
      float total = 5.0f;
      #pragma acc parallel loop reduction(+:total)
      for (int i = 0; i < n; i++) {
        if (x[i] > thresh) { total += x[i]; }
      }
      return total;
    }
    """

    @given(st.data(), st.integers(1, 30), st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_masked_sum(self, data, n, ngpus):
        from tests.util import run_source

        x = farr(data.draw, n, lo=-10, hi=10)
        thresh = data.draw(st.floats(min_value=-5, max_value=5, width=32))
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        vals = []
        for engine in ("vector", "interp"):
            for g in (1, ngpus):
                _, run = run_source(
                    self.SRC, {"n": n, "thresh": thresh, "x": x.copy()},
                    ngpus=g, machine=machine,
                    interp=engine == "interp")
                vals.append(run.value)
        assert all(abs(v - vals[0]) <= 1e-3 * max(1.0, abs(vals[0]))
                   for v in vals)


class TestReductionToArray:
    SRC = """
    void k(int n, int nb, int *bin, float *w, float *hist) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        #pragma acc reductiontoarray(+: hist[0:nb])
        hist[bin[i]] += w[i];
      }
    }
    """

    @given(st.data(), st.integers(1, 30), st.integers(1, 6),
           st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_histogram(self, data, n, nb, ngpus):
        bins = np.array([data.draw(st.integers(0, nb - 1))
                         for _ in range(n)], dtype=np.int32)
        w = farr(data.draw, n, lo=0, hi=10)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "nb": nb, "bin": bins.copy(), "w": w.copy(),
                     "hist": np.zeros(nb, np.float32)},
            ngpus_list=(1, ngpus), machine=machine, rtol=1e-4, atol=1e-4)


class TestHaloStencil:
    SRC = """
    void k(int n, float *a, float *b) {
      #pragma acc localaccess a[stride(1, 1, 1)] b[stride(1)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        if (i > 0 && i < n - 1) {
          b[i] = a[i - 1] + a[i] + a[i + 1];
        } else {
          b[i] = a[i];
        }
      }
    }
    """

    @given(st.data(), st.integers(1, 40), st.integers(1, 3))
    @settings(**_SETTINGS)
    def test_halo_windows(self, data, n, ngpus):
        a = farr(data.draw, n)
        machine = "desktop" if ngpus <= 2 else "supercomputer"
        compare_engines(
            self.SRC,
            lambda: {"n": n, "a": a.copy(), "b": np.zeros(n, np.float32)},
            ngpus_list=(1, ngpus), machine=machine)
