"""Whole-program integration: a multi-function OpenACC application
combining every major feature in one source file -- helpers called from
the entry point, nested data regions, multiple parallel regions with
different placements, scalar + array reductions, updates, and host
control flow driven by device results."""

import numpy as np
import pytest

from tests.util import run_source

PROGRAM = r"""
float vecsum(int n, float *v) {
  float s = 0.0f;
  #pragma acc parallel loop reduction(+:s)
  for (int i = 0; i < n; i++) { s += v[i]; }
  return s;
}

void normalize(int n, float total, float *v) {
  #pragma acc parallel
  {
    #pragma acc localaccess v[stride(1)]
    #pragma acc loop gang
    for (int i = 0; i < n; i++) { v[i] = v[i] / total; }
  }
}

int pipeline(int n, int nb, int *bin, float *v, float *hist, float *smooth) {
  int rounds = 0;
  #pragma acc data copy(v[0:n], hist[0:nb], smooth[0:n])
  {
    float total = vecsum(n, v);
    if (total > 0.0f) {
      normalize(n, total, v);
      rounds = rounds + 1;
    }
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      #pragma acc reductiontoarray(+: hist[0:nb])
      hist[bin[i]] += v[i];
    }
    #pragma acc parallel
    {
      #pragma acc localaccess v[stride(1, 1, 1)] smooth[stride(1)]
      #pragma acc loop gang
      for (int i = 0; i < n; i++) {
        if (i > 0 && i < n - 1) {
          smooth[i] = (v[i - 1] + v[i] + v[i + 1]) / 3.0f;
        } else {
          smooth[i] = v[i];
        }
      }
    }
  }
  return rounds;
}
"""


def reference(n, nb, bin_, v0):
    v = v0.astype(np.float32).copy()
    total = np.float32(0)
    for x in v:
        total = total + x
    if total > 0:
        v = (v / total).astype(np.float32)
    hist = np.zeros(nb, dtype=np.float32)
    np.add.at(hist, bin_, v)
    smooth = v.copy()
    smooth[1:-1] = (v[:-2] + v[1:-1] + v[2:]) / np.float32(3.0)
    return v, hist, smooth


@pytest.mark.parametrize("ngpus,machine", [(1, "desktop"), (2, "desktop"),
                                           (3, "supercomputer")])
def test_full_pipeline(ngpus, machine):
    rng = np.random.default_rng(9)
    n, nb = 300, 5
    v = rng.uniform(0.1, 2.0, size=n).astype(np.float32)
    bin_ = rng.integers(0, nb, size=n).astype(np.int32)
    args = {"n": n, "nb": nb, "bin": bin_.copy(), "v": v.copy(),
            "hist": np.zeros(nb, np.float32),
            "smooth": np.zeros(n, np.float32)}
    args_out, run = run_source(PROGRAM, args, ngpus=ngpus, machine=machine,
                               entry="pipeline")
    ev, eh, es = reference(n, nb, bin_, v)
    assert run.value == 1
    np.testing.assert_allclose(args_out["v"], ev, rtol=2e-5, atol=1e-6)
    np.testing.assert_allclose(args_out["hist"], eh, rtol=2e-4, atol=1e-5)
    np.testing.assert_allclose(args_out["smooth"], es, rtol=2e-5, atol=1e-6)
    # Four kernels ran: vecsum, normalize, histogram, smooth.
    assert len(run.loop_stats) == 4


def test_pipeline_engines_agree():
    rng = np.random.default_rng(11)
    n, nb = 120, 4
    v = rng.uniform(0.1, 2.0, size=n).astype(np.float32)
    bin_ = rng.integers(0, nb, size=n).astype(np.int32)
    outs = []
    for engine in ("vector", "interp"):
        args = {"n": n, "nb": nb, "bin": bin_.copy(), "v": v.copy(),
                "hist": np.zeros(nb, np.float32),
                "smooth": np.zeros(n, np.float32)}
        out, _ = run_source(PROGRAM, args, ngpus=2, interp=engine == "interp",
                            entry="pipeline")
        outs.append(out)
    for key in ("v", "hist", "smooth"):
        np.testing.assert_allclose(outs[0][key], outs[1][key],
                                   rtol=1e-5, atol=1e-6)
