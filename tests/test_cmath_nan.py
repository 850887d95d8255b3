"""C's ``fmax`` / ``fmin`` treat a NaN argument as missing data.

``fmaxf(NaN, 0.0f)`` is ``0.0f`` in C, in either argument position, and
NaN comes out only when both arguments are NaN.  NumPy's ``maximum`` /
``minimum`` propagate a NaN and Python's ``max`` / ``min`` keep or drop
it by position, so the kernels lower these calls to ``np.fmax`` /
``np.fmin`` and the host program (and the interpreter oracle, which
shares its table) to :func:`repro.translator.cscalar.c_fmax` /
``c_fmin``.  The non-standard ``max`` / ``min`` are left as they are.
"""

import numpy as np
import pytest

import repro
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.translator.cscalar import _MATH_FUNCS, c_fmax, c_fmin

from .interp_oracle import oracle

NAN = float("nan")

SRC = r"""
void cmath(int n, float x, float *a, float *b, float *c, double *d,
           double *e, float *h) {
  h[0] = fmaxf(x, 1.0f);
  h[1] = fmaxf(1.0f, x);
  h[2] = fminf(x, 1.0f);
  h[3] = fminf(1.0f, x);
  h[4] = fmax(x, x);
  #pragma acc data copyin(a[0:n]) copyout(b[0:n], c[0:n], d[0:n], e[0:n])
  {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {
      b[i] = fmaxf(a[i], 0.5f);
      c[i] = fminf(0.5f, a[i]);
      d[i] = fmax(0.5, a[i]);
      e[i] = fmin(a[i], a[n - 1 - i]);
    }
  }
}
"""

RUNS = {
    "1gpu": lambda: (hypothetical_node(1), 1),
    "2gpu": lambda: (hypothetical_node(2), 2),
    "4gpu": lambda: (hypothetical_node(4), 4),
    "2x2": lambda: (hypothetical_cluster(2, 2), 4),
}


def make_args(x):
    a = np.tile(np.array([1, NAN, -2, 3], dtype=np.float32), 4)
    a[14] = NAN  # e[1] = e[14] = fmin(NaN, NaN)
    a[15] = NAN  # e[0] = e[15] = fmin(1, NaN), in both positions
    n = a.size
    return dict(n=n, x=np.float32(x), a=a,
                b=np.zeros(n, np.float32), c=np.zeros(n, np.float32),
                d=np.zeros(n, np.float64), e=np.zeros(n, np.float64),
                h=np.zeros(5, np.float32))


def expected(args):
    a, x = args["a"], args["x"]
    one = np.float32(1)
    return dict(
        b=np.fmax(a, np.float32(0.5)), c=np.fmin(np.float32(0.5), a),
        d=np.fmax(0.5, a.astype(np.float64)),
        e=np.fmin(a, a[::-1]).astype(np.float64),
        h=np.array([np.fmax(x, one), np.fmax(one, x), np.fmin(x, one),
                    np.fmin(one, x), np.fmax(x, x)], np.float32))


@pytest.mark.parametrize("where", sorted(RUNS))
@pytest.mark.parametrize("x", [NAN, 2.0, -1.0])
def test_nan_is_missing_data_in_kernels_and_host(where, x):
    prog = repro.compile(SRC)
    machine, ngpus = RUNS[where]()
    want = expected(make_args(x))
    # The C answers: a NaN survives only where both arguments are NaN.
    assert not np.isnan(want["b"]).any() and not np.isnan(want["c"]).any()
    assert np.isnan(want["e"]).sum() == 2
    for engine in (prog, oracle(prog)):
        args = make_args(x)
        engine.run("cmath", args, machine=machine, ngpus=ngpus)
        for name, value in want.items():
            np.testing.assert_array_equal(args[name], value, err_msg=name)


def test_scalar_functions():
    for fmax_, fmin_ in ((c_fmax, c_fmin), (np.fmax, np.fmin)):
        assert fmax_(NAN, 0.0) == fmax_(0.0, NAN) == 0.0
        assert fmin_(NAN, 0.0) == fmin_(0.0, NAN) == 0.0
        assert fmax_(-1.0, 2.0) == fmax_(2.0, -1.0) == 2.0
        assert fmin_(-1.0, 2.0) == fmin_(2.0, -1.0) == -1.0
        assert fmax_(NAN, NAN) != fmax_(NAN, NAN)
    # The non-standard ``max`` / ``min`` keep Python's behaviour.
    assert _MATH_FUNCS["max"] is max and _MATH_FUNCS["min"] is min
