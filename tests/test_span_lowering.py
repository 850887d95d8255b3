"""The kernel lowering (:class:`repro.translator.vectorizer.Vectorizer`).

The span statements are the kernel, so they are checked against the one
semantic reference there is, the scalar interpreter
(``tests/interp_oracle.py``).  Four angles:

(a) the lane interval derived from an ``if`` condition selects exactly
    the lanes the interpreter's per-iteration test does (Hypothesis
    differential, task slices not starting at 0 included);
(b) every bundled program agrees on arrays, bus bytes per kind,
    dirty-chunk bytes and write-miss bytes -- and on modeled seconds
    and dynamic trip counts where the interpreter reports trips --
    between the generated kernels and the interpreter;
(c) every ``out=`` operation produces the dtype and the bits NumPy's
    own (unbuffered) evaluation produces, every ``np.take(..., out=)``
    the clip-gather's and every ``np.copyto(..., where=)`` the ``merge``
    of a ``bcv`` local's (``tests/kernel_support_oracle.py``) -- ``int``
    slots included;
(d) the sanitizer stays clean -- its shadow runs never share scratch
    with the run they shadow;

a textual pin that a kernel holds one body and ``run`` no switch
between two, and a count-based steady-state gate in the style of
``test_launch_replay.py``: after the first sweep a launch allocates no
lane-length array and builds no index vector or clipped index vector
(``kmeans_L0`` included; ``md_L0`` within a constant number of lane
vectors whatever its trip count), a CSR launch (``bfs_L0``,
``spmv_L0``) calls ``np.arange`` only in its flattening and allocates
nothing more outside the arena for two more statements in its body, a
finished run keeps no scratch, and its storage is recycled on the large
side of ``vcuda.memory.RECYCLE_FLOOR`` only: a second ``stream``-shaped
run takes no fresh block, a ``launch_small``-sized run takes none at
all.
"""

import collections
import gc
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.apps import ALL_APPS, EXTRA_APPS, AppSpec
from repro.bench import multinode
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.runtime.kernelctx import KernelContext, ScratchArena
from repro.translator import kernel_support
from repro.translator.compiler import CompileOptions, KernelPlan
from repro.translator.vectorizer import Vectorizer
from repro.vcuda import memory as vmem
from tests import kernel_support_oracle
from tests.interp_oracle import oracle
from tests.util import run_source

APPS = {**ALL_APPS, **EXTRA_APPS}
APPS["stencil_probes"] = AppSpec(
    name="stencil_probes", description="monitored stencil",
    source=multinode.STENCIL_PROBES_SOURCE, entry=multinode.ENTRY,
    make_args=multinode.probe_args, reference=lambda args: {},
    outputs=["a", "record"])

NODE4 = hypothetical_node(4)


# -- (a) interval predicates ---------------------------------------------------

LANE = st.sampled_from(["i", "i + 1", "i - 2", "1 + i", "-i", "3 - i"])
BOUND = st.sampled_from(["0", "1", "n", "n - 1", "p", "q", "p + q", "q - 3",
                         "n / 2", "-2", "40"])
CMP = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
ATOM = st.one_of(
    st.tuples(LANE, CMP, BOUND).map(" ".join),
    st.tuples(BOUND, CMP, LANE).map(" ".join),
    # Lane-invariant guards.
    st.tuples(BOUND, CMP, BOUND).map(" ".join),
)
COND = st.recursive(
    ATOM,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["&&", "||"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        inner.map(lambda c: f"!({c})")),
    max_leaves=4)

INTERVAL_KERNEL = """
void k(int n, int p, int q, float *x, float *y, float *z) {
  #pragma acc localaccess x[stride(1, 1, 1)] y[stride(1)] z[stride(1)]
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float s = x[i];
    if (%(outer)s) {
      y[i] = x[i] + 1.0f;
      if (%(inner)s) { s = s * 3.0f; z[i] = 4.0f; } else { s = s - 1.0f; }
    } else {
      y[i] = x[i] * 2.0f;
    }
    z[i] = z[i] + s;
  }
}
"""


def interval_args(n):
    return {"n": n, "p": 5, "q": 11,
            "x": np.linspace(-3.0, 3.0, n).astype(np.float32),
            "y": np.zeros(n, np.float32),
            "z": np.full(n, 0.5, np.float32)}


@given(outer=COND, inner=COND, n=st.sampled_from([1, 2, 13, 37]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_interval_matches_boolean_mask(outer, inner, n):
    """Random affine conditions, nested and with else-branches: the span
    statements and the interpreter write the same lanes, bit for bit.
    Three GPUs give task slices that do not start at 0 and -- at
    n=1, 2 -- empty and single-lane slices."""
    prog = repro.compile(INTERVAL_KERNEL % {"outer": outer, "inner": inner})
    results = []
    for runner in (prog, oracle(prog)):
        for ngpus in (1, 3):
            args = interval_args(n)
            runner.run("k", args, machine=NODE4, ngpus=ngpus)
            results.append(args)
    for other in results[1:]:
        for name in ("y", "z"):
            np.testing.assert_array_equal(other[name], results[0][name])


def lowering_of(src):
    """The lowering of the first loop of ``src``, after its body has
    been emitted (locals registered)."""
    compiled = repro.compile(src).compiled
    plan = compiled.plans[0]
    vec = Vectorizer(plan.analysis, plan.config, labels={})
    for piece in vec.body_pieces():
        vec.emit_piece(piece)
    return vec, plan.analysis.nest.body


class TestIntervalDerivation:
    SRC = """
    void k(int n, int p, float w, int *idx, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        int t = idx[i];
        float f = y[i];
        if (%s) { y[i] = 1.0f; }
      }
    }
    """

    def cond(self, text):
        vec, body = lowering_of(self.SRC % text)
        return vec.interval_of(body.body[-1].cond)

    def test_conjunction_is_one_interval(self):
        iv = self.cond("i > 0 && i < n - 1")
        assert iv.lows == ("1",) and iv.highs == ("int((v_n - 1))",)
        assert not iv.guards and not iv.complement

    def test_not_equal_is_a_complement(self):
        iv = self.cond("i != p")
        assert iv.complement and iv.lows == ("int(v_p)",)

    def test_disjunction_of_complements(self):
        iv = self.cond("i != 0 || i != p")  # !(i == 0 && i == p)
        assert iv.complement and len(iv.lows) == 2

    def test_lane_invariant_atom_is_a_guard(self):
        iv = self.cond("i < n && p > 2")
        assert iv.guards and iv.highs

    @pytest.mark.parametrize("text", [
        "i < t",               # kernel local
        "i < idx[0]",          # array (even a lane-invariant element)
        "y[i] > 0.0f",         # data dependent
        "i < w",               # float comparison
        "2 * i < n",           # |coefficient| > 1
        "i < 3 || i > 7",      # union of two intervals
        "i != 2 && i < n",     # complement under a conjunction
        "f > 0.0f && i > 0",   # one lane-varying conjunct spoils it
    ])
    def test_falls_back_to_the_mask(self, text):
        assert self.cond(text) is None

    def test_reduction_inside_branch_keeps_the_mask(self):
        src = """
        void k(int n, float *y) {
          float acc = 0.0f;
          #pragma acc parallel loop reduction(+:acc)
          for (int i = 0; i < n; i++) {
            if (i > 0) { acc += y[i]; }
          }
          y[0] = acc;
        }
        """
        text = repro.compile(src).kernel_source("k_L0")
        assert "max(ctx.i0" not in text  # no sub-span was derived

    def test_interval_branch_builds_no_index_vector(self):
        text = repro.compile(APPS["stencil"].source).kernel_source(
            "stencil_L0")
        assert "max(ctx.i0, 1)" in text
        for vector_op in ("iota", "arange", "np.where", "flatnonzero",
                          "where=", "mark_dirty("):
            assert vector_op not in text


# -- one body per kernel ---------------------------------------------------------


@pytest.mark.parametrize("options", [CompileOptions(), CompileOptions(fuse=True)],
                         ids=["default", "fuse"])
@pytest.mark.parametrize("app", list(APPS))
def test_kernels_hold_one_body(app, options):
    """No run-time selection between two lowerings, and no second
    (``np.zeros``) form of fusion's scratch prelude."""
    for plan in repro.compile(APPS[app].source, options).compiled.plans:
        for marker in ("_f = ", "if _f:", "fastpath", "np.zeros("):
            assert marker not in plan.source, (plan.name, marker)


def test_run_has_no_fastpath_keyword():
    spec = APPS["stencil"]
    with pytest.raises(TypeError, match="fastpath"):
        repro.compile(spec.source).run(spec.entry, spec.args_for("tiny"),
                                       fastpath=False)


# -- (b) observational identity across engines -------------------------------

CONFIGS = {
    "default": (None, {}),
    "fuse": (CompileOptions(fuse=True), {}),
    "overlap": (None, {"overlap": True, "coalesce": True}),
}


def observe(app, ngpus, options, flags, interp=False):
    spec = APPS[app]
    args = spec.args_for("tiny") if spec.workloads else spec.make_args()
    prog = repro.compile(spec.source, options)
    run = (oracle(prog) if interp else prog).run(
        spec.entry, args, machine=NODE4, ngpus=ngpus, **flags)
    comm = run.executor.comm
    return {
        "arrays": {k: v for k, v in args.items()
                   if isinstance(v, np.ndarray)},
        "elapsed": run.elapsed,
        "bus": {kind: run.platform.bus.bytes_moved(kind)
                for kind in ("h2d", "d2h", "p2p", "net")},
        "dyn_counts": [st.dyn_counts for st in run.loop_stats],
        "dirty_bytes": comm.bytes_replica + comm.bytes_windowed,
        "miss_bytes": comm.bytes_miss,
    }


def assert_interp_agrees(interp, arr):
    """Integer arrays bitwise; float arrays close -- the scalar
    interpreter rounds float expressions like C, not like NumPy (the
    tolerance is test_differential's)."""
    assert interp.dtype == arr.dtype
    if arr.dtype.kind == "f":
        np.testing.assert_allclose(interp, arr, rtol=1e-5, atol=1e-6)
    else:
        np.testing.assert_array_equal(interp, arr)


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("ngpus", [1, 2, 4])
@pytest.mark.parametrize("app", list(APPS))
def test_bodies_and_engines_agree(app, ngpus, config):
    options, flags = CONFIGS[config]
    span = observe(app, ngpus, options, flags)
    interp = observe(app, ngpus, options, flags, interp=True)
    for name, arr in span["arrays"].items():
        assert_interp_agrees(interp["arrays"][name], arr)
    keys = ["bus", "dirty_bytes", "miss_bytes"]
    if not any(counts for per_gpu in span["dyn_counts"]
               for counts in per_gpu):
        # The scalar interpreter reports no inner-loop trip counts, so
        # its modeled kernel seconds agree with the vector engine's
        # only where that reports none either.
        keys += ["elapsed", "dyn_counts"]
    for key in keys:
        assert interp[key] == span[key], key


# -- (c) dtype audit -------------------------------------------------------------


class AuditedNumpy:
    """Stands in for ``ctx.np``: every ufunc call with ``out=`` is
    repeated unbuffered and must agree in dtype and in bits; every
    ``np.take(..., out=)`` is held to the clip-gather it replaced and
    every ``np.copyto(..., where=)`` to the ``merge(old, bcv(new, n,
    dtype), mask)`` it replaced (``tests/kernel_support_oracle.py``),
    int slots included."""

    def __init__(self):
        self.buffered = 0
        #: dtype name -> audited ufunc calls into such a slot.
        self.outs = collections.Counter()
        #: dtype name -> audited gathers into / merges over such a slot.
        self.gathers = collections.Counter()
        self.merges = collections.Counter()

    def take(self, arr, idx, out=None, mode="raise"):
        if out is None:
            return np.take(arr, idx, mode=mode)
        own = kernel_support_oracle.ld(arr, idx)
        assert mode == "clip" and own.dtype == out.dtype, (own.dtype,
                                                           out.dtype)
        res = np.take(arr, idx, mode=mode, out=out)
        assert res.tobytes() == own.tobytes()
        self.gathers[out.dtype.name] += 1
        return res

    def copyto(self, dst, src, casting="same_kind", where=True):
        if dst.ndim == 1:
            own = kernel_support_oracle.merge(
                dst, kernel_support_oracle.bcv(src, dst.shape[0],
                                               dst.dtype.type), where)
        else:
            # A trip-axis block: a value of every element, of a row (the
            # lanes it was entered on) or one scalar, held to the merge
            # of the block flattened in C order.
            assert np.shape(src) in ((), dst.shape, dst.shape[1:]), (
                np.shape(src), dst.shape)
            lanes = np.broadcast_to(src, dst.shape).reshape(-1) \
                if np.ndim(src) else src
            mask = np.broadcast_to(where, dst.shape).reshape(-1) \
                if np.ndim(where) else where
            own = kernel_support_oracle.merge(
                dst.reshape(-1), kernel_support_oracle.bcv(
                    lanes, dst.size, dst.dtype.type), mask)
        np.copyto(dst, src, casting=casting, where=where)
        assert own.dtype == dst.dtype and own.tobytes() == dst.tobytes()
        self.merges[dst.dtype.name] += 1

    @property
    def ks(self):
        """Stands in for ``ctx.ks``: a block's gather (``ks.take``) is
        held to the clip-gather like ``np.take``."""
        ks = types.SimpleNamespace(**vars(kernel_support))
        ks.take = lambda arr, idx, base, out: self.take(
            arr, idx - base, out=out, mode="clip")
        return ks

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc):
            return attr

        def audited(*args, out=None, **kwargs):
            if out is None:
                return attr(*args, **kwargs)
            own = attr(*args, **kwargs)
            assert own.dtype == out.dtype, (name, own.dtype, out.dtype)
            res = attr(*args, out=out, **kwargs)
            assert res.tobytes() == own.tobytes(), name
            self.buffered += 1
            self.outs[out.dtype.name] += 1
            return res

        return audited


DTYPE_KERNELS = {
    # float/double/int locals, casts, Python scalars (host scalars and
    # literals), a same-array read at another offset (ahead of the
    # write, so the sequential interpreter reads what the lanes read).
    "mixed": """
    void k(int n, int m, float a, double b, float *x, double *d, int *c,
           float *y) {
      #pragma acc parallel loop
      for (int i = 1; i < n; i++) {
        float f = x[i] * a + 2;
        double g = d[i] * b - x[i];
        int t = c[i] + m;
        float h = (float)g + f * (float)t;
        if (i > 2) { f = f / (x[i - 1] + 4.0f) - b; }
        y[i] = y[i + 1] * 0.5f + h - f * 3 + fabs(f) + sqrt(x[i] * x[i]);
        d[i] = g * 2.0 + d[i + 1] - fmax(g, 0.5);
      }
    }
    """,
    "host_scalar_types": """
    void k(int n, float a, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) { y[i] = a * x[i] + (1.0f - a) * y[i]; }
    }
    """,
    # An int local as a gather index (twice through one number), loads
    # with an integer and with a host-scalar stride, float accumulators
    # and an int local assigned under a data-dependent mask, an int
    # array gathered into an int slot.
    "gather": """
    void k(int n, int m, float a, int *nb, float *p, float *w, float *y,
           int *best) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float acc = 0.0f;
        int arg = -1;
        for (int k = 0; k < m; k++) {
          int j = nb[i * m + k];
          float d = p[i * 2] - p[j * 2 + 1];
          float e = d * d + w[j];
          if (e < a) {
            acc = acc + e * w[i * m + k];
            arg = nb[j];
          }
        }
        y[i] = acc;
        best[i] = arg;
      }
    }
    """,
    # Sibling scopes declare one name inside a loop: each declaration
    # binds its slot where it stands (bound once ahead of the loop, the
    # second would win both scopes and alias the first scope's scratch).
    "redeclared": """
    void k(int n, int m, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float s = 0.0f;
        for (int k = 0; k < m; k++) {
          if (x[i] > 0.25f) {
            float t = x[i] * 2.0f;
            float u = t * t + (t + 1.0f) * (t - 1.0f);
            s = s + u * t;
          } else {
            float t = x[i] - 1.0f;
            s = s - t;
          }
        }
        y[i] = s;
      }
    }
    """,
    # Index arithmetic of a trip-axis block: an int32 vector times an
    # integer literal and plus a host ``int``, an int64 block (the lane
    # index plus an int32 block) times a literal.
    "int_block": """
    void k(int n, int m, int s, int *nb, float *p, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float acc = 0.0f;
        for (int q = 0; q < m; q++) {
          int j = nb[i * m + q];
          int t = j * 3 + s;
          int u = (i + j) * 2;
          acc = acc + p[t] * p[u];
        }
        y[i] = acc;
      }
    }
    """,
}


def launch(prog, name, scalars, arrays, interp=False, audit=None):
    ctx = KernelContext(device_index=0, i0=scalars.pop("_i0", 0),
                        i1=scalars["n"], scalars=scalars, permissive=True)
    if audit is not None:
        ctx.np, ctx.ks = audit, audit.ks
    for k, v in arrays.items():
        ctx.arrays[k] = v
        ctx.base[k] = 0
    (oracle(prog) if interp else prog).kernel(name).execute(ctx)
    return ctx


class TestDtypeAudit:
    def arrays(self, n=34):
        rng = np.random.default_rng(3)
        return {"x": rng.uniform(-2, 2, n).astype(np.float32),
                "d": rng.uniform(-2, 2, n),
                "c": rng.integers(-5, 5, n).astype(np.int32),
                "y": rng.uniform(-1, 1, n).astype(np.float32)}

    def test_every_buffered_op_matches_numpys_own_result(self):
        prog = repro.compile(DTYPE_KERNELS["mixed"])
        audit = AuditedNumpy()
        scalars = {"_i0": 1, "n": 33, "m": 3, "a": 0.3, "b": 1.7}
        span = self.arrays()
        launch(prog, "k_L0", dict(scalars), span, audit=audit)
        assert audit.buffered >= 8  # the lowering did buffer
        interp = self.arrays()
        launch(prog, "k_L0", dict(scalars), interp, interp=True)
        for name in span:
            assert_interp_agrees(interp[name], span[name])

    def gather_arrays(self, n=33, m=5):
        rng = np.random.default_rng(7)
        return {"nb": rng.integers(0, n, n * m).astype(np.int32),
                "p": rng.uniform(-1, 1, 2 * n).astype(np.float32),
                "w": rng.uniform(0, 1, n * m).astype(np.float32),
                "y": np.zeros(n, np.float32),
                "best": np.zeros(n, np.int32)}

    def test_gathers_merges_and_int_slots_match_what_they_replaced(self):
        prog = repro.compile(DTYPE_KERNELS["gather"])
        text = prog.kernel_source("k_L0")
        for helper in ("ks.bcv", "ks.merge", "ks.ld(", "np.where", "np.clip"):
            assert helper not in text
        audit = AuditedNumpy()
        scalars = {"_i0": 2, "n": 33, "m": 5, "a": 0.9}
        span = self.gather_arrays()
        launch(prog, "k_L0", dict(scalars), span, audit=audit)
        assert audit.buffered >= 6
        assert audit.gathers["float32"] and audit.gathers["int32"]
        assert audit.merges["float32"] and audit.merges["int32"]
        interp = self.gather_arrays()
        launch(prog, "k_L0", dict(scalars), interp, interp=True)
        assert span["best"].max() >= 0      # the mask did fire
        for name in span:
            assert_interp_agrees(interp[name], span[name])

    def test_integer_block_slots_match_numpys_own_result(self):
        """Rule 6's integer cases -- an int vector against an integer
        literal or a host ``int`` (bound as the host holds it) -- land in
        arena slots of the vector's dtype, bit for bit NumPy's unbuffered
        result."""
        prog = repro.compile(DTYPE_KERNELS["int_block"])
        assert "v_s = ctx.scalars['s']" in prog.kernel_source("k_L0")
        rng = np.random.default_rng(5)

        def arrays():
            return {"nb": rng.integers(0, 10, 33 * 4).astype(np.int32),
                    "p": rng.uniform(-1, 1, 90).astype(np.float32),
                    "y": np.zeros(33, np.float32)}

        audit = AuditedNumpy()
        scalars = {"n": 33, "m": 4, "s": 7}
        span = arrays()
        interp = {k: v.copy() for k, v in span.items()}
        launch(prog, "k_L0", dict(scalars), span, audit=audit)
        assert audit.outs["int32"] >= 2 and audit.outs["int64"] >= 1
        launch(prog, "k_L0", dict(scalars), interp, interp=True)
        for name in span:
            assert_interp_agrees(interp[name], span[name])

    def test_redeclared_local_rebinds_where_it_stands(self):
        prog = repro.compile(DTYPE_KERNELS["redeclared"])
        out = []
        for engine in ("vector", "interp"):
            arrays = {"x": self.arrays()["x"] / 2, "y": self.arrays()["y"]}
            launch(prog, "k_L0", {"n": 33, "m": 3}, arrays,
                   interp=engine == "interp")
            out.append(arrays["y"])
        assert_interp_agrees(out[1], out[0])

    @pytest.mark.parametrize(
        "a", [0.3, np.float32(0.3), np.float64(0.3), 1],
        ids=["float", "np.float32", "np.float64", "int"])
    def test_host_scalar_is_bound_through_its_c_type(self, a):
        """``a`` is a ``float``, so the kernel binds it as a float32
        scalar: whatever the caller hands in, the audited ``out=``
        statements run and give the bits of ``a = np.float32(a)``."""
        prog = repro.compile(DTYPE_KERNELS["host_scalar_types"])
        assert "v_a = np.float32(ctx.scalars['a'])" \
            in prog.kernel_source("k_L0")
        out = []
        for value in (a, np.float32(a)):
            arrays = {"x": self.arrays()["x"], "y": self.arrays()["y"]}
            audit = AuditedNumpy()
            launch(prog, "k_L0", {"n": 33, "a": value}, arrays, audit=audit)
            assert audit.buffered > 0
            out.append(arrays["y"].tobytes())
        assert out[0] == out[1]


REDUCE_THEN_READ = """
void f(int n, float *x, float *y) {
  float acc = 0.0f;
  #pragma acc parallel loop reduction(+:acc)
  for (int i = 0; i < n; i++) { acc += x[i]; }
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { y[i] = acc * x[i] + y[i]; }
}
void g(int n, float acc, float *x, float *y) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) { y[i] = acc * x[i] + y[i]; }
}
"""


@pytest.mark.parametrize("ngpus", [1, 2, 4])
def test_reduction_result_holds_its_c_type(ngpus, monkeypatch):
    """A reduction result is a host scalar like any other: a ``float``
    one is a float32 scalar, which a later kernel binds as it is."""
    audit = AuditedNumpy()
    monkeypatch.setattr(KernelContext, "np", audit)
    prog = repro.compile(REDUCE_THEN_READ)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 257).astype(np.float32)
    y = rng.uniform(-1, 1, 257).astype(np.float32)
    reduced = {"n": 257, "x": x.copy(), "y": y.copy()}
    run = prog.run("f", reduced, machine=NODE4, ngpus=ngpus)
    acc = run.result.env["acc"]
    assert type(acc) is np.float32
    assert audit.buffered > 0  # f_L0 has no arithmetic: f_L1 buffered
    passed = {"n": 257, "acc": acc, "x": x.copy(), "y": y.copy()}
    prog.run("g", passed, machine=NODE4, ngpus=ngpus)
    assert reduced["y"].tobytes() == passed["y"].tobytes()


# -- (d) sanitizer ---------------------------------------------------------------


@pytest.mark.parametrize("ngpus", [1, 2, 4])
@pytest.mark.parametrize("app,options", [
    ("jacobi", None), ("stencil", None),
    ("gradpipe", CompileOptions(fuse=True)), ("md", None), ("bfs", None)])
def test_sanitizer_stays_clean(app, options, ngpus):
    spec = APPS[app]
    args = spec.args_for("tiny")
    run = repro.compile(spec.source, options).run(
        spec.entry, args, machine=NODE4, ngpus=ngpus, sanitize=True)
    assert run.sanitizer.oracle.loops_run > 0


def test_contexts_do_not_share_scratch_by_default():
    a, b = KernelContext(0, 0, 4), KernelContext(0, 0, 4)
    assert a.arena is not b.arena


# -- steady-state gate -----------------------------------------------------------


class TestArena:
    def test_steady_requests_allocate_nothing(self):
        arena = ScratchArena()
        first = arena.slot(1, 100, np.float32)
        assert arena.misses == 1 and first.shape == (100,)
        assert arena.slot(1, 100, np.float32) is first
        assert arena.slot(1, 40, np.float64).shape == (40,)   # 320 bytes fit
        assert arena.slot(1, 100, np.float32).dtype == np.float32
        assert arena.misses == 1
        arena.slot(1, 101, np.float32)
        assert arena.misses == 2
        arena.release()
        assert arena.nbytes == 0


STEADY = [("jacobi", {"n": 1 << 14, "tol": 1e-30}, "maxiter", None),
          ("stencil", {"n": 1 << 14}, "steps", None),
          ("gradpipe", {"n": 1 << 14}, "steps", CompileOptions(fuse=True))]


#: What the retired mask lowering built per operation and a steady
#: launch must not: clipped index vectors, merged locals, iota vectors.
PER_OPERATION = [(np, "clip"), (np, "where"), (np, "arange")]


@pytest.fixture
def launches(monkeypatch):
    """Record, per kernel launch, the peak of fresh NumPy memory and the
    number of calls to each ``PER_OPERATION`` helper made inside the
    kernel body."""
    seen = []
    execute = KernelPlan.execute
    inside = [False]

    def counting(module, name):
        helper = getattr(module, name)

        def counted(*args, **kwargs):
            if inside[0]:
                seen[-1][name] += 1
            return helper(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def measured_execute(self, ctx):
        seen.append({"kernel": self.name, "lanes": ctx.n_tasks,
                     "misses": ctx.arena.misses,
                     **{name: 0 for _, name in PER_OPERATION}})
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        inside[0] = True
        try:
            execute(self, ctx)
        finally:
            inside[0] = False
        seen[-1]["fresh"] = tracemalloc.get_traced_memory()[1] - before
        seen[-1]["misses"] = ctx.arena.misses - seen[-1]["misses"]

    monkeypatch.setattr(KernelPlan, "execute", measured_execute)
    for module, name in PER_OPERATION:
        counting(module, name)
    tracemalloc.start()
    yield seen
    tracemalloc.stop()


@pytest.mark.parametrize("ngpus", [1, 4])
@pytest.mark.parametrize("app,params,sweeps,options", STEADY)
def test_steady_state_launch_allocates_nothing(app, params, sweeps, options,
                                               ngpus, launches):
    """After the first sweep a launch takes every lane vector from the
    arena and builds no index vector -- for 3 sweeps as for 9."""
    spec = APPS[app]
    prog = repro.compile(spec.source, options)
    per_sweep = None
    for count in (3, 9):
        launches.clear()
        args = spec.make_args(**params, **{sweeps: count}, seed=5)
        prog.run(spec.entry, args, machine=NODE4, ngpus=ngpus)
        assert len(launches) % count == 0
        per_sweep = len(launches) // count
        for rec in launches[per_sweep:]:
            lane_bytes = 4 * rec["lanes"]
            assert rec["fresh"] < lane_bytes // 2, rec
            assert not per_operation_calls(rec) and rec["misses"] == 0, rec
        # The first sweep is where the arena grows, if anywhere.
        assert sum(r["misses"] for r in launches[:per_sweep]) <= 4 * ngpus


def per_operation_calls(rec):
    return {name: rec[name] for _, name in PER_OPERATION if rec[name]}


@pytest.mark.parametrize("ngpus", [1, 4])
def test_kmeans_assignment_launch_allocates_nothing(ngpus, launches):
    """``kmeans_L0`` -- strided feature loads, float accumulators and an
    ``int`` local under a data-dependent mask -- after the first sweep:
    no clipped index vector, no ``where``, no iota, no fresh lane
    vector, no arena growth; for 3 sweeps as for 9."""
    spec = APPS["kmeans"]
    prog = repro.compile(spec.source)
    for niters in (3, 9):
        launches.clear()
        args = spec.make_args(npoints=1 << 12, nclusters=4, nfeatures=6,
                              niters=niters, seed=5)
        prog.run(spec.entry, args, machine=NODE4, ngpus=ngpus)
        assert len(launches) == 2 * ngpus * niters
        for rec in launches[2 * ngpus:]:
            assert rec["misses"] == 0, rec
            if rec["kernel"] == "kmeans_L0":
                assert not per_operation_calls(rec), rec
                assert rec["fresh"] < 4 * rec["lanes"] // 2, rec
        # The arena grows in the first sweep only: one miss per slot.
        assert 0 < sum(r["misses"] for r in launches[:2 * ngpus]) \
            <= 8 * ngpus


@pytest.mark.parametrize("ngpus", [1, 4])
def test_md_launch_allocates_a_constant_number_of_lane_vectors(ngpus,
                                                               launches):
    """``md_L0`` gathers through an ``int`` local, so its integer index
    arithmetic is unbuffered (rule 6) -- but what a launch allocates is
    the arena's slots plus a constant handful of index vectors, whatever
    the trip count of the neighbour loop, and none of it per
    operation."""
    spec = APPS["md"]
    prog = repro.compile(spec.source)
    peak = {}
    for maxneigh in (4, 16):
        launches.clear()
        args = spec.make_args(natoms=1 << 12, maxneigh=maxneigh, seed=5)
        prog.run(spec.entry, args, machine=NODE4, ngpus=ngpus)
        assert [r["kernel"] for r in launches] == ["md_L0"] * ngpus
        for rec in launches:
            assert not per_operation_calls(rec), rec
        peak[maxneigh] = max(r["fresh"] / (4 * r["lanes"]) for r in launches)
    assert peak[16] < 40 and abs(peak[16] - peak[4]) < 0.5, peak


#: The flattening of a CSR loop is the one place a launch builds index
#: vectors: ``ks.flat_ranges``' offsets.  With no mask every lane is
#: active and the position vector is built from ``ctx.iota()``, so
#: ``spmv_L0`` builds no ``np.arange`` of its lanes (it built one before
#: the unmasked flattening indexed the bounds directly) -- except the
#: one that fills a context's ``iota`` memo on its first launch.
FLATTENING_ARANGES = {"bfs_L0": 1, "spmv_L0": 1}
IOTA_MEMO_ARANGES = {"bfs_L0": 0, "spmv_L0": 1}


@pytest.mark.parametrize("ngpus", [1, 4])
@pytest.mark.parametrize("app", ["bfs", "spmv"])
def test_csr_launch_calls_no_per_operation_helper(app, ngpus, launches):
    """Every ``bfs_L0`` level and every ``spmv_L0`` launch: no clipped
    index vector, no ``where``, and ``np.arange`` only in its
    flattening."""
    spec = APPS[app]
    repro.compile(spec.source).run(spec.entry, spec.args_for("test"),
                                   machine=NODE4, ngpus=ngpus)
    recs = [r for r in launches if r["kernel"] == f"{app}_L0"]
    assert len(recs) >= ngpus
    for rec in recs:
        calls = per_operation_calls(rec)
        assert set(calls) <= {"arange"}, rec
        assert calls.get("arange", 0) <= FLATTENING_ARANGES[rec["kernel"]] \
            + IOTA_MEMO_ARANGES[rec["kernel"]], rec


#: ``spmv``'s loop with two more statements in its CSR body: a local
#: declared on the flattened axis and a second update of ``sum``.
SPMV_PLUS = APPS["spmv"].source.replace(
    "sum += val[e] * x[col[e]];",
    "float a = val[e] * x[col[e]];\n"
    "          sum += a;\n"
    "          sum += a * 0.5f;")


def test_csr_body_statements_allocate_nothing_outside_the_arena(launches):
    """A second launch on one context takes every slot from the arena;
    what it allocates beyond that is the flattening's index vectors and
    the gathers' index arithmetic (unbuffered, rule 6), so two more
    statements over the same operands add no allocation and no
    per-operation call."""
    args = APPS["spmv"].args_for("test")
    assert SPMV_PLUS != APPS["spmv"].source
    second = {}
    for source in (APPS["spmv"].source, SPMV_PLUS):
        prog = repro.compile(source)
        ctx = KernelContext(device_index=0, i0=0, i1=args["n"],
                            scalars={"n": args["n"], "nnz": args["nnz"]},
                            permissive=True)
        for name in ("row", "col", "val", "x", "y"):
            ctx.arrays[name] = np.array(args[name])
            ctx.base[name] = 0
        launches.clear()
        for _ in range(2):
            prog.kernel("spmv_L0").execute(ctx)
        first, second[source] = launches
        assert first["misses"] > 0 and second[source]["misses"] == 0
    base, plus = second[APPS["spmv"].source], second[SPMV_PLUS]
    assert per_operation_calls(plus) == per_operation_calls(base) \
        == {"arange": FLATTENING_ARANGES["spmv_L0"]}
    nnz = args["nnz"]
    assert abs(plus["fresh"] - base["fresh"]) < 1024, (base, plus)
    # The position vector, the flat indices and the buffer-local index
    # vectors of spmv's three gathers -- under six int64 vectors of the
    # flattened length -- and the row bounds, active rows and counts.
    assert base["fresh"] < 8 * (6 * nnz + 5 * args["n"]), (base, nnz)


def test_finished_run_keeps_no_scratch():
    spec = APPS["jacobi"]
    prog = repro.compile(spec.source)
    tracemalloc.start()
    try:
        held = []
        for k in range(20):
            args = spec.make_args(n=1 << 14, maxiter=3, tol=1e-30, seed=5)
            run = prog.run(spec.entry, args, machine=NODE4, ngpus=4)
            assert all(a.nbytes == 0 for a in run.executor._arenas)
            del run, args
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[-1] - held[4] < (1 << 14)  # no growth with the run count


# -- storage recycling: counts on both sides of the size floor -----------------


#: The three ``stream`` cases (perf/workloads.py) at a quarter of their
#: length: every device block and lane vector is still 128 KiB or more.
STREAM = [("jacobi", {"n": 1 << 17, "tol": 1e-30}, "maxiter", None, 4),
          ("stencil", {"n": 1 << 17}, "steps", None, 1),
          ("gradpipe", {"n": 1 << 17}, "steps", CompileOptions(fuse=True), 2)]

#: The three ``launch_small`` cases at their benchmark sizes.
OVERLAPPED = {"overlap": True, "coalesce": True}
LAUNCH_SMALL = [
    ("jacobi", {"n": 1 << 14, "maxiter": 20, "tol": 1e-30}, {}),
    ("stencil", {"n": 1 << 14, "steps": 16}, {}),
    ("phasepipe", {"n": 1 << 12, "off": 5, "steps": 8}, OVERLAPPED)]


@pytest.mark.parametrize("app,params,sweeps,options,ngpus", STREAM)
def test_second_run_recycles_every_block(app, params, sweeps, options, ngpus,
                                         recycler):
    """Above the floor the second run in a process takes no fresh block
    -- for 3 sweeps as for 9."""
    spec = APPS[app]
    prog = repro.compile(spec.source, options)
    machine = hypothetical_node(ngpus)
    for count in (3, 9):
        per_run = []
        for _ in range(2):
            before = recycler.takes, recycler.hits
            args = spec.make_args(**params, **{sweeps: count}, seed=5)
            prog.run(spec.entry, args, machine=machine, ngpus=ngpus)
            per_run.append((recycler.takes - before[0],
                            recycler.hits - before[1]))
        (first_takes, _), (takes, hits) = per_run
        assert hits == takes == first_takes > 0, per_run
        assert 0 < recycler.bytes_held <= recycler.cap


@pytest.mark.parametrize("app,params,flags", LAUNCH_SMALL)
def test_small_launch_runs_never_reach_the_recycler(app, params, flags,
                                                    recycler):
    spec = APPS[app]
    prog = repro.compile(spec.source)
    args = spec.make_args(**params, seed=5)
    prog.run(spec.entry, args, machine=hypothetical_node(8), ngpus=8, **flags)
    assert (recycler.takes, recycler.bytes_held) == (0, 0)


def test_recycler_cap_holds_over_a_mixed_sequence_of_runs(monkeypatch):
    """Sizes that stop recurring age out: the held bytes never pass the
    cap, here one small enough that every run evicts."""
    rec = vmem.StorageRecycler(1 << 20)
    monkeypatch.setattr(vmem, "RECYCLER", rec)
    for app, params, sweeps, options, ngpus in STREAM * 2:
        spec = APPS[app]
        args = spec.make_args(**params, **{sweeps: 2}, seed=5)
        repro.compile(spec.source, options).run(
            spec.entry, args, machine=hypothetical_node(ngpus), ngpus=ngpus)
        spec.check(args, inputs=spec.make_args(**params, **{sweeps: 2},
                                               seed=5))
        assert 0 < rec.bytes_held <= rec.cap
    assert rec.takes > rec.hits > 0


# -- lane strips at ``stream`` sizes: counts, never seconds -----------------------


def test_stream_sized_launch_runs_in_strips(monkeypatch):
    """A launch of 2**18 lanes a GPU calls its kernel once per strip of
    ``kernel_support.LANE_STRIP`` lanes."""
    spec = APPS["jacobi"]
    prog = repro.compile(spec.source)
    per_launch = []
    execute = KernelPlan.execute

    def counted_execute(self, ctx):
        per_launch.append([self.name, ctx.n_tasks, 0])
        execute(self, ctx)

    def counted(fn):
        def call(ctx):
            per_launch[-1][2] += 1
            return fn(ctx)
        return call

    monkeypatch.setattr(KernelPlan, "execute", counted_execute)
    for plan in prog.kernels:
        monkeypatch.setattr(plan, "fn", counted(plan.fn))
    n = 1 << 20
    args = spec.make_args(n=n, maxiter=2, tol=1e-30, seed=5)
    prog.run(spec.entry, args, machine=NODE4, ngpus=4)
    strips = -(-(n // 4) // kernel_support.LANE_STRIP)
    assert strips == 8
    assert per_launch == [[name, n // 4, strips] for name in
                          ("jacobi_L0", "jacobi_L1") for _ in range(4)] * 2


@pytest.mark.parametrize("app,params,sweeps,options,ngpus", STREAM)
def test_scratch_does_not_grow_with_the_slice(app, params, sweeps, options,
                                              ngpus, monkeypatch):
    """A strip's slots are strip-sized: the arena of a 2**17-lane slice
    holds as many bytes as the one of a 2**19-lane slice."""
    spec = APPS[app]
    prog = repro.compile(spec.source, options)
    held = []
    execute = KernelPlan.execute

    def measured_execute(self, ctx):
        execute(self, ctx)
        held[-1] = max(held[-1], ctx.arena.nbytes)

    monkeypatch.setattr(KernelPlan, "execute", measured_execute)
    for n in (1 << 17, 1 << 19):
        held.append(0)
        args = spec.make_args(**{**params, "n": n}, **{sweeps: 2}, seed=5)
        prog.run(spec.entry, args, machine=hypothetical_node(1), ngpus=1)
    assert held[0] == held[1] > 0, held


def strip_launches(launches, source, name, args, scalars):
    """Two launches of kernel ``name`` of ``source`` over one context
    holding ``args`` (the second is the steady state)."""
    ctx = KernelContext(device_index=0, i0=0, i1=args["n"],
                        scalars={k: args[k] for k in scalars},
                        permissive=True)
    for k, v in args.items():
        if isinstance(v, np.ndarray):
            ctx.arrays[k] = np.array(v)
            ctx.base[k] = 0
    kernel = repro.compile(source).kernel(name)
    launches.clear()
    for _ in range(2):
        kernel.execute(ctx)
    return launches


def test_strips_of_an_iota_kernel_build_no_index_vector(launches):
    """``shift_scale_L0`` reads its lane indices (``ctx.iota()``): at
    2**17 lanes its strips slice the launch's memoized vector, so after
    the first launch none builds one or grows the arena."""
    args = APPS["shift_scale"].make_args(n=1 << 17, shift=4099, seed=5)
    first, second = strip_launches(launches, APPS["shift_scale"].source,
                                   "shift_scale_L0", args,
                                   ("n", "shift", "scale"))
    assert first["arange"] == 1
    assert second["misses"] == 0 and not per_operation_calls(second), second


def test_strips_of_a_csr_kernel_stay_in_the_arena(launches):
    """``spmv_L0`` above ``LANE_STRIP`` rows: after the first launch no
    strip grows the arena, and each calls ``np.arange`` only in its
    flattening."""
    args = APPS["spmv"].make_args(n=40000, avg_nnz_per_row=8, seed=5)
    strips = -(-args["n"] // kernel_support.LANE_STRIP)
    assert strips == 2
    first, second = strip_launches(launches, APPS["spmv"].source, "spmv_L0",
                                   args, ("n", "nnz"))
    assert first["misses"] > 0 and second["misses"] == 0, second
    assert per_operation_calls(second) == {
        "arange": strips * FLATTENING_ARANGES["spmv_L0"]}, second


class TestIntegerLiterals:
    """An integer literal's spelling gives its value and C type, and an
    integer operation computes in its C type's width, on the host and
    in kernels, as gcc does."""

    LONG_PRODUCT = """
    void k(int n, int *a, long *b) {
      #pragma acc parallel loop copyin(a[0:n]) copyout(b[0:n])
      for (int i = 0; i < n; i++) { b[i] = a[i] * 2L; }
      for (int j = 0; j < 2; j++) { b[n + j] = a[j] * 2L; }
    }
    """

    OCTAL = """
    void k(int n, int *h) {
      #pragma acc parallel loop copy(h[0:n])
      for (int i = 0; i < n; i++) { h[i] = 010 + 0; }
      h[n] = 010 + 0;
      h[n + 1] = 0x10 + 017;
    }
    """

    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_int_operand_of_a_long_product_is_widened_first(self, ngpus):
        n = 37
        a = np.full(n, 2_000_000_000, np.int32)
        b = np.zeros(n + 2, np.int64)
        prog = repro.compile(self.LONG_PRODUCT)
        prog.run("k", {"n": n, "a": a, "b": b}, ngpus=ngpus)
        assert b.tolist() == [4_000_000_000] * (n + 2)
        assert "ks.cast_to(" in prog.kernel_source("k_L0")

    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_octal_literal_on_the_host_and_in_a_kernel(self, ngpus):
        n = 9
        h = np.zeros(n + 2, np.int32)
        repro.compile(self.OCTAL).run("k", {"n": n, "h": h}, ngpus=ngpus)
        assert h.tolist() == [8] * (n + 1) + [31]


class TestIntegerOperators:
    """Every kernel operator -- ``%``, ``?:``, ``!`` / ``&&`` / ``||``,
    shifts, bit operators, math calls -- is lowered by
    ``Vectorizer.bx`` and converts its operands by one rule
    (``Vectorizer._operands``), so an ``int`` operand of a ``long`` or
    ``unsigned`` operation is converted first, as gcc converts it."""

    WITNESSES = """
    void k(int n, int *a, long *b, long *c, long *d, long *e) {
      #pragma acc parallel loop copyin(a[0:n]) copyout(b[0:n], c[0:n], d[0:n], e[0:n])
      for (int i = 0; i < n; i++) {
        b[i] = (a[i] * 2L) % 7;
        c[i] = a[i] > 0 ? a[i] * 2L : 0;
        d[i] = !(a[i] % 3) && a[i] * 2L > 3000000000L;
        e[i] = a[i] * 2u;
      }
      for (int j = 0; j < n; j++) {
        b[n + j] = (a[j] * 2L) % 7;
        c[n + j] = a[j] > 0 ? a[j] * 2L : 0;
        d[n + j] = !(a[j] % 3) && a[j] * 2L > 3000000000L;
        e[n + j] = a[j] * 2u;
      }
    }
    """
    A = [2_000_000_000, 1_999_999_998, -1, -7, 3, 0, -2_000_000_001]
    #: gcc's values for each of ``A``.
    WANT = {"b": [3, 6, -2, 0, 6, 0, -5],
            "c": [4_000_000_000, 3_999_999_996, 0, 0, 6, 0, 0],
            "d": [0, 1, 0, 0, 0, 0, 0],
            "e": [4_000_000_000, 3_999_999_996, 4_294_967_294,
                  4_294_967_282, 6, 0, 294_967_294]}

    @pytest.mark.parametrize("machine,ngpus", [
        ("desktop", 1), ("desktop", 2), (NODE4, 4),
        (hypothetical_cluster(2, 2), 4)],
        ids=["1gpu", "2gpu", "4gpu", "2x2"])
    def test_witnesses_equal_gcc_in_kernels_and_on_the_host(self, machine,
                                                            ngpus):
        n = len(self.A)
        args = {"n": n, "a": np.array(self.A, np.int32),
                **{x: np.zeros(2 * n, np.int64) for x in "bcde"}}
        repro.compile(self.WITNESSES).run("k", args, machine=machine,
                                          ngpus=ngpus)
        for x, want in self.WANT.items():
            # The kernel's lanes, then the host loop's.
            assert args[x].tolist() == want + want, x

    def test_a_shared_subexpression_is_computed_once(self):
        text = repro.compile(self.WITNESSES).kernel_source("k_L0")
        # ``a[i] * 2L`` feeds the ``%``, the ternary and the ``&&``.
        assert text.count(" * 2)") == 2  # the long product and ``* 2u``
        assert "np.where(" in text and "np.fmod(" in text
        assert "np.asarray" not in text and "copy=True" not in text

    LANE_INVARIANT = """
    void k(int n, int m, int *a, int *b) {
      #pragma acc parallel loop copyin(a[0:n]) copyout(b[0:n])
      for (int i = 0; i < n; i++) {
        if (!m && a[i] > 0) { b[i] = ~m + (m % 4) + (a[i] << 2); }
        else { b[i] = (m > 2 ? m : -m) | (a[i] & 6) ^ (a[i] >> 1); }
      }
    }
    """

    @pytest.mark.parametrize("m,want", [
        (0, [11, -6, 0, 27, -7, 47]), (1, [-1] * 6),
        (5, [7, -1, 5, 5, -3, 7]), (-6, [7, -2, 6, 7, -1, 6])])
    def test_lane_invariant_operators_follow_c(self, m, want):
        """A lane-invariant ``!`` is a Python ``not`` (``~`` of a bool
        is -2) and ``%`` truncates: the kernel and the interpreter
        oracle store gcc's values."""
        a = np.array([3, -4, 0, 7, -1, 12], np.int32)
        for interp in (False, True):
            args, _ = run_source(self.LANE_INVARIANT, {
                "n": a.size, "m": m, "a": a.copy(),
                "b": np.zeros(a.size, np.int32)}, interp=interp)
            assert args["b"].tolist() == want, interp

    UNSIGNED_SCALARS = """
    void k(int n, int m, int *a, int *b, int *c, long *d, int *h) {
      #pragma acc parallel loop copyin(a[0:n]) copyout(b[0:n], c[0:n], d[0:n])
      for (int i = 0; i < n; i++) {
        int x = m * 3u;
        b[i] = -5u + m;
        c[a[i] * 0] = m * 3u;
        d[i] = x + (m * 3u);
      }
      h[0] = m * 3u;
      h[1] = (int)(m * 5u);
    }
    """

    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_unsigned_scalars_wrap_into_signed_objects(self, ngpus):
        """A lane-invariant ``unsigned`` value stored into a signed local
        or element, and a cast of one, wrap as gcc converts them (NumPy
        refuses an out-of-range scalar)."""
        args = {"n": 3, "m": -1, "a": np.arange(3, dtype=np.int32),
                **{x: np.zeros(3, np.int32) for x in "bc"},
                "d": np.zeros(3, np.int64), "h": np.zeros(2, np.int32)}
        repro.compile(self.UNSIGNED_SCALARS).run("k", args, ngpus=ngpus)
        assert args["b"].tolist() == [-6] * 3 and args["c"][0] == -3
        assert args["d"].tolist() == [4_294_967_290] * 3
        assert args["h"].tolist() == [-3, -5]

    def test_rsqrt_runs_in_a_kernel(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop copyin(x[0:n]) copyout(y[0:n])
          for (int i = 0; i < n; i++) { y[i] = rsqrt(x[i]); }
        }
        """
        x = np.array([1.0, 4.0, 16.0], np.float32)
        args, _ = run_source(src, {"n": 3, "x": x, "y": np.zeros(3, np.float32)})
        np.testing.assert_allclose(args["y"], [1.0, 0.5, 0.25])
