"""Span-native kernel lowering (:mod:`repro.translator.spanlower`).

The span body of a generated kernel must be indistinguishable from the
reference body in everything but host time.  Four angles:

(a) the lane interval derived from an ``if`` condition selects exactly
    the lanes of the reference's boolean mask (Hypothesis differential,
    task slices not starting at 0 included);
(b) every bundled program agrees on arrays, modeled seconds, bus bytes
    per kind, dynamic trip counts, dirty-chunk bytes and write-miss
    bytes between the span body, ``fastpath=False`` and
    ``engine="interp"``;
(c) every ``out=`` operation produces the dtype and the bits NumPy's
    own (unbuffered) evaluation produces;
(d) the sanitizer stays clean -- its shadow runs never share scratch
    with the run they shadow;

and a count-based steady-state gate in the style of
``test_launch_replay.py``: after the first sweep a launch allocates no
lane-length array and builds no index vector, and a finished run keeps
no scratch.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.apps import ALL_APPS, EXTRA_APPS, AppSpec
from repro.bench import multinode
from repro.bench.machines import hypothetical_node
from repro.runtime.kernelctx import KernelContext, ScratchArena
from repro.translator.compiler import CompileOptions, KernelPlan
from repro.translator.spanlower import SpanVectorizer, merge_blocks

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
    body, the mask body and the interpreter write the same lanes.  Three
    GPUs give task slices that do not start at 0 and -- at n=1, 2 --
    empty and single-lane slices."""
    prog = repro.compile(INTERVAL_KERNEL % {"outer": outer, "inner": inner})
    results = []
    for flags in ({}, {"fastpath": False}, {"engine": "interp"}):
        for ngpus in (1, 3):
            args = interval_args(n)
            prog.run("k", args, machine=NODE4, ngpus=ngpus, **flags)
            results.append(args)
    for other in results[1:]:
        for name in ("y", "z"):
            np.testing.assert_array_equal(other[name], results[0][name])


def lowering_of(src):
    """The span lowering of the first loop of ``src``, after its body
    has been emitted (locals registered)."""
    compiled = repro.compile(src).compiled
    plan = compiled.plans[0]
    vec = SpanVectorizer(plan.name, plan.analysis, plan.config,
                         {"n": "int", "p": "int", "w": "float"},
                         {"t": "int", "f": "float"})
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
        fast = text.split("else:\n        _i = np.arange")[0]
        assert "max(ctx.i0, 1)" in fast
        for vector_op in ("iota", "arange", "np.where", "flatnonzero",
                          "where=", "mark_dirty("):
            assert vector_op not in fast


class TestMergeBlocks:
    def test_same_shape_blocks_branch_only_the_lines_that_differ(self):
        loop_f = ["    for j in r:", "        x = f(j)", "        y = 2"]
        loop_r = ["    for j in r:", "        x = g(j)", "        y = 2"]
        shared = ["    a = 1"]
        assert merge_blocks([(shared, shared), (loop_f, loop_r)]) == ([
            "    a = 1", "    for j in r:", "        if _f:",
            "            x = f(j)", "        else:", "            x = g(j)",
            "        y = 2"], True)

    def test_other_blocks_branch_whole_and_runs_share_one_branch(self):
        blocks = [(["    p = lo()", "    q = hi()"], ["    c = mask()"]),
                  (["    for a in s:", "        st(a)"], ["    st(c)"]),
                  (["    z = 3"], ["    z = 3"])]
        assert merge_blocks(blocks) == ([
            "    if _f:", "        p = lo()", "        q = hi()",
            "        for a in s:", "            st(a)",
            "    else:", "        c = mask()", "        st(c)",
            "    z = 3"], True)

    def test_a_differing_compound_header_is_never_split(self):
        fast = ["    for j in f():", "        x = 1"]
        ref = ["    for j in g():", "        x = 1"]
        assert merge_blocks([(fast, ref)])[0] == [
            "    if _f:", *("    " + line for line in fast),
            "    else:", *("    " + line for line in ref)]

    def test_one_sided_blocks(self):
        both = ["    b = 2"]
        assert merge_blocks([(["    a = 1"], []), (both, both)]) == (
            ["    if _f:", "        a = 1", "    b = 2"], True)
        assert merge_blocks([([], ["    a = 1"]), (both, both)]) == (
            ["    if not _f:", "        a = 1", "    b = 2"], True)
        assert merge_blocks([(both, both)]) == (both, False)


# -- (b) observational identity across bodies and engines ----------------------

CONFIGS = {
    "default": (None, {}),
    "fuse": (CompileOptions(fuse=True), {}),
    "overlap": (None, {"overlap": True, "coalesce": True}),
}


def observe(app, ngpus, options, flags):
    spec = APPS[app]
    args = spec.args_for("tiny") if spec.workloads else spec.make_args()
    run = repro.compile(spec.source, options).run(
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


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("ngpus", [1, 2, 4])
@pytest.mark.parametrize("app", list(APPS))
def test_bodies_and_engines_agree(app, ngpus, config):
    options, flags = CONFIGS[config]
    span = observe(app, ngpus, options, flags)
    for other_flags in ({"fastpath": False}, {"engine": "interp"}):
        other = observe(app, ngpus, options, {**flags, **other_flags})
        for name, arr in span["arrays"].items():
            if "engine" in other_flags and arr.dtype.kind == "f":
                # The scalar interpreter rounds float expressions like
                # C, not like NumPy: close, as test_differential has it.
                np.testing.assert_allclose(other["arrays"][name], arr,
                                           rtol=1e-5, atol=1e-6)
            else:
                np.testing.assert_array_equal(other["arrays"][name], arr)
        keys = ["bus", "dirty_bytes", "miss_bytes"]
        if "engine" not in other_flags or not any(
                counts for per_gpu in span["dyn_counts"]
                for counts in per_gpu):
            # The scalar interpreter reports no inner-loop trip counts,
            # so its modeled kernel seconds agree with the vector
            # engine's only where that reports none either.
            keys += ["elapsed", "dyn_counts"]
        for key in keys:
            assert other[key] == span[key], (key, other_flags)


# -- (c) dtype audit -------------------------------------------------------------


class AuditedNumpy:
    """Stands in for ``ctx.np``: every ufunc call with ``out=`` is
    repeated unbuffered and must agree in dtype and in bits."""

    def __init__(self):
        self.buffered = 0

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
            return res

        return audited


DTYPE_KERNELS = {
    # float/double/int locals, casts, Python scalars (host scalars and
    # literals), a same-array read at another offset.
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
        y[i] = y[i - 1] * 0.5f + h - f * 3 + fabs(f) + sqrt(x[i] * x[i]);
        d[i] = g * 2.0 + d[i - 1] - fmax(g, 0.5);
      }
    }
    """,
    "host_scalar_types": """
    void k(int n, float a, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) { y[i] = a * x[i] + (1.0f - a) * y[i]; }
    }
    """,
}


def launch(prog, name, scalars, arrays, fastpath=True, audit=None):
    ctx = KernelContext(device_index=0, i0=scalars.pop("_i0", 0),
                        i1=scalars["n"], scalars=scalars, permissive=True,
                        fastpath=fastpath)
    if audit is not None:
        ctx.np = audit
    for k, v in arrays.items():
        ctx.arrays[k] = v
        ctx.base[k] = 0
    prog.kernel(name).fn(ctx)
    return ctx


class TestDtypeAudit:
    def arrays(self, n=33):
        rng = np.random.default_rng(3)
        return {"x": rng.uniform(-2, 2, n).astype(np.float32),
                "d": rng.uniform(-2, 2, n),
                "c": rng.integers(-5, 5, n).astype(np.int32),
                "y": rng.uniform(-1, 1, n).astype(np.float32)}

    def test_every_buffered_op_matches_numpys_own_result(self):
        prog = repro.compile(DTYPE_KERNELS["mixed"])
        audit = AuditedNumpy()
        scalars = {"_i0": 1, "n": 33, "m": 3, "a": 0.3, "b": 1.7}
        fast = self.arrays()
        launch(prog, "k_L0", dict(scalars), fast, audit=audit)
        assert audit.buffered >= 8  # the lowering did buffer
        ref = self.arrays()
        launch(prog, "k_L0", dict(scalars), ref, fastpath=False)
        for name in fast:
            assert fast[name].dtype == ref[name].dtype
            np.testing.assert_array_equal(fast[name], ref[name])

    @pytest.mark.parametrize("a", [0.3, np.float32(0.3), np.float64(0.3), 1])
    def test_unproven_host_scalar_takes_the_reference_statements(self, a):
        """``out=`` leans on ``a`` being a Python float; any other type
        runs the reference statements, whatever NumPy would make of it."""
        prog = repro.compile(DTYPE_KERNELS["host_scalar_types"])
        assert "type(v_a) is float" in prog.kernel_source("k_L0")
        out = {}
        for fastpath in (True, False):
            arrays = {"x": self.arrays()["x"], "y": self.arrays()["y"]}
            audit = AuditedNumpy()
            launch(prog, "k_L0", {"n": 33, "a": a}, arrays,
                   fastpath=fastpath, audit=audit)
            assert (audit.buffered > 0) == (fastpath and type(a) is float)
            out[fastpath] = arrays["y"]
        np.testing.assert_array_equal(out[True], out[False])


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


@pytest.fixture
def launches(monkeypatch):
    """Record, per kernel launch, the peak of fresh NumPy memory and the
    number of ``np.arange`` calls made inside the kernel body."""
    seen = []
    execute = KernelPlan.execute
    arange = np.arange
    inside = [False]

    def counting_arange(*args, **kwargs):
        if inside[0]:
            seen[-1]["arange"] += 1
        return arange(*args, **kwargs)

    def measured_execute(self, ctx, engine="vector"):
        seen.append({"lanes": ctx.n_tasks, "arange": 0,
                     "misses": ctx.arena.misses})
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        inside[0] = True
        try:
            execute(self, ctx, engine)
        finally:
            inside[0] = False
        seen[-1]["fresh"] = tracemalloc.get_traced_memory()[1] - before
        seen[-1]["misses"] = ctx.arena.misses - seen[-1]["misses"]

    monkeypatch.setattr(KernelPlan, "execute", measured_execute)
    monkeypatch.setattr(np, "arange", counting_arange)
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
            assert rec["arange"] == 0 and rec["misses"] == 0, rec
        # The first sweep is where the arena grows, if anywhere.
        assert sum(r["misses"] for r in launches[:per_sweep]) <= 4 * ngpus


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
