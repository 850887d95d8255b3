"""Compiler fuzzing: random programs through both engines.

Hypothesis builds random C expression trees (as source text) and random
predicated statement structures; each generated program is compiled and
executed with the vectorized engine and the scalar interpreter on 1 and
2 GPUs, and all observable effects must match.  This hunts exactly the
class of bugs a vectorizing translator breeds: mask mishandling, type
promotion drift, operator precedence/codegen mismatches, and
index-rewriting errors.

Every expression node of a drawn program and of every bundled source
has a C type after parsing, and a drawn float kernel computes in its
expression's C type (:class:`TestCTypes`).

Every generated program additionally runs under the coherence
sanitizer on 1, 2 and 4 GPUs: no :class:`CoherenceViolation` may fire,
and the outputs must be bit-identical to the unsanitized run of the
same configuration (the sanitizer is a pure observer).
"""

import dataclasses
import hashlib
import types

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro import CompileOptions
from repro.bench.machines import hypothetical_node
from repro.frontend import cast as C
from repro.frontend import parse
from repro.frontend.fortran import parse_fortran
from repro.frontend.typer import computes_in
from repro.runtime.kernelctx import KernelContext
from repro.translator import kernel_support
from tests.test_frontend_golden import C_SOURCES, FORTRAN_SOURCES
from tests.util import run_source

#: Every bundled C and Fortran source, with its parser.
BUNDLED = {**{n: (s, parse) for n, s in C_SOURCES.items()},
           **{n: (s, parse_fortran) for n, s in FORTRAN_SOURCES.items()}}

#: ``database=None``: don't depend on the local ``.hypothesis`` example
#: database, so a failure printed by CI replays identically on any
#: checkout of the same code -- reproduction needs only the test id.
_SETTINGS = dict(max_examples=40, deadline=None, database=None)


def _case_seed(case_id: str) -> int:
    """Deterministic per-test RNG seed derived from the test's id.

    Each test gets its own fixed generation sequence: a failure in
    ``test_float_expressions`` reruns standalone (``pytest -k``) with
    exactly the inputs that failed, without the example database and
    without being perturbed by sibling tests drawing from a shared
    stream."""
    digest = hashlib.sha256(case_id.encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- expression source generator --------------------------------------------

_LEAVES_F = ["x[i]", "w[i]", "a", "1.5f", "0.25f", "2.0f"]
_LEAVES_I = ["i", "k[i]", "m", "3", "1"]


def float_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAVES_F))
    kind = draw(st.integers(0, 5))
    l = float_expr(draw, depth + 1)
    r = float_expr(draw, depth + 1)
    if kind == 0:
        return f"({l} + {r})"
    if kind == 1:
        return f"({l} - {r})"
    if kind == 2:
        return f"({l} * {r})"
    if kind == 3:
        # Division with a denominator bounded away from zero.
        return f"({l} / ({r} * {r} + 0.5f))"
    if kind == 4:
        return f"fabs({l})"
    cond = bool_expr(draw, depth + 1)
    return f"({cond} ? {l} : {r})"


def bool_expr(draw, depth=0):
    l = float_expr(draw, depth + 1)
    r = float_expr(draw, depth + 1)
    op = draw(st.sampled_from(["<", ">", "<=", ">=", "==", "!="]))
    base = f"({l} {op} {r})"
    if depth < 2 and draw(st.booleans()):
        other = bool_expr(draw, depth + 1)
        joiner = draw(st.sampled_from(["&&", "||"]))
        return f"({base} {joiner} {other})"
    return base


def int_expr(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAVES_I))
    l = int_expr(draw, depth + 1)
    r = int_expr(draw, depth + 1)
    op = draw(st.sampled_from(["+", "-", "*"]))
    return f"({l} {op} {r})"


def make_program(body: str) -> str:
    return f"""
    void fuzz(int n, int m, float a, float *x, float *w, int *k,
              float *y, int *z) {{
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {{
        {body}
      }}
    }}
    """


def fresh_args(draw, n):
    x = np.array(draw(st.lists(
        st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
        min_size=n, max_size=n)), dtype=np.float32)
    w = np.array(draw(st.lists(
        st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
        min_size=n, max_size=n)), dtype=np.float32)
    k = np.array([draw(st.integers(0, n - 1)) for _ in range(n)],
                 dtype=np.int32)
    return {
        "n": n,
        "m": draw(st.integers(0, 5)),
        "a": draw(st.floats(min_value=-4, max_value=4, allow_nan=False,
                            width=32)),
        "x": x,
        "w": w,
        "k": k,
        "y": np.zeros(n, dtype=np.float32),
        "z": np.zeros(n, dtype=np.int32),
    }


def run_all_engines(src, make):
    # Draw ONE input set; give each engine/GPU combination its own deep
    # copy (run() mutates arrays in place).
    template = make()

    def clone():
        return {k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in template.items()}

    outs = []
    for engine in ("vector", "interp"):
        for ngpus in (1, 2):
            args, _ = run_source(src, clone(), ngpus=ngpus,
                                 interp=engine == "interp")
            outs.append((engine, ngpus, args))
    _, _, base = outs[0]
    for engine, ngpus, args in outs[1:]:
        for name in ("y", "z"):
            np.testing.assert_allclose(
                args[name], base[name], rtol=2e-5, atol=2e-5,
                err_msg=f"{name} mismatch at {engine}/{ngpus}")
    # Sanitized runs: any coherence bug the random program tickles
    # raises CoherenceViolation; outputs must match the unsanitized
    # vector run of the same GPU count bit for bit.
    plain = {1: outs[0][2], 2: outs[1][2]}
    for ngpus in (1, 2, 4):
        machine = "desktop" if ngpus <= 2 else hypothetical_node(ngpus)
        if ngpus not in plain:
            plain[ngpus], _ = run_source(src, clone(), ngpus=ngpus,
                                         machine=machine)
        args, run = run_source(src, clone(), ngpus=ngpus, machine=machine,
                               sanitize=True)
        assert run.sanitizer.loops_checked > 0
        for name in ("y", "z"):
            np.testing.assert_array_equal(
                args[name], plain[ngpus][name],
                err_msg=f"{name} perturbed by sanitizer at ngpus={ngpus}")


class TestExpressionFuzz:
    @seed(_case_seed("TestExpressionFuzz::test_float_expressions"))
    @given(st.data(), st.integers(1, 13))
    @settings(**_SETTINGS)
    def test_float_expressions(self, data, n):
        expr = float_expr(data.draw)
        src = make_program(f"y[i] = {expr};")
        run_all_engines(src, lambda: fresh_args(data.draw, n))

    @seed(_case_seed("TestExpressionFuzz::test_int_expressions"))
    @given(st.data(), st.integers(1, 13))
    @settings(**_SETTINGS)
    def test_int_expressions(self, data, n):
        expr = int_expr(data.draw)
        src = make_program(f"z[i] = {expr};")
        run_all_engines(src, lambda: fresh_args(data.draw, n))

    @seed(_case_seed("TestExpressionFuzz::test_predicated_statements"))
    @given(st.data(), st.integers(1, 13))
    @settings(**_SETTINGS)
    def test_predicated_statements(self, data, n):
        cond1 = bool_expr(data.draw)
        cond2 = bool_expr(data.draw)
        e1 = float_expr(data.draw)
        e2 = float_expr(data.draw)
        e3 = float_expr(data.draw)
        body = f"""
        float t = {e1};
        if ({cond1}) {{
          t = {e2};
          if ({cond2}) {{ z[i] = 1; }}
        }} else {{
          t = t + {e3};
        }}
        y[i] = t;
        """
        src = make_program(body)
        run_all_engines(src, lambda: fresh_args(data.draw, n))

    @seed(_case_seed("TestExpressionFuzz::test_constant_inner_loop_bodies"))
    @given(st.data(), st.integers(1, 10))
    @settings(max_examples=25, deadline=None, database=None)
    def test_constant_inner_loop_bodies(self, data, n):
        e = float_expr(data.draw)
        cond = bool_expr(data.draw)
        body = f"""
        float s = 0.0f;
        for (int q = 0; q < m; q++) {{
          if ({cond}) {{ s += {e}; }}
        }}
        y[i] = s;
        """
        src = make_program(body)
        run_all_engines(src, lambda: fresh_args(data.draw, n))


# -- trip-axis shapes --------------------------------------------------------
#
# Constant-trip loop bodies the trip-axis lowering splits differently:
# carried updates under a carried mask and under a trip-parallel one
# (replayed unmasked, the block holding the update's identity where
# the mask is off), a trip-local rewritten after a carried statement
# read it, a nested loop, a block store and a block reduction in
# trip-major order, an array stored and loaded in one trip, an
# imprecise math call, lane-varying bounds.  ``v`` and ``y`` hold five
# elements per lane (``m`` is at most 5), ``h`` is a small histogram.

TRIP_SHAPES = {
    "carried_argmin": """
        float best = 1.0e30f;
        int kk = -1;
        for (int q = 0; q < m; q++) {
          float d = {e} + v[i * m + q];
          if (d < best) { best = d; kk = q; }
        }
        y[i] = best;
        z[i] = kk;
    """,
    "nested_reset": """
        float s = 0.0f;
        for (int q = 0; q < m; q++) {
          float t = 0.0f;
          for (int r = 0; r < m; r++) { t = t + v[i * m + r] * {e}; }
          if (t > a) { s = s + t; }
        }
        y[i] = s;
    """,
    "block_store": """
        for (int q = 0; q < m; q++) {
          y[i * m + q] = {e} * v[i * m + q];
        }
    """,
    "stored_and_loaded": """
        float s = 0.0f;
        for (int q = 0; q < m; q++) {
          y[i * m + q] = v[i * m + q] * {e};
          s = s + y[i * m + m - 1];
        }
        y[i * m] = y[i * m] + s;
    """,
    "colliding_reduction": """
        for (int q = 0; q < m; q++) {
          #pragma acc reductiontoarray(+: h[0:8])
          h[(k[i] + q) % 8] += {e} + v[i * m + q];
        }
    """,
    "imprecise_call": """
        float s = 0.0f;
        for (int q = 0; q < m; q++) {
          float t = expf(v[i * m + q] * 0.25f) * {e};
          s = s + t;
        }
        y[i] = s;
    """,
    "masked_update": """
        float s = 1.0f;
        for (int q = 0; q < m; q++) {
          float t = v[i * m + q] * {e};
          if (t > a) { s = s + t; } else { s = s * 0.5f; }
        }
        y[i] = s;
    """,
    "rewritten_local": """
        float s = 0.0f;
        for (int q = 0; q < m; q++) {
          float t = v[i * m + q] * {e};
          s = s + t;
          t = t * 0.5f;
          s = s - t;
        }
        y[i] = s;
    """,
    "triangular": """
        float s = 0.0f;
        for (int q = i % 3; q < m; q++) {
          if (v[i * m + q] > a) { s = s + v[i * m + q] * {e}; }
        }
        y[i] = s;
    """,
}


def make_trip_program(body: str) -> str:
    return f"""
    void trips(int n, int m, float a, float *x, float *w, int *k, float *v,
               float *y, int *z, float *h) {{
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {{
        {body}
      }}
    }}
    """


def trip_args(draw, n):
    args = fresh_args(draw, n)
    args["v"] = np.array(draw(st.lists(
        st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
        min_size=5 * n, max_size=5 * n)), dtype=np.float32)
    args["y"] = np.zeros(5 * n, dtype=np.float32)
    args["h"] = np.zeros(8, dtype=np.float32)
    return args


def run_trip_shape(src, make):
    """The vector engine against the interpreter oracle on 1, 2 and 4
    GPUs, and each sanitized run bit for bit against the plain one."""
    template = make()

    def clone():
        return {k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in template.items()}

    for ngpus in (1, 2, 4):
        machine = "desktop" if ngpus <= 2 else hypothetical_node(ngpus)
        plain, _ = run_source(src, clone(), ngpus=ngpus, machine=machine)
        interp, _ = run_source(src, clone(), ngpus=ngpus, machine=machine,
                               interp=True)
        san, run = run_source(src, clone(), ngpus=ngpus, machine=machine,
                              sanitize=True)
        assert run.sanitizer.loops_checked > 0
        for name in ("y", "z", "h"):
            np.testing.assert_allclose(
                plain[name], interp[name], rtol=2e-5, atol=2e-5,
                err_msg=f"{name} vector/interp mismatch at ngpus={ngpus}")
            np.testing.assert_array_equal(
                san[name], plain[name],
                err_msg=f"{name} perturbed by sanitizer at ngpus={ngpus}")


class TestTripAxisFuzz:
    @seed(_case_seed("TestTripAxisFuzz::test_trip_loop_shapes"))
    @given(st.data(), st.sampled_from(sorted(TRIP_SHAPES)),
           st.integers(1, 9))
    @settings(max_examples=12, deadline=None, database=None)
    def test_trip_loop_shapes(self, data, shape, n):
        body = TRIP_SHAPES[shape].replace("{e}", float_expr(data.draw))
        run_trip_shape(make_trip_program(body),
                       lambda: trip_args(data.draw, n))

    @pytest.mark.parametrize("shape", sorted(TRIP_SHAPES))
    def test_every_shape_runs(self, shape):
        """Each shape once with fixed inputs, so none depends on the
        draw."""
        rng = np.random.default_rng(7)
        n = 7

        def make():
            return {"n": n, "m": 4, "a": 0.5,
                    "x": rng.uniform(-2, 2, n).astype(np.float32),
                    "w": rng.uniform(-2, 2, n).astype(np.float32),
                    "k": rng.integers(0, n, n).astype(np.int32),
                    "v": rng.uniform(-2, 2, 5 * n).astype(np.float32),
                    "y": np.zeros(5 * n, np.float32),
                    "z": np.zeros(n, np.int32),
                    "h": np.zeros(8, np.float32)}

        body = TRIP_SHAPES[shape].replace("{e}", "(x[i] * 0.5f + w[i])")
        run_trip_shape(make_trip_program(body), make)


# -- fusion fuzz -------------------------------------------------------------


def make_two_loop_program(body1: str, body2: str) -> str:
    """Two adjacent parallel loops over the same space: loop 1 produces
    ``y``, loop 2 consumes it at the producing offset -- the shape the
    fusion pass must fuse and keep bit-identical."""
    return f"""
    void fuzz(int n, int m, float a, float *x, float *w, int *k,
              float *y, int *z) {{
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {{
        {body1}
      }}
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {{
        {body2}
      }}
    }}
    """


def run_fused_vs_unfused(src, make):
    """Fused runs (vector + interp engines, sanitized, 1/2/4 GPUs) must
    match the unfused vector run of the same GPU count bit for bit."""
    template = make()

    def clone():
        return {k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in template.items()}

    fuse = CompileOptions(fuse=True)
    for ngpus in (1, 2, 4):
        machine = "desktop" if ngpus <= 2 else hypothetical_node(ngpus)
        plain, _ = run_source(src, clone(), ngpus=ngpus, machine=machine)
        fused, _ = run_source(src, clone(), ngpus=ngpus, machine=machine,
                              options=fuse)
        fint, _ = run_source(src, clone(), ngpus=ngpus, machine=machine,
                             options=fuse, interp=True)
        fsan, run = run_source(src, clone(), ngpus=ngpus, machine=machine,
                               options=fuse, sanitize=True)
        assert run.sanitizer.loops_checked > 0
        for name in ("y", "z"):
            np.testing.assert_array_equal(
                fused[name], plain[name],
                err_msg=f"{name} perturbed by fusion at ngpus={ngpus}")
            np.testing.assert_array_equal(
                fint[name], plain[name],
                err_msg=f"{name} fused-interp mismatch at ngpus={ngpus}")
            np.testing.assert_array_equal(
                fsan[name], plain[name],
                err_msg=f"{name} fused-sanitized mismatch at ngpus={ngpus}")


class TestFusionFuzz:
    @seed(_case_seed("TestFusionFuzz::test_producer_consumer_pairs"))
    @given(st.data(), st.integers(1, 13))
    @settings(max_examples=25, deadline=None, database=None)
    def test_producer_consumer_pairs(self, data, n):
        e1 = float_expr(data.draw)
        e2 = float_expr(data.draw)
        src = make_two_loop_program(
            f"y[i] = {e1};",
            f"z[i] = (y[i] + {e2} > 0.0f) ? 1 : 0;")
        run_fused_vs_unfused(src, lambda: fresh_args(data.draw, n))

    @seed(_case_seed("TestFusionFuzz::test_predicated_consumers"))
    @given(st.data(), st.integers(1, 13))
    @settings(max_examples=25, deadline=None, database=None)
    def test_predicated_consumers(self, data, n):
        e1 = float_expr(data.draw)
        cond = bool_expr(data.draw)
        e3 = float_expr(data.draw)
        body2 = f"""
        float t = y[i];
        if ({cond}) {{ t = t + {e3}; z[i] = 1; }}
        y[i] = t;
        """
        src = make_two_loop_program(f"y[i] = {e1};", body2)
        run_fused_vs_unfused(src, lambda: fresh_args(data.draw, n))


# -- C types: every node typed, every float kernel computing in its type ---------

#: The contexts a drawn float expression is stored from: as it is, in a
#: ``double`` operation, with an ``int`` operand, with the ``float``
#: parameter.
_TYPED_CONTEXTS = ["{e}", "({e}) * 0.1", "({e}) + (i + 16777217)",
                   "({e}) * a"]
#: The contexts a drawn ``int`` expression is stored into ``z[i]`` from:
#: truncating remainders, a ternary over a ``long`` operation, ``!`` /
#: ``&&`` / ``||``, a bitwise complement.
_INT_CONTEXTS = ["({e}) % 3", "({e}) % -4",
                 "({e}) > 2 ? ({e}) * 3000000000L / 1000000000L : -({e})",
                 "!(({e}) % 2) || ({e}) < 0 && m", "!({e}) + ~({e})"]
#: Kernel ufuncs whose ``out=`` result the dtype check watches.
_ARITHMETIC = ("add", "subtract", "multiply", "divide", "negative", "abs",
               "fmax", "fmin", "maximum", "minimum", "sqrt", "exp", "log",
               "power", "floor", "ceil")


def untyped_nodes(tree):
    """Expression nodes of ``tree`` (bodies and directives) without a
    C type."""
    def exprs(x):
        if isinstance(x, C.Expr):
            yield from C.walk_expr(x)
        elif isinstance(x, (list, tuple)):
            for item in x:
                yield from exprs(item)
        elif isinstance(x, dict):
            yield from exprs(list(x.values()))
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            for f in dataclasses.fields(x):
                yield from exprs(getattr(x, f.name))

    return [C.render_expr(e) for func in tree.functions
            for st in C.walk(func.body)
            for e in [*C.stmt_exprs(st), *exprs(st.directives)]
            for e in C.walk_expr(e) if not e.ty]


def checked_modules(stored):
    """Kernel ``np`` and ``ks`` that check C's arithmetic at run time:
    a ufunc writing through ``out=`` must compute in the ``out`` dtype
    (NumPy's promotion of its operands), and the dtype of every value a
    span store takes is recorded in ``stored`` (None: a Python
    scalar)."""
    fake_np = types.SimpleNamespace(**vars(np))
    for name in _ARITHMETIC:
        def checked(*args, out=None, _uf=getattr(np, name), **kw):
            if out is None:
                return _uf(*args, **kw)
            assert np.result_type(*args) == out.dtype, (_uf.__name__, args)
            return _uf(*args, out=out, **kw)
        setattr(fake_np, name, checked)
    fake_ks = types.SimpleNamespace(**vars(kernel_support))

    def store_span(arr, lo, n, values, *rest):
        # A Python scalar (a literal's value) takes the array's dtype.
        stored.append(getattr(values, "dtype", None))
        return kernel_support.store_span(arr, lo, n, values, *rest)

    def span_out(arr, *rest):
        view = kernel_support.span_out(arr, *rest)
        stored.append(view.dtype)
        return view

    fake_ks.store_span, fake_ks.span_out = store_span, span_out
    return fake_np, fake_ks


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_every_bundled_expression_has_a_c_type(name):
    source, parse = BUNDLED[name]
    assert untyped_nodes(parse(source)) == []


class TestCTypes:
    @seed(_case_seed("TestCTypes::test_float_kernels_compute_in_their_c_type"))
    @given(st.data(), st.integers(1, 13))
    @settings(**_SETTINGS)
    def test_float_kernels_compute_in_their_c_type(self, data, n):
        """Every node of the drawn program is typed, and the kernel's
        value for ``y[i]`` has the dtype of the expression's C type."""
        context = data.draw(st.sampled_from(_TYPED_CONTEXTS))
        src = make_program(
            f"y[i] = {context.format(e=float_expr(data.draw))};")
        tree = parse(src)
        assert untyped_nodes(tree) == []
        store = next(e for e in C.all_exprs(tree.functions[0].body)
                     if isinstance(e, C.Assign)
                     and isinstance(e.target, C.Index))
        want = {"float": np.float32, "double": np.float64}[
            computes_in(store.value)]
        stored = []
        fake_np, fake_ks = checked_modules(stored)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KernelContext, "np", fake_np)
            mp.setattr(KernelContext, "ks", fake_ks)
            run_source(src, fresh_args(data.draw, n), ngpus=1)
        assert stored and set(stored) - {None} <= {np.dtype(want)}, \
            (src, stored)

    @seed(_case_seed("TestCTypes::test_int_kernels_agree_with_the_oracle"))
    @given(st.data(), st.integers(1, 13))
    @settings(**_SETTINGS)
    def test_int_kernels_agree_with_the_oracle(self, data, n):
        """``%``, ``?:`` and ``!`` over a drawn ``int`` expression store
        what the interpreter oracle stores, on 1 and 2 GPUs."""
        context = data.draw(st.sampled_from(_INT_CONTEXTS))
        src = make_program(
            f"z[i] = {context.format(e=int_expr(data.draw))};")
        args = fresh_args(data.draw, n)
        def run(ngpus, interp):
            fresh = {k: v.copy() if isinstance(v, np.ndarray) else v
                     for k, v in args.items()}
            return run_source(src, fresh, ngpus=ngpus,
                              interp=interp)[0]["z"].tolist()

        for ngpus in (1, 2):
            assert run(ngpus, False) == run(ngpus, True), (src, ngpus)
