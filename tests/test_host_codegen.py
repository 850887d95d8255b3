"""The generated host program (:mod:`repro.translator.hostgen`) against
the tree-walker it replaced (``tests/host_oracle.py``).

(a) Hypothesis programs over the host subset: returned value, the full
    environment, every array and the raised error (class and message,
    which carries the line) are identical;
(b) every bundled program, ``stencil_probes``, the Fortran programs and
    the fused variants on 1/2/4 GPUs: arrays bitwise, modeled seconds,
    bus bytes per kind and launch counts are identical -- the generated
    code makes the same runtime calls in the same order;
(c) the snapshot-semantics programs of ``TestCopyOnWriteStaging`` (host
    writes racing deferred loads and ``update device``) behave the same;
(d) two threads sharing one thawed program get the single-thread
    results;

and the count-based gate: the host part of a run evaluates no AST --
``ExprEvaluator.eval`` calls do not grow with the host trip count -- and
a program's host text is exec'd once per process.
"""

import builtins
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.apps import ALL_APPS, EXTRA_APPS, AppSpec
from repro.bench import multinode
from repro.bench.machines import hypothetical_node
from repro.serve.registry import freeze_program, thaw_program
from repro.translator.compiler import CompileOptions, clear_compile_cache
from repro.translator.interpreter import ExprEvaluator
from tests.host_oracle import run_with_walker
from tests.test_fortran_apps import MD_FORTRAN
from tests.test_runtime import TestCopyOnWriteStaging as Snapshots

APPS = {**ALL_APPS, **EXTRA_APPS}
APPS["stencil_probes"] = AppSpec(
    name="stencil_probes", description="monitored stencil",
    source=multinode.STENCIL_PROBES_SOURCE, entry=multinode.ENTRY,
    make_args=multinode.probe_args, reference=lambda args: {},
    outputs=["a", "record"])

NODE4 = hypothetical_node(4)


def same(a, b):
    """Equal values of equal types (arrays: dtype and bits)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b or (a != a and b != b)


def outcome(run_fn, args):
    """What one execution did: the returned value and environment or
    the raised error, and the arrays either way."""
    try:
        run = run_fn(args)
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        result = {"error": (type(exc), str(exc))}
    else:
        result = {"value": run.value, "env": run.result.env}
    result["arrays"] = {k: v for k, v in args.items()
                        if isinstance(v, np.ndarray)}
    return result


def assert_same_outcome(gen, ref):
    assert gen.get("error") == ref.get("error")
    assert same(gen.get("value"), ref.get("value"))
    assert gen["arrays"].keys() == ref["arrays"].keys()
    for name, arr in ref["arrays"].items():
        assert same(gen["arrays"][name], arr), name
    if "env" in ref:
        assert gen["env"].keys() == ref["env"].keys()
        for name, v in ref["env"].items():
            assert same(gen["env"][name], v), name


def differential(monkeypatch, src, make_args, entry="k", **run_kw):
    prog = repro.compile(src)
    gen = outcome(lambda a: prog.run(entry, a, **run_kw), make_args())
    ref = outcome(lambda a: run_with_walker(monkeypatch, prog, entry, a,
                                            **run_kw), make_args())
    assert_same_outcome(gen, ref)


# -- (a) random host programs ----------------------------------------------------

HELPERS = """
int bump(int *k, int j) {
  k[j] += 1;
  return k[j];
}
float half(float v, int depth) {
  if (depth <= 0) { return v; }
  for (int s = 0; s < depth; s++) {
    v = v / 2;
    if (v < 0.01f) { return v; }
  }
  return v;
}
void fill(int n, float *dst, float v) {
  for (int i = 0; i < n; i++) { dst[i] = v; }
}
"""

HEADER = """double k(int n, int m, float a, double d, float *x, int *q, double *w) {
  int i0 = 2;
  int i1 = -7;
  float f0 = 1.5f;
  double g0 = 0.25;
  float t[4];
  int u[3];
"""


def host_args():
    return {"n": 6, "m": 3, "a": 0.5, "d": -2.25,
            "x": np.linspace(-1.0, 2.0, 6).astype(np.float32),
            "q": np.array([3, 0, -2, 5, 1, 4], np.int32),
            "w": np.linspace(0.5, 3.0, 6)}


class ProgramBuilder:
    """Draws one ``k`` over ints, floats and doubles: nested loops with
    ``break``/``continue``/``return``, data regions, ``/`` and ``%`` that
    may divide by zero, casts, ternaries, short-circuit operators over
    side-effecting calls, compound and value-position assignments,
    host-declared arrays, by-reference array arguments and subscripts
    that may fall out of range.  Names declared late (``z0``, ``z1``)
    may be read before any declaration ran."""

    INTS = ["i0", "i1", "n", "m"]
    FLOATS = ["f0", "g0", "a", "d"]
    INT_ARRAYS = {"q": 6, "u": 3}
    FLOAT_ARRAYS = {"x": 6, "w": 6, "t": 4}

    def __init__(self, draw):
        self.draw = draw
        self.fresh = 0
        self.loop_vars = []
        self.loops = 0
        self.open = set()

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def chance(self, percent):
        return self.draw(st.integers(0, 99)) < percent

    def name(self, prefix):
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    # -- expressions -----------------------------------------------------------

    def subscript(self, size):
        if self.chance(4):
            return self.pick(["-1", str(size), "n", "0 - 2", "i1"])
        if self.chance(30):
            return f"({self.int_expr(2)}) % {size}"
        return str(self.draw(st.integers(0, size - 1)))

    def int_expr(self, depth=0):
        if depth >= 3 or self.chance(35):
            kind = self.draw(st.integers(0, 9))
            if kind <= 2:
                return str(self.draw(st.integers(0, 4)))
            if kind <= 5:
                return self.pick(self.INTS + self.loop_vars)
            if kind == 6:
                arr = self.pick(list(self.INT_ARRAYS))
                return f"{arr}[{self.subscript(self.INT_ARRAYS[arr])}]"
            if kind == 7:
                return f"bump(q, {self.draw(st.integers(0, 5))})"
            if kind == 8:
                return self.pick(["z0", "z1"] if self.chance(15)
                                 else self.INTS)
            return self.pick(["i0++", "(i1 += 2)", "(i0 = m)", "--i1",
                              "(u[1] = i0)", "(q[2] -= 1)"])
        kind = self.draw(st.integers(0, 9))
        if kind <= 4:
            op = self.pick(["+", "-", "*", "/", "%", "/", "%", "<<", "&",
                            "|", "^", ">>"])
            rhs = self.int_expr(depth + 1)
            if op in ("<<", ">>"):
                rhs = str(self.draw(st.integers(0, 3)))
            return f"({self.int_expr(depth + 1)} {op} {rhs})"
        if kind == 5:
            return f"({self.bool_expr(depth + 1)})"
        if kind == 6:
            return (f"({self.bool_expr(depth + 1)} ? "
                    f"{self.int_expr(depth + 1)} : {self.int_expr(depth + 1)})")
        if kind == 7:
            return f"(int)({self.float_expr(depth + 1)})"
        if kind == 8:
            return self.pick(["-", "~", "!", "+"]) + \
                f"({self.int_expr(depth + 1)})"
        return f"abs({self.int_expr(depth + 1)})"

    def float_expr(self, depth=0):
        if depth >= 3 or self.chance(35):
            kind = self.draw(st.integers(0, 8))
            if kind <= 1:
                return self.pick(["1.5f", "0.25", "2.0f", "0.0f", "3.0"])
            if kind <= 4:
                return self.pick(self.FLOATS)
            if kind <= 6:
                arr = self.pick(list(self.FLOAT_ARRAYS))
                return f"{arr}[{self.subscript(self.FLOAT_ARRAYS[arr])}]"
            if kind == 7:
                return f"half({self.pick(self.FLOATS)}, {self.pick(['0', '2', 'm'])})"
            return self.pick(["(f0 *= 2)", "(g0 = a)", "(t[0] = f0)",
                              "(x[1] += 1.0f)"])
        kind = self.draw(st.integers(0, 8))
        if kind <= 3:
            op = self.pick(["+", "-", "*", "/", "%"])
            mixed = self.int_expr if self.chance(30) else self.float_expr
            return f"({self.float_expr(depth + 1)} {op} {mixed(depth + 1)})"
        if kind == 4:
            return (f"({self.bool_expr(depth + 1)} ? "
                    f"{self.float_expr(depth + 1)} : {self.int_expr(depth + 1)})")
        if kind == 5:
            return self.pick(["(float)", "(double)"]) + \
                f"({self.int_expr(depth + 1)})"
        if kind == 6:
            fn = self.pick(["fabs", "floor", "sqrt", "exp"])
            return f"{fn}({self.float_expr(depth + 1)})"
        if kind == 7:
            fn = self.pick(["fmin", "fmax", "pow"])
            return (f"{fn}({self.float_expr(depth + 1)}, "
                    f"{self.float_expr(depth + 1)})")
        return f"-({self.float_expr(depth + 1)})"

    def any_expr(self, depth=0):
        return self.int_expr(depth) if self.chance(50) \
            else self.float_expr(depth)

    def bool_expr(self, depth=0):
        op = self.pick(["<", ">", "<=", ">=", "==", "!="])
        base = f"{self.any_expr(depth + 1)} {op} {self.any_expr(depth + 1)}"
        if depth < 2 and self.chance(40):
            joiner = self.pick(["&&", "||"])
            other = f"bump(q, {self.draw(st.integers(0, 5))}) > 4" \
                if self.chance(40) else self.bool_expr(depth + 1)
            return f"({base}) {joiner} ({other})"
        if self.chance(10):
            return f"!({base})"
        return base

    # -- statements --------------------------------------------------------------

    def block(self, depth):
        return [line for _ in range(self.draw(st.integers(1, 3)))
                for line in self.stmt(depth)]

    def braces(self, head, depth):
        return [head + " {", *("  " + l for l in self.block(depth)), "}"]

    def stmt(self, depth):
        kind = self.draw(st.integers(0, 19 if depth < 3 else 9))
        op = self.pick(["", "", "+", "-", "*", "/", "%"])
        if kind <= 1:
            return [f"{self.pick(['i0', 'i1'])} {op}= {self.any_expr()};"]
        if kind <= 3:
            return [f"{self.pick(['f0', 'g0'])} {op}= {self.any_expr()};"]
        if kind <= 5:
            arr = self.pick(list(self.FLOAT_ARRAYS))
            return [f"{arr}[{self.subscript(self.FLOAT_ARRAYS[arr])}] "
                    f"{op}= {self.any_expr()};"]
        if kind == 6:
            arr = self.pick(list(self.INT_ARRAYS))
            return [f"{arr}[{self.subscript(self.INT_ARRAYS[arr])}] "
                    f"{op}= {self.int_expr()};"]
        if kind == 7:
            decl = self.pick(["int z0", "float z1"])
            return [f"{decl} = {self.any_expr()};"]
        if kind == 8:
            return [self.pick([
                "bump(q, 1);", "i0++;", "fill(4, t, f0);", "fill(n, x, a);",
                'printf("%d", i0++);', f"return {self.any_expr()};",
                "i0 = i1++;"])]
        if kind == 9:
            if self.loops and self.chance(70):
                word = self.pick(["break;", "continue;"])
                return [f"if ({self.bool_expr()}) {{ {word} }}"]
            return [f"if ({self.bool_expr()}) {{ return {self.any_expr()}; }}"]
        if kind <= 11:
            lines = self.braces(f"if ({self.bool_expr()})", depth + 1)
            if self.chance(50):
                lines += self.braces("else", depth + 1)
            return lines
        if kind <= 14:
            j = self.name("j")
            trips = self.draw(st.integers(1, 4))
            head = f"for (int {j} = 0; {j} < {trips}; {j}++)" \
                if self.chance(70) else \
                f"for ({j} = {trips}; {j} > 0; {j} -= 1)"
            decl = [] if head.startswith("for (int") else [f"int {j} = 0;"]
            self.loop_vars.append(j)
            self.loops += 1
            lines = decl + self.braces(head, depth + 1)
            self.loops -= 1
            self.loop_vars.pop()
            return lines
        if kind <= 16:
            c = self.name("c")
            self.loops += 1
            body = self.block(depth + 1)
            self.loops -= 1
            trips = self.draw(st.integers(1, 3))
            return [f"int {c} = 0;", f"while ({c} < {trips}) {{",
                    f"  {c} += 1;", *("  " + l for l in body), "}"]
        return self.data_region(depth)

    def data_region(self, depth):
        names = [n for n in ("x", "q", "w") if n not in self.open
                 and self.chance(60)]
        if not names:
            return ["#pragma acc parallel loop",
                    "for (int p = 0; p < n; p++) { x[p] = x[p] * 2.0f; }"]
        clauses = " ".join(
            f"{self.pick(['copy', 'copyin', 'copyout', 'create'])}({n}[0:6])"
            for n in names)
        outer = set(self.open)
        self.open |= set(names)
        body = self.block(depth + 1)
        target = names[0]
        if self.chance(50):
            word = self.pick(["host", "device"])
            body += [f"#pragma acc update {word}({target}[0:6])", ";"]
        if self.chance(50):
            one = "1.0f" if target != "q" else "1"
            body += ["#pragma acc parallel loop",
                     f"for (int p = 0; p < n; p++) "
                     f"{{ {target}[p] = {target}[p] + {one}; }}"]
            body += self.block(depth + 1)
        self.open = outer
        return [f"#pragma acc data {clauses}", "{",
                *("  " + l for l in body), "}"]

    def program(self):
        body = [line for _ in range(self.draw(st.integers(2, 6)))
                for line in self.stmt(0)]
        body.append(f"return {self.any_expr()};")
        return HELPERS + HEADER + "\n".join("  " + l for l in body) + "\n}\n"


@st.composite
def host_programs(draw):
    return ProgramBuilder(draw).program()


@given(src=host_programs(), ngpus=st.sampled_from([1, 2]))
@settings(max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_generated_host_matches_the_walker(src, ngpus):
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        differential(mp, src, host_args, ngpus=ngpus)


HANDWRITTEN = {
    # A C ``for`` keeps its step on ``continue`` -- also when the
    # ``continue`` leaves a data region on its way.
    "continue_keeps_step": """
    int k(int n, float *x) {
      int s = 0;
      for (int i = 0; i < n; i += (x[0] = 1)) {
        #pragma acc data copy(x[0:n])
        {
          #pragma acc parallel loop
          for (int p = 0; p < n; p++) { x[p] = x[p] + 2.0f; }
          if (i % 2 == 0) { continue; }
          s += i;
        }
      }
      return s;
    }""",
    "early_return_closes_regions": """
    float k(int n, float *x) {
      for (int i = 0; i < n; i++) {
        #pragma acc data copy(x[0:n])
        {
          #pragma acc parallel loop
          for (int p = 0; p < n; p++) { x[p] = x[p] + 1.0f; }
          if (i == 2) { return x[1]; }
        }
      }
      return -1.0f;
    }""",
    "value_position": """
    int k(int n, float *x) {
      int i = 3;
      int j = i++;
      int m = (i += 2) * (j = 7);
      float f = (x[1] = 2.5f) + (x[1] *= 2);
      x[0] = f;
      return i * 100 + j * 10 + m;
    }""",
    "int_holds_an_array": """
    float k(int n, float *x) {
      int v = 0;
      v = x;
      return v[1] + n / 4;
    }""",
    "read_before_declaration": """
    int k(int n, float *x) {
      if (n > 100) { int late = 1; }
      return late;
    }""",
    "compound_ops": """
    int k(int n, float *x) {
      int i = 17;
      float f = 9.0f;
      i /= 2; i %= 5; i <<= 2; i |= 1; i ^= 6; i &= 13; i >>= 1;
      f /= 2; f *= i; f -= 0.5f;
      x[0] = 7.5f; x[0] /= 2; x[0] %= 2;
      return i * 1000 + f;
    }""",
    "compound_division_by_zero": """
    int k(int n, float *x) { int i = 4; i /= (n - n); return i; }""",
    "side_effect_before_target_read": """
    int k(int n, float *x) {
      int s = 1;
      float f = 2;
      s += (s = 5);
      f -= bump(n, (f = 7));
      return s * 100 + f;
    }
    int bump(int a, int b) { return a + b; }""",
    "int_assigned_from_a_call": """
    int k(int n, float *x) { int s = 9; s = twice(n); return s / 4; }
    float twice(int v) { return v * 2.5f; }""",
    "not_an_array": """
    int k(int n, float *x) { n[0] = 1; return 0; }""",
    "multi_dim_decl": """
    int k(int n, float *x) { float t[2][3]; return 0; }""",
    "pointer_cast": """
    int k(int n, float *x) { return (int*)n; }""",
    "array_arg_by_expression": """
    void f(float *a) { a[0] = 1.0f; }
    int k(int n, float *x) { f(x + 1); return 0; }""",
    "scalar_passed_as_array": """
    void f(float *a) { a[0] = 1.0f; }
    int k(int n, float *x) { f(n); return 0; }""",
}


@pytest.mark.parametrize("name", list(HANDWRITTEN))
def test_handwritten_programs_match_the_walker(name, monkeypatch):
    def args():
        return {"n": 5, "x": np.arange(5, dtype=np.float32)}

    with np.errstate(all="ignore"):
        differential(monkeypatch, HANDWRITTEN[name], args)


# -- (b) bundled programs ----------------------------------------------------------

FORTRAN_DAXPY = """
subroutine daxpy(n, a, x, y)
  integer :: n
  real(8) :: a
  real(8) :: x(n), y(n)
  integer :: i
  !$acc data copyin(x[0:n]) copy(y[0:n])
  !$acc parallel
  !$acc localaccess x[stride(1)] y[stride(1)]
  !$acc loop gang
  do i = 1, n
    y(i) = a * x(i) + y(i)
  end do
  !$acc end parallel
  !$acc end data
end subroutine daxpy
"""


def app_program(app, fuse):
    options = CompileOptions(fuse=True) if fuse else None
    if app == "md_fortran":
        return (repro.compile_fortran(MD_FORTRAN, options), "md",
                lambda: APPS["md"].args_for("tiny"))
    if app == "daxpy_fortran":
        return (repro.compile_fortran(FORTRAN_DAXPY, options), "daxpy",
                lambda: {"n": 300, "a": 3.0, "x": np.linspace(0.0, 1.0, 300),
                         "y": np.full(300, 10.0)})
    spec = APPS[app]
    return (repro.compile(spec.source, options), spec.entry,
            lambda: spec.args_for("tiny") if spec.workloads
            else spec.make_args())


def observe(run, args):
    return {
        "arrays": {k: v.tobytes() for k, v in args.items()
                   if isinstance(v, np.ndarray)},
        "elapsed": run.elapsed,
        "launches": run.kernel_launches,
        "bus": {kind: run.platform.bus.bytes_moved(kind)
                for kind in ("h2d", "d2h", "p2p", "net")},
        "env": {k: v for k, v in run.result.env.items()
                if not isinstance(v, np.ndarray)},
    }


@pytest.mark.parametrize("fuse", [False, True], ids=["plain", "fuse"])
@pytest.mark.parametrize("ngpus", [1, 2, 4])
@pytest.mark.parametrize("app", [*APPS, "md_fortran", "daxpy_fortran"])
def test_apps_make_the_same_runtime_calls(app, ngpus, fuse, monkeypatch):
    prog, entry, make_args = app_program(app, fuse)
    args = make_args()
    gen = observe(prog.run(entry, args, machine=NODE4, ngpus=ngpus), args)
    args = make_args()
    ref = observe(run_with_walker(monkeypatch, prog, entry, args,
                                  machine=NODE4, ngpus=ngpus), args)
    assert gen == ref


def test_fused_members_are_not_emitted():
    """A cross-region fusion group launches once, from its first
    member's statement; the other members emit nothing."""
    spec = APPS["gradpipe"]
    plain = repro.compile(spec.source)
    fused = repro.compile(spec.source, CompileOptions(fuse=True))
    assert fused.compiled.fused_stmts
    launch = "rt.executor.run_loop("
    assert fused.host_source(spec.entry).count(launch) == \
        plain.host_source(spec.entry).count(launch) \
        - len(fused.compiled.fused_stmts)


# -- (c) snapshot semantics ----------------------------------------------------------

SNAPSHOT_PROGRAMS = {
    "host_write": (Snapshots.HOST_WRITE, ("a", "b")),
    "shared_buffer": (Snapshots.SHARED_BUFFER, ("a", "a", "out")),
    "update_create": (Snapshots.UPDATE_THEN_WRITE % "create", ("a", "out")),
    "update_copyout": (Snapshots.UPDATE_THEN_WRITE % "copyout", ("a", "out")),
    "update_copyin": (Snapshots.UPDATE_THEN_WRITE % "copyin", ("a", "out")),
    "shared_buffer_update": (Snapshots.SHARED_BUFFER_UPDATE,
                             ("a", "a", "out")),
}


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("ngpus", [1, 2])
@pytest.mark.parametrize("name", list(SNAPSHOT_PROGRAMS))
def test_snapshot_semantics_match_the_walker(name, ngpus, sanitize,
                                             monkeypatch):
    src, buffers = SNAPSHOT_PROGRAMS[name]
    params = ("a", "b", "out") if len(buffers) == 3 else \
        ("a", buffers[1])

    def args():
        made = {b: np.arange(8, dtype=np.float32) + i
                for i, b in enumerate(dict.fromkeys(buffers))}
        return {"n": 8, **{p: made[b] for p, b in zip(params, buffers)}}

    differential(monkeypatch, src, args, ngpus=ngpus, sanitize=sanitize)


# -- (d) threads -----------------------------------------------------------------------


def test_two_threads_share_one_thawed_program():
    spec = APPS["kmeans"]
    compiled = thaw_program(freeze_program(repro.compile(spec.source).compiled))
    prog = repro.AccProgram(compiled)

    def one_run(out, slot):
        args = spec.args_for("tiny")
        run = prog.run(spec.entry, args, machine=NODE4, ngpus=2)
        out[slot] = observe(run, args)

    single = [None]
    one_run(single, 0)
    results = [None, None]
    threads = [threading.Thread(target=one_run, args=(results, i))
               for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results == [single[0], single[0]]


# -- the count gate ---------------------------------------------------------------------


@pytest.fixture
def evals(monkeypatch):
    """Count every AST evaluation in the process, whoever asks."""
    seen = {"eval": 0}
    plain = ExprEvaluator.eval

    def counting(self, e):
        seen["eval"] += 1
        return plain(self, e)

    monkeypatch.setattr(ExprEvaluator, "eval", counting)
    return seen


def hub_graph(nverts, hubs=8):
    """Source 0 reaches ``hubs`` hub vertices, each hub its share of
    the rest: three BFS levels, so the launch count does not depend on
    ``nverts``."""
    leaves = np.arange(hubs, nverts)
    src = np.concatenate([np.zeros(hubs - 1, int), leaves % hubs, leaves])
    dst = np.concatenate([np.arange(1, hubs), leaves, leaves % hubs])
    order = np.lexsort((dst, src))
    row = np.zeros(nverts + 1, np.int32)
    np.cumsum(np.bincount(src, minlength=nverts), out=row[1:])
    col = dst[order].astype(np.int32)
    return {"nverts": nverts, "nedges": int(col.size), "source": 0,
            "row": row, "col": col, "levels": np.empty(nverts, np.int32)}


class TestNoAstAtRunTime:
    def bfs_evals(self, evals, nverts, ngpus):
        spec = APPS["bfs"]
        args = hub_graph(nverts)
        before = evals["eval"]
        run = repro.compile(spec.source).run(spec.entry, args, machine=NODE4,
                                             ngpus=ngpus)
        return evals["eval"] - before, run, args

    @pytest.mark.parametrize("ngpus", [1, 4])
    def test_bfs_evaluations_do_not_grow_with_the_graph(self, evals, ngpus):
        """Only the un-memoised ``col[bounds(row[u], ...)]`` window
        bounds are evaluated from the AST: per level and GPU, not per
        vertex (the 2,000-trip ``levels[v] = -1`` loop used to cost
        ~20,000 evaluations)."""
        small, run_s, args_s = self.bfs_evals(evals, 512, ngpus)
        large, run_l, args_l = self.bfs_evals(evals, 4096, ngpus)
        assert run_s.kernel_launches == run_l.kernel_launches
        assert args_s["levels"].max() == args_l["levels"].max()
        assert small == large
        assert 0 < small <= 40 * run_s.kernel_launches

    @pytest.mark.parametrize("app", ["kmeans", "jacobi"])
    def test_no_evaluation_after_the_first_launch(self, evals, app,
                                                  monkeypatch):
        from repro.runtime.context import AccExecutor
        spec = APPS[app]
        marks = []
        run_loop = AccExecutor.run_loop

        def marking(self, plan, *args):
            stats = run_loop(self, plan, *args)
            marks.append((plan.name, evals["eval"]))
            return stats

        monkeypatch.setattr(AccExecutor, "run_loop", marking)
        params = dict(n=2048, maxiter=6, tol=1e-30) if app == "jacobi" \
            else spec.workloads["tiny"].params
        repro.compile(spec.source).run(spec.entry, spec.make_args(**params),
                                       machine=NODE4, ngpus=4)
        names = [name for name, _ in marks]
        # Each loop's windows are derived at its first launch; nothing
        # -- host statements included -- evaluates an AST after that.
        warm = max(names.index(name) for name in set(names))
        assert len(marks) > 2 * (warm + 1)
        assert marks[warm][1] == marks[-1][1] == evals["eval"]

    def test_host_text_is_execd_once_per_process(self, monkeypatch):
        spec = APPS["kmeans"]
        clear_compile_cache()
        # A source no other test compiled, so the first run must exec.
        prog = repro.compile(spec.source + "\n/* exec-count probe */\n"
                             "int probe_only_here(int v) { return v + 1; }\n")
        execs = []
        real_exec = builtins.exec

        def counting_exec(code, *args):
            execs.append(getattr(code, "co_filename", "<string>"))
            return real_exec(code, *args)

        monkeypatch.setattr(builtins, "exec", counting_exec)
        for _ in range(20):
            prog.run(spec.entry, spec.args_for("tiny"), ngpus=2)
        assert [f for f in execs if f.startswith(("<host", "<kernel"))] == \
            ["<host program>"]
