"""The C type of every expression, against the pass the parser replaced.

``tests/typer_oracle.py`` is the one walk that typed a parsed tree
before the parser typed each node as it built it.  Here the parser's
types are pinned two ways:

* one sha256 per bundled source (the 14 of
  ``tests/test_frontend_golden.py``) over every node the oracle types --
  function bodies, global initializers, declaration dimensions and
  directive fields -- in pre-order, as (node class, type).  The digests
  were generated with the oracle as ``parse`` / ``parse_fortran`` ran it;
* a differential: the oracle re-types a copy of the tree with every type
  cleared (a floating literal keeps the type of its spelling, which the
  oracle reads off the node), and every type it sets equals the
  parser's.  It runs over the bundled sources, the Fortran fixtures and
  the program generators of ``tests/test_fuzz_programs.py`` and
  ``tests/test_host_codegen.py``.

Three places where the parser knows less than a walk over the finished
tree are pinned apart: a call to a function the file defines further
down, a directive clause naming the variable its own ``for`` declares,
and Fortran's ``__loopvar__`` placeholder, bound after parsing.
"""

import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import repro
from repro.frontend import cast as C
from repro.frontend import parse
from repro.frontend.fortran import parse_fortran
from tests import typer_oracle
from tests.test_fortran import SAXPY_F, SCALE_F
from tests.test_fortran_apps import MD_FORTRAN
from tests.test_frontend_golden import C_SOURCES, FORTRAN_SOURCES
from tests.test_fuzz_programs import (
    TRIP_SHAPES,
    _SETTINGS,
    _case_seed,
    bool_expr,
    float_expr,
    int_expr,
    make_program,
    make_trip_program,
    make_two_loop_program,
)
from tests.test_host_codegen import FORTRAN_DAXPY, host_programs

TYPE_DIGESTS = {
    "bfs":
        "47bdb19243bdcb3d2826d5834a0bd6a7ef1e88a868093688d3e8926b5a9c80cb",
    "daxpy_fortran":
        "4b52f6a5354ac72fccc51567da6cabc94335eb0b206aa6ecf1466e9691e70109",
    "gradpipe":
        "2f077db9a82dbe1a6873ea87034b7e309e0ccd72bb20b43937c50edf61846c90",
    "heat2d":
        "5bdfd9f1bd2ec3a295af779fcd9bd3ed433c9cf7cb490162f03baf657b581e73",
    "jacobi":
        "8a87a81780fc9f0e43f2dbf6f8f4f34c66bb867ca021e4279be3c3d5e256abe6",
    "kmeans":
        "f54c552607b43f5830989fddbfb1a28776d46c8773b6063e8cd6a3f6bdd21bd4",
    "md":
        "1d2394bed38aa62f7eb33a5aec57f73cf9b72a3ac6bed94f82d66eb07f0d29a5",
    "md_fortran":
        "e2fefc4fc1d29a26bc75ce5a59fd09a6b3b603370a941cc9fa21a2d67220e216",
    "phasepipe":
        "aaee09c0dc1e192211a8aa97dbd8c63fb0c3c5d47d830eb0cff13a1940061e00",
    "saxpy_fortran":
        "3939465f3902fa4c958af428014ad290961e5181fe1bf90153a4faca3897b68e",
    "shift_scale":
        "b2a68517059f5f85d6216c53afae8bc329cb55556a7e4b732e688b153d0bf530",
    "spmv":
        "f2a73412c05ca58fd788d72622cc3a71cc39b18f09c7351596dbe98ee678ccf7",
    "stencil":
        "389365a42f7897763f7d6a79cb14ca2088bdda488a7b0771773a687a06d80633",
    "stencil_probes":
        "f54f69c343a28d7388c15d638c85da116e1b3b4d677d41333ca5271f6bccc76b",
}

#: Fortran's generic intrinsics over each kind of operand.
INTRINSICS_F = """
subroutine mix(n, x, y, k)
  integer :: n
  real :: x(n)
  real(8) :: y(n)
  integer :: k(n)
  integer :: i
  real :: t
  do i = 1, n
    t = sqrt(x(i)) + abs(x(i)) + exp(x(i)) ** 2 + mod(k(i), 3)
    y(i) = sqrt(y(i)) + abs(k(i)) + real(k(i)) * 2 + dble(t) + min(y(i), 1.0)
    x(i) = min(x(i), 1.0) + floor(x(i)) + max(k(i), 2) + sqrt(real(i))
    k(i) = int(x(i)) + ceiling(y(i)) + i ** 2 + abs(-k(i))
  end do
end subroutine mix
"""

FORTRAN_FIXTURES = {
    "saxpy": SAXPY_F, "md": MD_FORTRAN, "daxpy": FORTRAN_DAXPY,
    "scale_real": SCALE_F.format(kind="real", literal="0.1"),
    "scale_real8": SCALE_F.format(kind="real(8)", literal="0.1d0"),
    "intrinsics": INTRINSICS_F}


def typed_nodes(program: C.Program) -> list[C.Expr]:
    """Every node the oracle types, in pre-order: global initializers and
    dimensions, then per function each statement's expressions, a
    declaration's dimensions and its directives' fields."""
    roots = typer_oracle._exprs_in(
        [(d.init, d.ctype.array_dims) for d in program.globals], [])
    for func in program.functions:
        for st in C.walk(func.body):
            roots.extend(C.stmt_exprs(st))
            dims = st.ctype.array_dims if isinstance(st, C.Decl) else ()
            typer_oracle._exprs_in([dims, st.directives], roots)
    return [e for root in roots for e in C.walk_expr(root)]


def type_digest(program: C.Program) -> str:
    rows = "".join(f"{type(e).__name__} {e.ty}\n"
                   for e in typed_nodes(program))
    return hashlib.sha256(rows.encode()).hexdigest()


def assert_agrees(tree: C.Program, fortran: bool = False) -> None:
    """Every type the oracle sets on a cleared copy of ``tree`` is the
    parser's."""
    redo = copy.deepcopy(tree)
    for e in typed_nodes(redo):
        if not isinstance(e, C.FloatLit):
            e.ty = ""
    typer_oracle.type_program(redo, fortran=fortran)
    got = typed_nodes(tree)
    want = typed_nodes(redo)
    assert len(got) == len(want)
    diff = [(C.render_expr(g), g.ty, w.ty) for g, w in zip(got, want)
            if w.ty and g.ty != w.ty]
    assert diff == []


def parsed(name: str) -> tuple[C.Program, bool]:
    if name in FORTRAN_SOURCES:
        return parse_fortran(FORTRAN_SOURCES[name]), True
    return parse(C_SOURCES[name]), False


@pytest.mark.parametrize("name", sorted({**C_SOURCES, **FORTRAN_SOURCES}))
def test_type_digest(name):
    assert type_digest(parsed(name)[0]) == TYPE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted({**C_SOURCES, **FORTRAN_SOURCES}))
def test_bundled_sources_agree_with_the_oracle(name):
    assert_agrees(*parsed(name))


@pytest.mark.parametrize("name", sorted(FORTRAN_FIXTURES))
def test_fortran_fixtures_agree_with_the_oracle(name):
    assert_agrees(parse_fortran(FORTRAN_FIXTURES[name]), fortran=True)


class TestDifferential:
    @seed(_case_seed("TestDifferential::test_expression_programs"))
    @given(st.data())
    @settings(**_SETTINGS)
    def test_expression_programs(self, data):
        """Float, int and predicated bodies of the expression fuzz."""
        draw = data.draw
        body = draw(st.sampled_from(["float", "int", "predicated"]))
        if body == "float":
            body = f"y[i] = {float_expr(draw)};"
        elif body == "int":
            body = f"z[i] = {int_expr(draw)};"
        else:
            body = f"""
            float t = {float_expr(draw)};
            if ({bool_expr(draw)}) {{ t = {float_expr(draw)}; z[i] = 1; }}
            else {{ t = t + {float_expr(draw)}; }}
            y[i] = t;
            """
        assert_agrees(parse(make_program(body)))

    @seed(_case_seed("TestDifferential::test_trip_and_two_loop_programs"))
    @given(st.data())
    @settings(**_SETTINGS)
    def test_trip_and_two_loop_programs(self, data):
        draw = data.draw
        shape = draw(st.sampled_from(sorted(TRIP_SHAPES)))
        assert_agrees(parse(make_trip_program(
            TRIP_SHAPES[shape].replace("{e}", float_expr(draw)))))
        assert_agrees(parse(make_two_loop_program(
            f"y[i] = {float_expr(draw)};",
            f"z[i] = (y[i] + {float_expr(draw)} > 0.0f) ? 1 : 0;")))

    @seed(_case_seed("TestDifferential::test_host_programs"))
    @given(host_programs())
    @settings(**_SETTINGS)
    def test_host_programs(self, src):
        """Host code: helper calls, local arrays, nested data regions."""
        assert_agrees(parse(src))


class TestTraps:
    def test_call_to_a_later_function_keeps_its_return_type(self):
        src = """
        void k(int n, double *y) {
          for (int i = 0; i < n; i++) { y[i] = half(i) + 1; }
        }
        double half(int v) { return v / 2.0; }
        """
        tree = parse(src)
        assert_agrees(tree)
        call = next(e for e in C.all_exprs(tree.functions[0].body)
                    if isinstance(e, C.Call))
        assert call.ty == "double"
        y = np.zeros(4)
        repro.compile(src).run("k", {"n": 4, "y": y})
        np.testing.assert_array_equal(y, np.arange(4) / 2.0 + 1)

    def test_clause_names_the_variable_its_own_for_declares(self):
        tree = parse("""
        void k(int n, float *x, float *y, int *rp) {
          #pragma acc parallel loop
          #pragma acc localaccess x[bounds(rp[j], rp[j + 1] - 1)]
          for (long j = 0; j < n; j++) { y[j] = x[rp[j]]; }
        }
        """)
        assert_agrees(tree)
        loop = tree.functions[0].body.body[0]
        spec = loop.directives[1].entries["x"]
        assert spec.lo.indices[0].ty == "long"
        assert spec.hi.left.indices[0].ty == "long"

    def test_fortran_loopvar_placeholder(self):
        tree = parse_fortran(SAXPY_F)
        assert_agrees(tree, fortran=True)
        names = [e.name for e in typed_nodes(tree)
                 if isinstance(e, C.Ident)]
        assert "__loopvar__" not in names and "i" in names
