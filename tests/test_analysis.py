"""Access-pattern analysis tests: affine forms, loop normalization,
read/write classification, inner-loop shapes, opaque locals."""

import pytest

from repro.frontend import cast as C
from repro.frontend.analysis import (
    AnalysisError,
    affine_in,
    analyze_loop,
    const_value,
    expr_mentions,
    normalize_loop,
    strided_in,
)
from repro.frontend.parser import parse, parse_expr


def loop_of(src, which=0):
    prog = parse(src)
    f = prog.functions[0]
    loops = [s for s in C.walk(f.body) if isinstance(s, C.For)]
    return loops[which]


def analyze(src, arrays, scalars=()):
    nest = normalize_loop(loop_of(src))
    return analyze_loop(nest, set(arrays), set(scalars))


class TestConstFolding:
    def test_literals(self):
        assert const_value(parse_expr("42")) == 42

    def test_arithmetic(self):
        assert const_value(parse_expr("2 * 3 + 4")) == 10
        assert const_value(parse_expr("7 / 2")) == 3
        assert const_value(parse_expr("7 % 3")) == 1

    def test_negation(self):
        assert const_value(parse_expr("-5")) == -5

    def test_symbolic_is_none(self):
        assert const_value(parse_expr("n + 1")) is None

    def test_division_by_zero_is_none(self):
        assert const_value(parse_expr("1 / 0")) is None


class TestAffine:
    def test_plain_var(self):
        f = affine_in(parse_expr("i"), "i")
        assert f.coeff == 1 and const_value(f.offset) == 0

    def test_constant(self):
        f = affine_in(parse_expr("7"), "i")
        assert f.coeff == 0 and const_value(f.offset) == 7

    def test_linear(self):
        f = affine_in(parse_expr("3 * i + 2"), "i")
        assert f.coeff == 3 and const_value(f.offset) == 2

    def test_var_times_const_on_left(self):
        assert affine_in(parse_expr("i * 4"), "i").coeff == 4

    def test_subtraction(self):
        f = affine_in(parse_expr("2*i - j"), "i")
        assert f.coeff == 2
        assert expr_mentions(f.offset, {"j"})

    def test_negated_var(self):
        assert affine_in(parse_expr("-i"), "i").coeff == -1

    def test_nested_parens(self):
        f = affine_in(parse_expr("2 * (i + 3)"), "i")
        assert f.coeff == 2 and const_value(f.offset) == 6

    def test_symbolic_coefficient_not_affine(self):
        assert affine_in(parse_expr("i * n"), "i") is None

    def test_quadratic_not_affine(self):
        assert affine_in(parse_expr("i * i"), "i") is None

    def test_division_of_var_not_affine(self):
        assert affine_in(parse_expr("i / 2"), "i") is None

    def test_var_free_division_is_offset(self):
        f = affine_in(parse_expr("n / 2"), "i")
        assert f is not None and f.coeff == 0

    def test_subscript_free_of_var_is_offset(self):
        f = affine_in(parse_expr("a[j] + i"), "i")
        assert f is not None and f.coeff == 1

    def test_subscript_of_var_not_affine(self):
        assert affine_in(parse_expr("a[i]"), "i") is None


def render(e):
    """Python source of a ``+ - *`` expression tree."""
    if isinstance(e, C.BinOp):
        return f"({render(e.left)} {e.op} {render(e.right)})"
    if isinstance(e, C.UnOp):
        return f"({e.op}{render(e.operand)})"
    return str(e.value) if isinstance(e, C.IntLit) else e.name


class TestStrided:
    """``strided_in``: ``stride*i + offset`` with a symbolic stride."""

    ENV = {"n": 7, "w": 5, "j": 3, "f": 2}

    @pytest.mark.parametrize("text,stride", [
        ("i", "1"), ("3 * i + 2", "3"), ("2 * (i + 3)", "2"), ("-i", "-1"),
        ("7", "0"), ("n * w + j", "0"),
        ("i * n + f", "n"), ("n * i", "n"), ("(i - 1) * w + j", "w"),
        ("(i + 1) * w + j - 1", "w"), ("j + w * (2 * i + 1)", "(2 * w)"),
        ("i * n + i", "(n + 1)"), ("j - i * w", "(0 - w)"),
        ("i * (n * w)", "(n * w)"), ("+i * n", "n"),
    ])
    def test_parts_recompose_to_the_index(self, text, stride):
        stride_e, offset_e = strided_in(parse_expr(text), "i")
        assert not expr_mentions(stride_e, {"i"})
        assert not expr_mentions(offset_e, {"i"})
        assert render(stride_e) == stride
        for i in (0, 1, 4, 11):
            env = {**self.ENV, "i": i}
            assert eval(render(stride_e), {}, env) * i \
                + eval(render(offset_e), {}, env) == eval(text, {}, env)

    def test_integer_coefficient_is_affine_ins(self):
        e = parse_expr("3 * i + n")
        stride, offset = strided_in(e, "i")
        aff = affine_in(e, "i")
        assert const_value(stride) == aff.coeff
        assert render(offset) == render(aff.offset)

    @pytest.mark.parametrize("text", [
        "i * i", "i * n * i", "i / 2", "i % n", "a[i]", "a[i] * n",
        "(i * n) / w", "-(i * n)"])
    def test_not_strided(self, text):
        assert strided_in(parse_expr(text), "i") is None


class TestNormalizeLoop:
    def test_canonical(self):
        nest = normalize_loop(loop_of(
            "void f(int n) { for (int i = 0; i < n; i++) { } }"))
        assert nest.var == "i"
        assert const_value(nest.lower) == 0
        assert isinstance(nest.upper, C.Ident)

    def test_le_condition_adds_one(self):
        nest = normalize_loop(loop_of(
            "void f(int n) { for (int i = 0; i <= n; i++) { } }"))
        assert isinstance(nest.upper, C.BinOp) and nest.upper.op == "+"

    def test_plus_equals_step(self):
        nest = normalize_loop(loop_of(
            "void f(int n) { for (int i = 0; i < n; i += 1) { } }"))
        assert nest.var == "i"

    def test_i_equals_i_plus_one(self):
        nest = normalize_loop(loop_of(
            "void f(int n) { int i; for (i = 0; i < n; i = i + 1) { } }"))
        assert nest.var == "i"

    def test_nonunit_step_rejected(self):
        with pytest.raises(AnalysisError):
            normalize_loop(loop_of(
                "void f(int n) { for (int i = 0; i < n; i += 2) { } }"))

    def test_downward_loop_rejected(self):
        with pytest.raises(AnalysisError):
            normalize_loop(loop_of(
                "void f(int n) { for (int i = n; i > 0; i++) { } }"))

    def test_uninitialized_var_rejected(self):
        with pytest.raises(AnalysisError):
            normalize_loop(loop_of(
                "void f(int n) { for (int i; i < n; i++) { } }"))


class TestReadWriteSets:
    SRC = """
    void f(int n, float *x, float *y, float *z) {
      for (int i = 0; i < n; i++) {
        float t = x[i] * 2.0f;
        y[i] = t;
        z[i] += t;
      }
    }
    """

    def test_classification(self):
        la = analyze(self.SRC, {"x", "y", "z"}, {"n"})
        assert la.arrays["x"].read_only
        assert la.arrays["y"].write_only
        assert la.arrays["z"].is_read and la.arrays["z"].is_written

    def test_compound_assign_counts_as_read(self):
        la = analyze(self.SRC, {"x", "y", "z"}, {"n"})
        assert not la.arrays["z"].write_only

    def test_host_scalars_found(self):
        src = """
        void f(int n, float a, float *x) {
          for (int i = 0; i < n; i++) { x[i] = a * 2.0f + b; }
        }
        """
        la = analyze(src, {"x"}, {"n", "a", "b"})
        assert set(la.host_scalars) >= {"a", "b"}

    def test_locals_found(self):
        la = analyze(self.SRC, {"x", "y", "z"}, {"n"})
        assert "t" in la.locals_

    def test_affine_write_detected(self):
        la = analyze(self.SRC, {"x", "y", "z"}, {"n"})
        assert la.arrays["y"].writes_affine

    def test_data_dependent_index_not_affine(self):
        src = """
        void f(int n, int *idx, float *x) {
          for (int i = 0; i < n; i++) {
            int j = idx[i];
            x[j] = 1.0f;
          }
        }
        """
        la = analyze(src, {"idx", "x"}, {"n"})
        assert not la.arrays["x"].writes_affine

    def test_direct_indirect_index(self):
        src = """
        void f(int n, int *idx, float *x) {
          for (int i = 0; i < n; i++) { x[idx[i]] = 1.0f; }
        }
        """
        la = analyze(src, {"idx", "x"}, {"n"})
        acc = la.arrays["x"].accesses[0]
        assert acc.affine is None and acc.data_dependent


class TestInnerLoops:
    def test_constant_trip(self):
        src = """
        void f(int n, int m, float *x) {
          for (int i = 0; i < n; i++) {
            for (int j = 0; j < m; j++) { x[i] += 1.0f; }
          }
        }
        """
        la = analyze(src, {"x"}, {"n", "m"})
        assert la.inner_loops[0].kind == "constant"

    def test_csr_pattern(self):
        src = """
        void f(int n, int *row, float *x) {
          for (int i = 0; i < n; i++) {
            for (int e = row[i]; e < row[i+1]; e++) { x[i] += 1.0f; }
          }
        }
        """
        la = analyze(src, {"row", "x"}, {"n"})
        assert la.inner_loops[0].kind == "csr"

    def test_opaque_bounds(self):
        src = """
        void f(int n, int *a, int *b, float *x) {
          for (int i = 0; i < n; i++) {
            for (int e = a[i] + b[i]; e < a[i+1]; e++) { x[i] += 1.0f; }
          }
        }
        """
        la = analyze(src, {"a", "b", "x"}, {"n"})
        assert la.inner_loops[0].kind == "opaque"

    def test_while_in_body_rejected(self):
        src = """
        void f(int n, float *x) {
          for (int i = 0; i < n; i++) {
            while (x[i] > 0.0f) { x[i] -= 1.0f; }
          }
        }
        """
        with pytest.raises(AnalysisError):
            analyze(src, {"x"}, {"n"})


class TestDirectiveCollection:
    def test_reductiontoarray_collected(self):
        src = """
        void f(int n, int *m, float *c) {
          for (int i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: c[0:8])
            c[m[i]] += 1.0f;
          }
        }
        """
        la = analyze(src, {"m", "c"}, {"n"})
        assert len(la.array_reductions) == 1
        assert la.array_reductions[0].array == "c"

    def test_scalar_reduction_from_directive(self):
        src = """
        void f(int n, float *x) {
          #pragma acc loop reduction(+:total)
          for (int i = 0; i < n; i++) { total += x[i]; }
        }
        """
        loop = loop_of(src)
        from repro.frontend.directives import AccLoop
        d = next(d for d in loop.directives if isinstance(d, AccLoop))
        nest = normalize_loop(loop, d)
        la = analyze_loop(nest, {"x"}, {"n", "total"})
        assert la.scalar_reductions == [("+", "total")]
