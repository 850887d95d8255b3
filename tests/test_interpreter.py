"""Interpreter-oracle specifics (``tests/interp_oracle.py``): expression
evaluation and kernel execution details that the differential tests do
not isolate."""

import numpy as np
import pytest

from repro.frontend.parser import parse_expr
from repro.translator.cscalar import _apply_scalar_op
from tests.interp_oracle import ExprEvaluator, InterpError
from tests.util import run_source


def make_eval(variables=None, arrays=None):
    variables = variables or {}
    arrays = arrays or {}

    def load_var(name):
        if name in variables:
            return variables[name]
        raise InterpError(f"unknown {name}")

    def load_elem(name, idx):
        return arrays[name][idx]

    return ExprEvaluator(load_var, load_elem)


class TestExprEvaluator:
    def test_arithmetic(self):
        ev = make_eval({"a": 7, "b": 2})
        assert ev.eval(parse_expr("a + b * 3")) == 13
        assert ev.eval(parse_expr("a / b")) == 3  # int division
        assert ev.eval(parse_expr("a % b")) == 1

    def test_float_division(self):
        ev = make_eval({"a": 7.0, "b": 2})
        assert ev.eval(parse_expr("a / b")) == pytest.approx(3.5)

    def test_division_by_zero_reported(self):
        ev = make_eval({"a": 1, "b": 0})
        with pytest.raises(InterpError):
            ev.eval(parse_expr("a / b"))

    def test_comparisons_return_ints(self):
        ev = make_eval({"a": 3})
        assert ev.eval(parse_expr("a > 2")) == 1
        assert ev.eval(parse_expr("a == 4")) == 0

    def test_short_circuit_and(self):
        # b() would divide by zero; && must not evaluate it.
        ev = make_eval({"a": 0, "b": 0})
        assert ev.eval(parse_expr("a != 0 && 1 / b")) == 0

    def test_short_circuit_or(self):
        ev = make_eval({"a": 1, "b": 0})
        assert ev.eval(parse_expr("a == 1 || 1 / b")) == 1

    def test_ternary_lazy(self):
        ev = make_eval({"a": 1, "b": 0})
        assert ev.eval(parse_expr("a ? 5 : 1 / b")) == 5

    def test_math_functions(self):
        ev = make_eval({"x": 4.0})
        assert ev.eval(parse_expr("sqrt(x)")) == pytest.approx(2.0)
        assert ev.eval(parse_expr("fmax(x, 10.0)")) == pytest.approx(10.0)

    def test_array_access(self):
        ev = make_eval({"i": 2}, {"a": np.array([1.0, 2.0, 3.0])})
        assert ev.eval(parse_expr("a[i]")) == pytest.approx(3.0)

    def test_cast(self):
        ev = make_eval({"x": 3.9})
        assert ev.eval(parse_expr("(int)x")) == 3

    def test_bit_ops(self):
        ev = make_eval({"a": 6, "b": 3})
        assert ev.eval(parse_expr("a & b")) == 2
        assert ev.eval(parse_expr("a | b")) == 7
        assert ev.eval(parse_expr("a ^ b")) == 5
        assert ev.eval(parse_expr("a << 1")) == 12
        assert ev.eval(parse_expr("a >> 1")) == 3

    def test_unary(self):
        ev = make_eval({"a": 5})
        assert ev.eval(parse_expr("-a")) == -5
        assert ev.eval(parse_expr("!a")) == 0
        assert ev.eval(parse_expr("~a")) == -6


class TestApplyScalarOp:
    def test_all_ops(self):
        assert _apply_scalar_op(5, "+", 2) == 7
        assert _apply_scalar_op(5, "-", 2) == 3
        assert _apply_scalar_op(5, "*", 2) == 10
        assert _apply_scalar_op(5, "/", 2) == 2
        assert _apply_scalar_op(5.0, "/", 2) == pytest.approx(2.5)
        assert _apply_scalar_op(5, "%", 2) == 1
        assert _apply_scalar_op(5, "&", 3) == 1
        assert _apply_scalar_op(5, "|", 2) == 7
        assert _apply_scalar_op(5, "^", 1) == 4
        assert _apply_scalar_op(5, "<<", 1) == 10
        assert _apply_scalar_op(5, ">>", 1) == 2

    def test_unknown_op(self):
        with pytest.raises(InterpError):
            _apply_scalar_op(1, "?", 1)


class TestInterpreterEngine:
    def test_real_control_flow_no_mask_artifacts(self):
        # Under the interpreter, the else-branch genuinely does not run.
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            if (x[i] > 0.0f) { y[i] = 1.0f; } else { y[i] = 2.0f; }
          }
        }
        """
        x = np.array([1.0, -1.0], dtype=np.float32)
        args, _ = run_source(src, {"n": 2, "x": x,
                                   "y": np.zeros(2, np.float32)},
                             interp=True)
        np.testing.assert_allclose(args["y"], [1, 2])

    def test_out_of_window_read_is_reported(self):
        # The interpreter validates loaded windows strictly, catching
        # programs whose localaccess declaration is wrong -- a debugging
        # feature the vectorized engine's clipped gathers cannot offer.
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc localaccess x[stride(1)] y[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { y[i] = x[(i + 1) % n]; }
        }
        """
        x = np.arange(4, dtype=np.float32)
        with pytest.raises(Exception, match="window"):
            run_source(src, {"n": 4, "x": x,
                             "y": np.zeros(4, np.float32)},
                       ngpus=2, interp=True)

    def test_sequential_inner_while_equivalent_semantics(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float acc = 0.0f;
            for (int j = 0; j < 3; j++) {
              acc = acc * 2.0f + x[i];
            }
            y[i] = acc;
          }
        }
        """
        x = np.array([1.0, 2.0], dtype=np.float32)
        args, _ = run_source(src, {"n": 2, "x": x,
                                   "y": np.zeros(2, np.float32)},
                             interp=True)
        np.testing.assert_allclose(args["y"], [7.0, 14.0])
