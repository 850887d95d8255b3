"""Host-program executor tests: control flow, functions, data regions,
update directives, implicit data attributes."""

import numpy as np
import pytest

import repro
from repro.translator.host import HostError
from tests.util import run_source


class TestControlFlow:
    def test_host_for_loop(self):
        src = """
        int k() {
          int s = 0;
          for (int i = 0; i < 5; i++) { s += i; }
          return s;
        }
        """
        _, run = run_source(src, {})
        assert run.value == 10

    def test_host_while_with_break(self):
        src = """
        int k() {
          int i = 0;
          while (1) {
            i = i + 1;
            if (i >= 7) { break; }
          }
          return i;
        }
        """
        _, run = run_source(src, {})
        assert run.value == 7

    def test_continue(self):
        src = """
        int k() {
          int s = 0;
          for (int i = 0; i < 10; i++) {
            if (i % 2 == 0) { continue; }
            s += i;
          }
          return s;
        }
        """
        _, run = run_source(src, {})
        assert run.value == 25

    def test_nested_loops(self):
        src = """
        int k() {
          int s = 0;
          for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 4; j++) { s += 1; }
          }
          return s;
        }
        """
        _, run = run_source(src, {})
        assert run.value == 12

    def test_host_array_declaration_and_use(self):
        src = """
        float k(int n) {
          float tmp[10];
          for (int i = 0; i < n; i++) { tmp[i] = i * 2.0; }
          return tmp[n - 1];
        }
        """
        _, run = run_source(src, {"n": 5})
        assert run.value == pytest.approx(8.0)

    def test_ternary_on_host(self):
        src = "int k(int x) { return x > 0 ? 1 : -1; }"
        _, run = run_source(src, {"x": -5})
        assert run.value == -1

    def test_integer_division_truncation(self):
        src = "int k(int a, int b) { return a / b; }"
        _, run = run_source(src, {"a": 7, "b": 2})
        assert run.value == 3


class TestStoresAreChecked:
    """Host stores are range-checked like host loads: a negative index
    must not wrap into the tail of the array, and an index past the end
    is a ``HostError`` with the array, the index and the line."""

    def store(self, stmt, **extra):
        src = f"""
        void k(int n, float x, float *a) {{
          float tmp[4];
          {stmt}
        }}
        """
        a = np.arange(4, dtype=np.float32)
        args, _ = run_source(src, {"n": 4, "x": 1.5, "a": a, **extra})
        return args["a"]

    def test_negative_index_does_not_wrap(self):
        with pytest.raises(HostError, match=r"a\[-1\].*line 4"):
            self.store("a[0 - 1] = 5.0f;")

    def test_compound_store_does_not_read_a_wrapped_slot(self):
        a = np.arange(4, dtype=np.float32)
        with pytest.raises(HostError, match=r"a\[-2\].*line 4"):
            self.store("a[0 - 2] += x;", a=a)
        np.testing.assert_array_equal(a, np.arange(4))

    def test_index_past_the_end(self):
        with pytest.raises(HostError, match=r"a\[4\].*line 4"):
            self.store("a[n] = x;")

    def test_host_declared_array(self):
        with pytest.raises(HostError, match=r"tmp\[4\].*line 4"):
            self.store("tmp[4] = x;")

    def test_store_in_value_position(self):
        with pytest.raises(HostError, match=r"a\[-1\].*line 4"):
            self.store("x = (a[0 - 1] = 2.0f);")

    def test_in_range_stores_still_land(self):
        out = self.store("a[n - 1] = x; a[0] += x; tmp[3] = a[0];")
        np.testing.assert_array_equal(out, [1.5, 1, 2, 1.5])


class TestStructuredErrors:
    """What used to escape as ``_Break`` / ``_Continue`` /
    ``RecursionError``."""

    @pytest.mark.parametrize("word", ["break", "continue"])
    def test_loop_exit_outside_a_loop_is_a_compile_error(self, word):
        src = "int k() {\n  %s;\n  return 1;\n}" % word
        with pytest.raises(repro.CompileError, match=word) as err:
            repro.compile(src)
        assert err.value.line == 2

    def test_loop_exit_through_a_data_region_compiles(self):
        src = """
        int k(int n, float *x) {
          int i = 0;
          while (1) {
            #pragma acc data copy(x[0:n])
            { i += 1; if (i > 2) { break; } }
          }
          return i;
        }"""
        _, run = run_source(src, {"n": 2, "x": np.zeros(2, np.float32)})
        assert run.value == 3

    def test_unbounded_recursion_is_a_host_error(self):
        src = """
        int f(int d) { return f(d + 1); }
        int k() { return f(0); }
        """
        with pytest.raises(HostError, match="'f'"):
            run_source(src, {}, entry="k")


class TestFunctions:
    def test_call_with_scalar_args(self):
        src = """
        int square(int x) { return x * x; }
        int k(int v) { return square(v) + square(2); }
        """
        _, run = run_source(src, {"v": 3}, entry="k")
        assert run.value == 13

    def test_array_passed_by_reference(self):
        src = """
        void fill(int n, float *a) {
          for (int i = 0; i < n; i++) { a[i] = 9.0f; }
        }
        void k(int n, float *a) { fill(n, a); }
        """
        args, _ = run_source(src, {"n": 4, "a": np.zeros(4, np.float32)},
                             entry="k")
        assert (args["a"] == 9.0).all()

    def test_printf_is_noop(self):
        src = 'int k() { printf("hello %d", 1); return 1; }'
        _, run = run_source(src, {})
        assert run.value == 1

    def test_unknown_function_rejected(self):
        src = "int k() { return mystery(); }"
        with pytest.raises(HostError):
            run_source(src, {})

    def test_wrong_arity_rejected(self):
        src = """
        int one(int x) { return x; }
        int k() { return one(1, 2); }
        """
        with pytest.raises(HostError):
            run_source(src, {}, entry="k")

    def test_recursion(self):
        src = """
        int fact(int n) {
          if (n <= 1) { return 1; }
          return n * fact(n - 1);
        }
        int k(int n) { return fact(n); }
        """
        _, run = run_source(src, {"n": 5}, entry="k")
        assert run.value == 120


class TestArguments:
    def test_missing_argument(self):
        with pytest.raises(HostError):
            run_source("int k(int n) { return n; }", {})

    def test_unknown_argument(self):
        with pytest.raises(HostError):
            run_source("int k() { return 0; }", {"bogus": 1})

    def test_dtype_checked(self):
        src = "void k(int n, float *x) { }"
        with pytest.raises(HostError):
            run_source(src, {"n": 1, "x": np.zeros(4, np.float64)})

    def test_2d_argument_rejected(self):
        src = "void k(float *x) { }"
        with pytest.raises(HostError):
            run_source(src, {"x": np.zeros((2, 2), np.float32)})

    def test_scalar_coercion(self):
        _, run = run_source("float k(float v) { return v; }", {"v": 3})
        assert run.value == pytest.approx(3.0)


class TestDataRegions:
    def test_copy_roundtrip(self):
        src = """
        void k(int n, float *x) {
          #pragma acc data copy(x[0:n])
          {
            #pragma acc parallel loop
            for (int i = 0; i < n; i++) { x[i] = x[i] + 1.0f; }
          }
        }
        """
        args, _ = run_source(src, {"n": 4, "x": np.zeros(4, np.float32)},
                             ngpus=2)
        assert (args["x"] == 1.0).all()

    def test_copyin_does_not_write_back(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc data copyin(x[0:n]) copyout(y[0:n])
          {
            #pragma acc parallel loop
            for (int i = 0; i < n; i++) { y[i] = x[i]; }
          }
        }
        """
        x = np.arange(4, dtype=np.float32)
        args, _ = run_source(src, {"n": 4, "x": x,
                                   "y": np.zeros(4, np.float32)})
        assert (args["y"] == x).all()

    def test_update_host_mid_region(self):
        src = """
        float k(int n, float *x) {
          float seen = 0.0f;
          #pragma acc data copy(x[0:n])
          {
            #pragma acc parallel loop
            for (int i = 0; i < n; i++) { x[i] = 5.0f; }
            #pragma acc update host(x[0:n])
            seen = x[0];
          }
          return seen;
        }
        """
        _, run = run_source(src, {"n": 4, "x": np.zeros(4, np.float32)},
                            ngpus=2)
        assert run.value == pytest.approx(5.0)

    def test_update_device_mid_region(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc data copyin(x[0:n]) copyout(y[0:n])
          {
            for (int i = 0; i < n; i++) { x[i] = 100.0f; }
            #pragma acc update device(x[0:n])
            #pragma acc parallel loop
            for (int i = 0; i < n; i++) { y[i] = x[i]; }
          }
        }
        """
        args, _ = run_source(src, {"n": 4, "x": np.zeros(4, np.float32),
                                   "y": np.zeros(4, np.float32)}, ngpus=2)
        assert (args["y"] == 100.0).all()

    def test_stale_device_copy_without_update(self):
        # Host writes inside a data region are NOT visible to kernels
        # without update device -- OpenACC semantics.
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc data copyin(x[0:n]) copyout(y[0:n])
          {
            for (int i = 0; i < n; i++) { x[i] = 100.0f; }
            #pragma acc parallel loop
            for (int i = 0; i < n; i++) { y[i] = x[i]; }
          }
        }
        """
        x = np.ones(4, dtype=np.float32)
        args, _ = run_source(src, {"n": 4, "x": x,
                                   "y": np.zeros(4, np.float32)})
        assert (args["y"] == 1.0).all()  # device still has the old values

    def test_implicit_copy_for_unlisted_arrays(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) { x[i] = 3.0f; }
        }
        """
        args, _ = run_source(src, {"n": 4, "x": np.zeros(4, np.float32)},
                             ngpus=2)
        assert (args["x"] == 3.0).all()

    def test_present_over_enclosing_region(self):
        src = """
        void k(int n, float *x) {
          #pragma acc data copy(x[0:n])
          {
            #pragma acc parallel present(x[0:n])
            {
              #pragma acc loop gang
              for (int i = 0; i < n; i++) { x[i] = 2.0f; }
            }
          }
        }
        """
        args, _ = run_source(src, {"n": 4, "x": np.zeros(4, np.float32)})
        assert (args["x"] == 2.0).all()

    def test_present_without_region_rejected(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel present(x[0:n])
          {
            #pragma acc loop gang
            for (int i = 0; i < n; i++) { x[i] = 2.0f; }
          }
        }
        """
        with pytest.raises(HostError):
            run_source(src, {"n": 4, "x": np.zeros(4, np.float32)})

    def test_loop_bounds_from_host_expression(self):
        src = """
        void k(int n, float *x) {
          int half = n / 2;
          #pragma acc parallel loop
          for (int i = 0; i < half; i++) { x[i] = 1.0f; }
        }
        """
        args, _ = run_source(src, {"n": 8, "x": np.zeros(8, np.float32)},
                             ngpus=2)
        np.testing.assert_array_equal(args["x"], [1] * 4 + [0] * 4)

    def test_kernel_reruns_inside_host_loop(self):
        src = """
        void k(int n, int steps, float *x) {
          #pragma acc data copy(x[0:n])
          {
            for (int s = 0; s < steps; s++) {
              #pragma acc parallel loop
              for (int i = 0; i < n; i++) { x[i] = x[i] + 1.0f; }
            }
          }
        }
        """
        args, run = run_source(src, {"n": 4, "steps": 5,
                                     "x": np.zeros(4, np.float32)}, ngpus=2)
        assert (args["x"] == 5.0).all()
        assert len(run.loop_stats) == 5
