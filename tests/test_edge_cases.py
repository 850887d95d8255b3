"""Edge cases across the stack: empty iteration spaces, more GPUs than
work, boundary-sized arrays, zero-iteration host loops, repeated runs,
and error reporting quality."""

import numpy as np
import pytest

import repro
from repro.translator.compiler import CompileError
from tests.util import run_source

SAXPY = """
void k(int n, float a, float *x, float *y) {
  #pragma acc parallel
  {
    #pragma acc localaccess x[stride(1)] y[stride(1)]
    #pragma acc loop gang
    for (int i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
  }
}
"""


class TestEmptyAndTiny:
    def test_zero_iterations(self):
        args, run = run_source(SAXPY, {
            "n": 0, "a": 1.0,
            "x": np.zeros(1, np.float32), "y": np.zeros(1, np.float32)},
            ngpus=2)
        assert (args["y"] == 0).all()

    def test_single_iteration_two_gpus(self):
        args, _ = run_source(SAXPY, {
            "n": 1, "a": 2.0,
            "x": np.ones(1, np.float32), "y": np.zeros(1, np.float32)},
            ngpus=2)
        assert args["y"][0] == 2.0

    def test_fewer_tasks_than_gpus(self):
        args, run = run_source(SAXPY, {
            "n": 2, "a": 1.0,
            "x": np.ones(4, np.float32), "y": np.zeros(4, np.float32)},
            machine="supercomputer", ngpus=3)
        np.testing.assert_allclose(args["y"], [1, 1, 0, 0])

    def test_single_element_array(self):
        src = """
        void k(float *x) {
          #pragma acc parallel loop
          for (int i = 0; i < 1; i++) { x[i] = 7.0f; }
        }
        """
        args, _ = run_source(src, {"x": np.zeros(1, np.float32)}, ngpus=2)
        assert args["x"][0] == 7.0

    def test_dynamic_zero_bound_from_host(self):
        src = """
        void k(int n, float *x) {
          int lim = n - n;
          #pragma acc parallel loop
          for (int i = 0; i < lim; i++) { x[i] = 1.0f; }
        }
        """
        args, _ = run_source(src, {"n": 5, "x": np.zeros(5, np.float32)})
        assert (args["x"] == 0).all()


class TestRepeatedRuns:
    def test_program_object_is_reusable(self):
        prog = repro.compile(SAXPY)
        for trial in range(3):
            y = np.zeros(8, dtype=np.float32)
            run = prog.run("k", {"n": 8, "a": float(trial),
                                 "x": np.ones(8, np.float32), "y": y},
                           ngpus=2)
            assert (y == trial).all()

    def test_runs_are_deterministic(self):
        prog = repro.compile(SAXPY)
        times = []
        for _ in range(2):
            run = prog.run("k", {"n": 1024, "a": 1.0,
                                 "x": np.ones(1024, np.float32),
                                 "y": np.zeros(1024, np.float32)}, ngpus=2)
            times.append(run.elapsed)
        assert times[0] == times[1]


class TestNonZeroLowerBound:
    def test_loop_from_offset(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop
          for (int i = 2; i < n; i++) { x[i] = 1.0f; }
        }
        """
        args, _ = run_source(src, {"n": 6, "x": np.zeros(6, np.float32)},
                             ngpus=2)
        np.testing.assert_allclose(args["x"], [0, 0, 1, 1, 1, 1])

    def test_distributed_window_with_offset_loop(self):
        src = """
        void k(int n, float *x) {
          #pragma acc localaccess x[stride(1)]
          #pragma acc parallel loop
          for (int i = 1; i < n - 1; i++) { x[i] = 2.0f; }
        }
        """
        args, _ = run_source(src, {"n": 8, "x": np.zeros(8, np.float32)},
                             ngpus=2)
        np.testing.assert_allclose(args["x"],
                                   [0, 2, 2, 2, 2, 2, 2, 0])


class TestMultipleArraysSameLoop:
    def test_mixed_placements(self):
        # One distributed, one replicated-written, one reduction dest --
        # all in one loop.
        src = """
        void k(int n, int *idx, float *src_a, float *marks, float *hist) {
          #pragma acc localaccess src_a[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            float v = src_a[i];
            marks[idx[i]] = v;
            #pragma acc reductiontoarray(+: hist[0:4])
            hist[idx[i] % 4] += 1.0f;
          }
        }
        """
        n = 16
        idx = np.arange(n, dtype=np.int32)[::-1].copy()
        a = np.arange(n, dtype=np.float32)
        marks = np.zeros(n, dtype=np.float32)
        hist = np.zeros(4, dtype=np.float32)
        args, _ = run_source(src, {"n": n, "idx": idx, "src_a": a,
                                   "marks": marks, "hist": hist}, ngpus=2)
        np.testing.assert_allclose(args["marks"], a[::-1])
        np.testing.assert_allclose(args["hist"], [4, 4, 4, 4])


class TestDiagnostics:
    def test_compile_error_includes_line(self):
        src = "\n\nvoid k(int n) {\n  #pragma acc parallel\n  { n = 1; }\n}"
        with pytest.raises(CompileError) as exc:
            repro.compile(src)
        assert "line" in str(exc.value)

    def test_unknown_entry_function(self):
        prog = repro.compile(SAXPY)
        with pytest.raises(KeyError):
            prog.run("missing", {})

    def test_localaccess_window_violation_caught_by_interp(self):
        # Declared stride(1) but reads i+2: the interpreter oracle flags
        # it.
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc localaccess x[stride(1)] y[stride(1)]
          #pragma acc parallel loop
          for (int i = 0; i < n - 2; i++) { y[i] = x[i + 2]; }
        }
        """
        with pytest.raises(Exception, match="window"):
            run_source(src, {"n": 12, "x": np.ones(12, np.float32),
                             "y": np.zeros(12, np.float32)},
                       ngpus=2, interp=True)

    def test_reduction_var_mismatched_op(self):
        src = """
        float k(int n, float *x) {
          float s = 0.0f;
          #pragma acc parallel loop reduction(+:s)
          for (int i = 0; i < n; i++) { s *= x[i]; }
          return s;
        }
        """
        with pytest.raises(Exception, match="reduction"):
            run_source(src, {"n": 4, "x": np.ones(4, np.float32)})

    @pytest.mark.parametrize("arg", ["ngpus", "chunk_bytes"])
    @pytest.mark.parametrize("value", [2.0, 1.5, True, np.float64(2), "2"],
                             ids=["float", "fraction", "bool", "np.float64",
                                  "str"])
    def test_non_integer_run_argument(self, arg, value):
        prog = repro.compile(SAXPY)
        with pytest.raises(TypeError, match=arg):
            prog.run("k", {"n": 64, "a": 1.0, "x": np.ones(64, np.float32),
                           "y": np.zeros(64, np.float32)},
                     **{"ngpus": 2, arg: value})

    @pytest.mark.parametrize("arg", ["ngpus", "chunk_bytes"])
    def test_numpy_integer_run_argument(self, arg):
        prog = repro.compile(SAXPY)

        def run(value):
            y = np.zeros(64, np.float32)
            r = prog.run("k", {"n": 64, "a": 2.0,
                               "x": np.ones(64, np.float32), "y": y},
                         **{"ngpus": 2, "chunk_bytes": 4096, arg: value})
            return y.tobytes(), r.elapsed

        plain = 2 if arg == "ngpus" else 4096
        assert run(np.int64(plain)) == run(plain)


class TestDeviceCapacity:
    def test_out_of_memory_reported(self):
        from repro.vcuda import GpuSpec, MachineSpec
        from repro.vcuda.specs import CORE_I7_980, PCIE_GEN2_DESKTOP

        tiny_gpu = GpuSpec(
            name="TinyGPU", cuda_cores=448, sm_count=14, clock_hz=1e9,
            peak_sp_flops=1e12, mem_bandwidth=1e11, mem_capacity=1024)
        machine = MachineSpec(
            name="tiny", cpu=CORE_I7_980, cpu_sockets=1, gpu=tiny_gpu,
            gpu_count=1, bus=PCIE_GEN2_DESKTOP, gpu_hub=(0,))
        prog = repro.compile(SAXPY)
        from repro.vcuda.memory import OutOfDeviceMemory

        with pytest.raises(OutOfDeviceMemory):
            prog.run("k", {"n": 4096, "a": 1.0,
                           "x": np.ones(4096, np.float32),
                           "y": np.zeros(4096, np.float32)},
                     machine=machine, ngpus=1)


class TestCIntegerDivision:
    """``/`` and ``%`` of integers truncate toward zero (C99, Fortran),
    in the host program and in the kernels alike; Python and NumPy
    floor."""

    SRC = """
    void k(int n, int a, int b, int *x, int *d, int *q, int *r, int *t,
           int *out) {
      out[0] = a / b;
      out[1] = a % b;
      int h = a;
      h /= b;
      out[2] = h;
      h = a;
      h %= b;
      out[3] = h;
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        q[i] = x[i] / d[i];
        r[i] = x[i] % d[i];
        int s = x[i];
        s /= d[i];
        t[i] = s + a / b + a % b;
      }
    }
    """
    X = [-7, 7, -7, 7, -8, 0, 5, -1]
    D = [2, -2, -2, 2, 3, 3, -3, 4]
    #: By hand, C's rules.
    Q = [-3, -3, 3, 3, -2, 0, -1, 0]
    R = [-1, 1, -1, 1, -2, 0, 2, -1]

    def args(self):
        return {"n": 8, "a": -7, "b": 2,
                "x": np.array(self.X, np.int32),
                "d": np.array(self.D, np.int32),
                **{k: np.zeros(8, np.int32) for k in ("q", "r", "t")},
                "out": np.zeros(4, np.int32)}

    @pytest.mark.parametrize("interp", [False, True])
    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_quotient_and_remainder_truncate(self, ngpus, interp):
        args, _ = run_source(self.SRC, self.args(), ngpus=ngpus,
                             interp=interp)
        assert args["out"].tolist() == [-3, -1, -3, -1]
        assert args["q"].tolist() == self.Q
        assert args["r"].tolist() == self.R
        assert args["t"].tolist() == [q - 3 - 1 for q in self.Q]
