"""Tests for features beyond the paper's minimum: launch-geometry
clauses, the `kernels` construct, row-block 2-D stencils, SpMV's
segmented accumulation, and interpreter-engine parity for the extra
apps."""

import numpy as np
import pytest

import repro
from repro.apps import EXTRA_APPS
from repro.translator.compiler import CompileError, compile_source
from tests.interp_oracle import oracle
from tests.util import run_source


class TestLaunchClauses:
    def test_vector_length_sets_block_dim(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop vector_length(128)
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        compiled = compile_source(src)
        assert compiled.plans[0].block_dim == 128
        args, run = run_source(src, {"n": 1024,
                                     "x": np.zeros(1024, np.float32)})
        launch = run.platform.devices[0].launches[0]
        assert launch.config.block_dim == 128
        assert launch.config.grid_dim == 8

    def test_num_gangs_caps_grid(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop num_gangs(4)
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        args, run = run_source(src, {"n": 1 << 16,
                                     "x": np.zeros(1 << 16, np.float32)})
        launch = run.platform.devices[0].launches[0]
        assert launch.config.grid_dim == 4
        assert (args["x"] == 1.0).all()

    def test_small_grid_is_slower(self):
        base = """
        void k(int n, float *x) {
          #pragma acc parallel loop {CLAUSE}
          for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f + 1.0f; }
        }
        """
        times = {}
        for clause in ("", "num_gangs(2)"):
            src = base.replace("{CLAUSE}", clause)
            _, run = run_source(src, {"n": 1 << 18,
                                      "x": np.ones(1 << 18, np.float32)})
            times[clause] = run.breakdown.kernels
        assert times["num_gangs(2)"] > times[""]

    def test_bad_vector_length_rejected(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel loop vector_length(5000)
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)

    def test_symbolic_vector_length_rejected(self):
        src = """
        void k(int n, int vl, float *x) {
          #pragma acc parallel loop vector_length(vl)
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)


class TestKernelsConstruct:
    def test_kernels_region_compiles_and_runs(self):
        src = """
        void k(int n, float *x, float *y) {
          #pragma acc kernels
          {
            #pragma acc loop
            for (int i = 0; i < n; i++) { y[i] = x[i] * 2.0f; }
          }
        }
        """
        x = np.arange(8, dtype=np.float32)
        args, _ = run_source(src, {"n": 8, "x": x,
                                   "y": np.zeros(8, np.float32)}, ngpus=2)
        np.testing.assert_allclose(args["y"], 2 * x)


class TestHeat2d:
    SPEC = EXTRA_APPS["heat2d"]

    def test_row_block_halo_volume(self):
        prog = repro.compile(self.SPEC.source)
        args = self.SPEC.args_for("test")
        run = prog.run(self.SPEC.entry, args, machine="desktop", ngpus=2)
        comm = run.executor.comm
        w = self.SPEC.workloads["test"].params["w"]
        steps = self.SPEC.workloads["test"].params["steps"]
        # One row of halo per boundary direction per written array per
        # sweep: 2 directions x w floats x 2 sweeps x steps.
        assert comm.bytes_halo == 2 * w * 4 * 2 * steps
        assert comm.bytes_replica == 0

    def test_checked_writes_never_miss(self):
        prog = repro.compile(self.SPEC.source)
        args = self.SPEC.args_for("test")
        run = prog.run(self.SPEC.entry, args, machine="desktop", ngpus=2)
        # Symbolic-stride writes use the checked path, but rows always
        # land in the local window: zero miss records routed.
        assert run.executor.comm.bytes_miss == 0

    def test_memory_scales_by_rows_not_grid(self):
        prog = repro.compile(self.SPEC.source)
        mems = {}
        for g in (1, 2):
            args = self.SPEC.args_for("test")
            run = prog.run(self.SPEC.entry, args, machine="desktop", ngpus=g)
            mems[g] = run.memory_high_water("user")
        h = self.SPEC.workloads["test"].params["h"]
        # 2 GPUs: each holds ~half the rows + 1 halo row per side.
        assert mems[2] <= mems[1] * (1 + 4.0 / h)

    def test_interp_engine_agrees(self):
        prog = repro.compile(self.SPEC.source)
        outs = {}
        for engine in ("vector", "interp"):
            args = self.SPEC.args_for("tiny")
            runner = oracle(prog) if engine == "interp" else prog
            runner.run(self.SPEC.entry, args, machine="desktop", ngpus=2)
            outs[engine] = args["u"].copy()
        np.testing.assert_allclose(outs["vector"], outs["interp"])


class TestSpmv:
    SPEC = EXTRA_APPS["spmv"]

    def test_segmented_accumulation_in_generated_code(self):
        prog = repro.compile(self.SPEC.source)
        src = prog.kernel_source("spmv_L0")
        assert "np.add.at" in src  # outer-local += inside the csr axis
        assert "ks.flat_ranges" in src

    def test_both_csr_arrays_distribute_by_edge_ranges(self):
        prog = repro.compile(self.SPEC.source)
        args = self.SPEC.args_for("test")
        run = prog.run(self.SPEC.entry, args, machine="desktop", ngpus=2)
        loader = run.executor.loader
        # During execution col/val were loaded as edge-range blocks; the
        # user memory high-water must therefore stay near 1x (plus the
        # replicated x vector) rather than 2x.
        total_bytes = (args["row"].nbytes + args["col"].nbytes
                       + args["val"].nbytes + args["x"].nbytes
                       + args["y"].nbytes)
        assert run.memory_high_water("user") < 1.25 * total_bytes

    def test_matches_scipy(self):
        import scipy.sparse as sp

        spec = self.SPEC
        prog = repro.compile(spec.source)
        args = spec.args_for("test")
        snap = spec.snapshot(args)
        prog.run(spec.entry, args, machine="desktop", ngpus=2)
        m = sp.csr_matrix((snap["val"], snap["col"], snap["row"]),
                          shape=(args["n"], args["n"]))
        expect = m @ snap["x"]
        np.testing.assert_allclose(args["y"], expect, rtol=2e-4, atol=2e-4)


class TestPrivateClause:
    SRC = """
    void k(int n, float *x, float *y) {
      float t;
      #pragma acc parallel
      {
        #pragma acc loop gang private(t)
        for (int i = 0; i < n; i++) {
          t = x[i] * 2.0f;
          if (t > 4.0f) { t = 4.0f; }
          y[i] = t;
        }
      }
    }
    """

    def test_private_scalar_both_engines(self):
        import numpy as np
        from tests.util import compare_engines

        x = np.arange(6, dtype=np.float32)
        out = compare_engines(
            self.SRC,
            lambda: {"n": 6, "x": x.copy(), "y": np.zeros(6, np.float32)},
            ngpus_list=(1, 2))
        np.testing.assert_allclose(out["y"], [0, 2, 4, 4, 4, 4])

    def test_private_array_rejected(self):
        src = """
        void k(int n, float *x) {
          float buf[8];
          #pragma acc parallel
          {
            #pragma acc loop gang private(buf)
            for (int i = 0; i < n; i++) { x[i] = 1.0f; }
          }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)

    def test_private_undeclared_rejected(self):
        src = """
        void k(int n, float *x) {
          #pragma acc parallel
          {
            #pragma acc loop gang private(ghost)
            for (int i = 0; i < n; i++) { x[i] = 1.0f; }
          }
        }
        """
        with pytest.raises(CompileError):
            compile_source(src)
