"""Application integration tests: every app, every GPU count, both
machines, correctness against the NumPy references, plus the per-app
communication signatures the paper describes."""

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.apps.cuda_baselines import bfs_cuda, kmeans_cuda, md_cuda
from repro.cpu import run_openmp
from repro.vcuda import DESKTOP_MACHINE, SUPERCOMPUTER_NODE

APPS = {**ALL_APPS, **EXTRA_APPS}

CONFIGS = [("desktop", 1), ("desktop", 2),
           ("supercomputer", 1), ("supercomputer", 2), ("supercomputer", 3)]


@pytest.mark.parametrize("app_name", list(APPS))
@pytest.mark.parametrize("machine,ngpus", CONFIGS)
def test_app_correct_on_proposal(app_name, machine, ngpus):
    spec = APPS[app_name]
    prog = repro.compile(spec.source)
    args = spec.args_for("tiny")
    snap = spec.snapshot(args)
    prog.run(spec.entry, args, machine=machine, ngpus=ngpus)
    spec.check(args, snap)


@pytest.mark.parametrize("app_name", list(APPS))
def test_app_correct_on_openmp(app_name):
    spec = APPS[app_name]
    prog = repro.compile(spec.source)
    args = spec.args_for("tiny")
    snap = spec.snapshot(args)
    run_openmp(prog.compiled, spec.entry, args, DESKTOP_MACHINE)
    spec.check(args, snap)


@pytest.mark.parametrize("fn,app_name", [(md_cuda, "md"),
                                         (kmeans_cuda, "kmeans"),
                                         (bfs_cuda, "bfs")])
def test_app_correct_on_hand_cuda(fn, app_name):
    spec = ALL_APPS[app_name]
    args = spec.args_for("tiny")
    snap = spec.snapshot(args)
    fn(DESKTOP_MACHINE, args)
    spec.check(args, snap)


class TestCommunicationSignatures:
    """Fig. 8's qualitative claims, at the telemetry level."""

    def run(self, app_name, ngpus, machine="desktop", workload="test"):
        spec = APPS[app_name]
        prog = repro.compile(spec.source)
        args = spec.args_for(workload)
        return prog.run(spec.entry, args, machine=machine, ngpus=ngpus)

    def test_md_needs_no_inter_gpu_communication(self):
        run = self.run("md", 2)
        assert run.breakdown.gpu_gpu == 0.0

    def test_kmeans_has_small_reduction_traffic(self):
        # The merge traffic is fixed-size (centers array), so it is only
        # "small" relative to kernels at realistic point counts.
        run = self.run("kmeans", 2, workload="bench")
        assert 0 < run.breakdown.gpu_gpu < run.breakdown.kernels

    def test_bfs_has_heavy_irregular_traffic(self):
        run2 = self.run("bfs", 2)
        assert run2.breakdown.gpu_gpu > 0
        comm = run2.executor.comm
        assert comm.bytes_replica > 0  # dirty-bit propagation
        assert comm.bytes_miss == 0  # levels is replicated, not missed

    def test_bfs_comm_worse_across_qpi(self):
        d = self.run("bfs", 2, machine="desktop")
        s = self.run("bfs", 3, machine="supercomputer")
        assert s.breakdown.gpu_gpu > d.breakdown.gpu_gpu

    def test_stencil_exchanges_only_halos(self):
        run = self.run("stencil", 2)
        comm = run.executor.comm
        assert comm.bytes_halo > 0
        assert comm.bytes_replica == 0
        assert comm.bytes_miss == 0
        # A 1-element halo costs 4 bytes per boundary direction, and each
        # of the 2*steps sweeps refreshes its one written array.
        spec = APPS["stencil"]
        steps = spec.workloads["test"].params["steps"]
        assert comm.bytes_halo == 2 * 4 * (2 * steps)

    def test_shift_scatter_routes_misses(self):
        run = self.run("shift_scale", 2)
        comm = run.executor.comm
        assert comm.bytes_miss > 0

    def test_md_single_kernel_execution(self):
        run = self.run("md", 2)
        assert len(run.loop_stats) == 1

    def test_kmeans_kernel_executions(self):
        spec = APPS["kmeans"]
        niters = spec.workloads["test"].params["niters"]
        run = self.run("kmeans", 2)
        assert len(run.loop_stats) == 2 * niters

    def test_kmeans_loader_caches_across_loops(self):
        run = self.run("kmeans", 2)
        loader = run.executor.loader
        # features/membership keep the same distribution between the two
        # loops and across iterations: reloads must be skipped.
        assert loader.reloads_skipped > 0


class TestMemoryFootprint:
    def test_distribution_saves_memory(self):
        spec = ALL_APPS["md"]
        prog = repro.compile(spec.source)
        runs = {}
        for g in (1, 2):
            args = spec.args_for("test")
            runs[g] = prog.run(spec.entry, args, machine="desktop", ngpus=g)
        u1 = runs[1].memory_high_water("user")
        u2 = runs[2].memory_high_water("user")
        # Far below 2x: only the (small) position array is replicated.
        assert u2 < 1.3 * u1

    def test_bfs_system_overhead_below_30_percent(self):
        spec = ALL_APPS["bfs"]
        prog = repro.compile(spec.source)
        for g in (1, 2):
            args = spec.args_for("test")
            run = prog.run(spec.entry, args, machine="desktop", ngpus=g)
            user = run.memory_high_water("user")
            system = run.memory_high_water("system")
            assert system < 0.30 * user


class TestGeneratedKernels:
    def test_bfs_kernel_uses_csr_flattening(self):
        prog = repro.compile(ALL_APPS["bfs"].source)
        src = prog.kernel_source("bfs_L0")
        assert "ks.flat_ranges" in src

    def test_md_kernel_is_fully_vectorized(self):
        prog = repro.compile(ALL_APPS["md"].source)
        plan = prog.kernel("md_L0")
        assert plan.fn is not None and "def kernel(ctx):" in plan.source

    def test_all_app_kernels_vectorize(self):
        for name, spec in APPS.items():
            prog = repro.compile(spec.source)
            for plan in prog.kernels:
                assert plan.fn is not None, f"{name}/{plan.name}"
