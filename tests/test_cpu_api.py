"""OpenMP baseline executor and public API tests."""

import numpy as np
import pytest

import repro
from repro.cpu import CpuPlatform, run_openmp
from repro.translator.compiler import compile_source
from repro.trace import SPAN_KINDS
from repro.vcuda import DESKTOP_MACHINE, SUPERCOMPUTER_NODE
from repro.vcuda.device import KernelWork

SAXPY = """
void k(int n, float a, float *x, float *y) {
  #pragma acc parallel loop copyin(x[0:n]) copy(y[0:n])
  for (int i = 0; i < n; i++) { y[i] = a * x[i] + y[i]; }
}
"""


class TestCpuModel:
    def test_compute_bound(self):
        p = CpuPlatform(DESKTOP_MACHINE)
        t = p.loop_time(KernelWork(flops=1e9))
        # ~128 GF/s peak at 0.55 efficiency -> ~14ms.
        assert 0.005 < t < 0.05

    def test_dual_socket_faster(self):
        w = KernelWork(flops=1e9, coalesced_bytes=1e9)
        t1 = CpuPlatform(DESKTOP_MACHINE).loop_time(w)
        t2 = CpuPlatform(SUPERCOMPUTER_NODE).loop_time(w)
        assert t2 < t1

    def test_random_traffic_expensive(self):
        p = CpuPlatform(DESKTOP_MACHINE)
        t_r = p.loop_time(KernelWork(random_bytes=1e8))
        t_c = p.loop_time(KernelWork(coalesced_bytes=1e8))
        assert t_r > t_c

    def test_region_overhead_floor(self):
        p = CpuPlatform(DESKTOP_MACHINE)
        assert p.loop_time(KernelWork()) > 0


class TestOpenMPExecution:
    def test_runs_and_matches(self):
        c = compile_source(SAXPY)
        x = np.arange(16, dtype=np.float32)
        y = np.ones(16, dtype=np.float32)
        r = run_openmp(c, "k", {"n": 16, "a": 3.0, "x": x, "y": y},
                       DESKTOP_MACHINE)
        np.testing.assert_allclose(y, 3 * np.arange(16) + 1)
        assert r.elapsed > 0
        assert len(r.loop_stats) == 1

    def test_scalar_reduction_on_cpu(self):
        src = """
        float k(int n, float *x) {
          float s = 10.0f;
          #pragma acc parallel loop reduction(+:s)
          for (int i = 0; i < n; i++) { s += x[i]; }
          return s;
        }
        """
        c = compile_source(src)
        x = np.ones(8, dtype=np.float32)
        r = run_openmp(c, "k", {"n": 8, "x": x}, DESKTOP_MACHINE)
        assert r.value == pytest.approx(18.0)

    def test_reduction_to_array_on_cpu(self):
        src = """
        void k(int n, int *b, float *h) {
          #pragma acc parallel loop
          for (int i = 0; i < n; i++) {
            #pragma acc reductiontoarray(+: h[0:2])
            h[b[i]] += 1.0f;
          }
        }
        """
        c = compile_source(src)
        h = np.zeros(2, dtype=np.float32)
        run_openmp(c, "k", {"n": 4, "b": np.array([0, 1, 0, 0], np.int32),
                            "h": h}, DESKTOP_MACHINE)
        np.testing.assert_allclose(h, [3, 1])

    def test_interp_engine_on_cpu(self):
        c = compile_source(SAXPY)
        y = np.zeros(4, dtype=np.float32)
        run_openmp(c, "k", {"n": 4, "a": 1.0,
                            "x": np.ones(4, np.float32), "y": y},
                   DESKTOP_MACHINE, engine="interp")
        assert (y == 1.0).all()


class TestPublicApi:
    def test_compile_and_kernel_listing(self):
        prog = repro.compile(SAXPY)
        assert [p.name for p in prog.kernels] == ["k_L0"]
        assert "def kernel" in prog.kernel_source("k_L0")

    def test_run_returns_breakdown_and_memory(self):
        prog = repro.compile(SAXPY)
        run = prog.run("k", {"n": 64, "a": 1.0,
                             "x": np.ones(64, np.float32),
                             "y": np.zeros(64, np.float32)},
                       machine="desktop", ngpus=2)
        assert run.elapsed > 0
        assert run.breakdown.total == pytest.approx(run.elapsed, rel=1e-6)
        assert run.memory_high_water() > 0
        assert run.kernel_launches == 2  # one per GPU

    def test_machine_by_spec_object(self):
        prog = repro.compile(SAXPY)
        run = prog.run("k", {"n": 8, "a": 1.0,
                             "x": np.ones(8, np.float32),
                             "y": np.zeros(8, np.float32)},
                       machine=SUPERCOMPUTER_NODE, ngpus=3)
        assert run.platform.ngpus == 3

    def test_invalid_machine_name(self):
        prog = repro.compile(SAXPY)
        with pytest.raises(KeyError):
            prog.run("k", {}, machine="laptop")

    def test_invalid_machine_name_lists_known_names(self):
        # Was a bare ``KeyError: 'nope'``.
        prog = repro.compile(SAXPY)
        with pytest.raises(KeyError) as exc_info:
            prog.run("k", {}, machine="nope")
        message = str(exc_info.value)
        assert "'nope'" in message
        for known in ("desktop", "supercomputer", "tsubame2"):
            assert known in message

    @pytest.mark.parametrize("app", ["md", "bfs"])
    @pytest.mark.parametrize("chunk_bytes", [0, -5])
    def test_invalid_chunk_bytes_rejected_up_front(self, app, chunk_bytes,
                                                   monkeypatch):
        # ``md`` has no dirty-bit array and used to accept any value
        # silently; ``bfs`` failed mid-run, after the first loads, from
        # ``TwoLevelDirty.__init__``.  Now neither gets as far as a
        # platform, let alone a transfer.
        from repro.apps import ALL_APPS

        def no_platform(*args, **kwargs):
            raise AssertionError("Platform built before the check")

        monkeypatch.setattr("repro.api.Platform", no_platform)
        spec = ALL_APPS[app]
        prog = repro.compile(spec.source)
        with pytest.raises(ValueError, match="chunk_bytes"):
            prog.run(spec.entry, spec.args_for("tiny"), ngpus=2,
                     chunk_bytes=chunk_bytes)

    def test_invalid_engine(self):
        prog = repro.compile(SAXPY)
        with pytest.raises(ValueError):
            prog.run("k", {"n": 1, "a": 1.0,
                           "x": np.zeros(1, np.float32),
                           "y": np.zeros(1, np.float32)}, engine="magic")

    def test_compile_error_surfaces(self):
        with pytest.raises(repro.CompileError):
            repro.compile("""
            void k(int n, float *x) {
              #pragma acc parallel
              { x[0] = 1.0f; }
            }
            """)

    def test_loop_stats_recorded(self):
        prog = repro.compile(SAXPY)
        run = prog.run("k", {"n": 32, "a": 1.0,
                             "x": np.ones(32, np.float32),
                             "y": np.zeros(32, np.float32)}, ngpus=2)
        assert len(run.loop_stats) == 1
        stats = run.loop_stats[0]
        assert stats.tasks == [(0, 16), (16, 32)]
        assert stats.kernel_seconds > 0


class TestTimeline:
    def test_events_cover_the_run(self):
        prog = repro.compile(SAXPY)
        run = prog.run("k", {"n": 1 << 14, "a": 1.0,
                             "x": np.ones(1 << 14, np.float32),
                             "y": np.zeros(1 << 14, np.float32)}, ngpus=2,
                       trace=True)
        events = [e for e in run.tracer.events if e.kind in SPAN_KINDS]
        kinds = {e.kind for e in events}
        assert {"kernel", "h2d", "d2h"} <= kinds
        assert all(e.end >= e.start for e in events)
        assert max(e.end for e in events) <= run.elapsed + 1e-12
        # One chart row per busy device or link, then the legend.
        rows = repro.trace.gantt(run.tracer).split("\n")[1:-1]
        assert [r.split("  ")[0].strip() for r in rows] == [
            "gpu0", "gpu1", "pcie->gpu0", "pcie->gpu1",
            "pcie<-gpu0", "pcie<-gpu1"]
        assert all(set(r.split("  ", 1)[1]) <= set(" #<>") for r in rows)

    def test_kernels_on_distinct_gpus_overlap(self):
        prog = repro.compile(SAXPY)
        run = prog.run("k", {"n": 1 << 16, "a": 1.0,
                             "x": np.ones(1 << 16, np.float32),
                             "y": np.zeros(1 << 16, np.float32)}, ngpus=2,
                       trace=True)
        kernels = [e for e in run.tracer.events if e.kind == "kernel"]
        assert len(kernels) == 2
        a, b = kernels
        assert a.start < b.end and b.start < a.end  # intervals intersect
