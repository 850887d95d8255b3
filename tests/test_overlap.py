"""Async pipelined communication: streams, coalescing, accounting,
and the bit-identical-results guarantee.

The overlap layer changes *when* transfers happen and how waits are
attributed -- never what data moves.  The regression tests here pin
both halves: scheduling semantics on the vcuda primitives, and
end-to-end equality of application outputs with overlap on vs off.
"""

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.translator.compiler import CompileOptions, compile_source
from repro.vcuda import (
    CATEGORY_CPU_GPU,
    CATEGORY_GPU_GPU,
    CATEGORY_GPU_GPU_OVERLAPPED,
    CATEGORY_KERNELS,
    Bus,
    KernelWork,
    LaunchConfig,
    Platform,
    SUPERCOMPUTER_NODE,
    DESKTOP_MACHINE,
    VirtualClock,
)

APPS = ALL_APPS | EXTRA_APPS


# ---------------------------------------------------------------------------
# Bus: per-category sync, retirement, dependencies, coalescing
# ---------------------------------------------------------------------------


class TestBusAsync:
    def _bus(self):
        return Bus(SUPERCOMPUTER_NODE, VirtualClock())

    def test_sync_category_leaves_other_traffic_in_flight(self):
        bus = self._bus()
        h = bus.h2d(0, 1 << 20)
        p = bus.p2p(1, 2, 64 << 20)  # long peer copy
        assert p.end > h.end
        waited = bus.sync_category(CATEGORY_CPU_GPU)
        assert waited == pytest.approx(h.end)
        assert bus.clock.now == pytest.approx(h.end)
        # The peer copy is still pending; a later category sync takes it.
        assert [t.kind for t in bus.pending] == ["p2p"]
        bus.sync_category(CATEGORY_GPU_GPU)
        assert bus.pending_count() == 0
        assert bus.clock.now == pytest.approx(p.end)

    def test_sync_category_with_no_match_retires_finished(self):
        bus = self._bus()
        t = bus.h2d(0, 1024)
        bus.clock.advance_to(t.end + 1.0)
        assert bus.sync_category(CATEGORY_GPU_GPU) == 0.0
        assert bus.pending_count() == 0
        assert t in bus.completed

    def test_not_before_delays_transfer_start(self):
        bus = self._bus()
        t = bus.p2p(0, 1, 1024, not_before=7.5)
        assert t.start >= 7.5

    def test_category_override_rebuckets_host_legs(self):
        bus = self._bus()
        t = bus.d2h(0, 1024, category=CATEGORY_GPU_GPU)
        assert t.kind == "d2h"
        assert t.category == CATEGORY_GPU_GPU
        bus.sync_category(CATEGORY_GPU_GPU)
        assert bus.clock.elapsed_in(CATEGORY_GPU_GPU) == pytest.approx(t.end)

    def test_coalesce_runs_merges_adjacent_only(self):
        runs = [(0, 100), (100, 50), (200, 10), (210, 5), (400, 1)]
        assert Bus.coalesce_runs(runs) == [(0, 150), (200, 15), (400, 1)]
        # Input order does not matter; byte totals are conserved.
        shuffled = [(200, 10), (0, 100), (400, 1), (100, 50), (210, 5)]
        merged = Bus.coalesce_runs(shuffled)
        assert sum(n for _, n in merged) == sum(n for _, n in runs)
        assert merged == [(0, 150), (200, 15), (400, 1)]


# ---------------------------------------------------------------------------
# Timeline-attributing clock advance
# ---------------------------------------------------------------------------


class TestTimelineAdvance:
    def test_peer_transfer_under_kernel_is_hidden(self):
        p = Platform(DESKTOP_MACHINE, 2)
        p.enable_overlap_accounting()
        dev = p.devices[0]
        rec = dev.record_launch("k", KernelWork(flops=1), LaunchConfig(64), 1.0)
        rec.start = 0.0
        dev.busy_until = 1.0
        t = p.bus.p2p(0, 1, 1024)
        assert t.end < 1.0  # fits fully under the kernel
        p.timeline_advance(1.0)
        assert p.clock.elapsed_in(CATEGORY_KERNELS) == pytest.approx(1.0)
        assert p.clock.elapsed_in(CATEGORY_GPU_GPU) == 0.0
        assert p.clock.elapsed_in(CATEGORY_GPU_GPU_OVERLAPPED) == \
            pytest.approx(t.end - t.start)
        assert p.bus.pending_count() == 0  # retired

    def test_exposed_tail_lands_in_gpu_gpu(self):
        p = Platform(DESKTOP_MACHINE, 2)
        p.enable_overlap_accounting()
        dev = p.devices[0]
        rec = dev.record_launch("k", KernelWork(flops=1), LaunchConfig(64), 1e-5)
        rec.start = 0.0
        dev.busy_until = 1e-5
        t = p.bus.p2p(0, 1, 256 << 20)  # far outlives the kernel
        assert t.end > 1e-5
        p.timeline_advance(t.end)
        assert p.clock.elapsed_in(CATEGORY_KERNELS) == pytest.approx(1e-5)
        exposed = p.clock.elapsed_in(CATEGORY_GPU_GPU)
        hidden = p.clock.elapsed_in(CATEGORY_GPU_GPU_OVERLAPPED)
        assert exposed == pytest.approx(t.end - 1e-5)
        assert hidden == pytest.approx(1e-5 - t.start)
        # The clock never double-counts: buckets tile the advanced span.
        assert p.clock.now == pytest.approx(t.end)
        assert exposed + p.clock.elapsed_in(CATEGORY_KERNELS) == \
            pytest.approx(t.end)

    def test_past_target_only_retires(self):
        p = Platform(DESKTOP_MACHINE, 2)
        t = p.bus.p2p(0, 1, 1024)
        p.clock.advance_to(t.end + 1.0)
        assert p.timeline_advance(t.end) == 0.0
        assert p.bus.pending_count() == 0


# ---------------------------------------------------------------------------
# End-to-end: overlap changes timing only, never results
# ---------------------------------------------------------------------------


PARITY_CASES = [
    ("bfs", "supercomputer", 3),
    ("bfs", "desktop", 2),
    ("stencil", "supercomputer", 3),
    ("stencil", "desktop", 2),
    ("kmeans", "desktop", 2),
    ("md", "desktop", 2),
    ("shift_scale", "supercomputer", 3),
]


def _run_app(app, machine, ngpus, **kw):
    args = app.args_for("test")
    prog = repro.compile(app.source)
    run = prog.run(app.entry, args, machine=machine, ngpus=ngpus, **kw)
    return run, {name: np.array(args[name]) for name in app.outputs}


class TestBitIdenticalResults:
    @pytest.mark.parametrize("app_name,machine,ngpus", PARITY_CASES)
    def test_overlap_and_coalescing_preserve_results(self, app_name, machine,
                                                     ngpus):
        app = APPS[app_name]
        _, base = _run_app(app, machine, ngpus)
        for kw in ({"overlap": True}, {"coalesce": True},
                   {"overlap": True, "coalesce": True}):
            _, outs = _run_app(app, machine, ngpus, **kw)
            for name in base:
                assert np.array_equal(base[name], outs[name]), (name, kw)

    def test_overlap_reduces_exposed_comm_on_stencil(self):
        app = APPS["stencil"]
        off, _ = _run_app(app, "supercomputer", 3)
        on, _ = _run_app(app, "supercomputer", 3, overlap=True)
        assert on.breakdown.gpu_gpu < off.breakdown.gpu_gpu
        assert on.breakdown.gpu_gpu_overlapped > 0.0
        assert off.breakdown.gpu_gpu_overlapped == 0.0
        assert on.elapsed <= off.elapsed * (1 + 1e-9)

    def test_hidden_time_excluded_from_breakdown_total(self):
        app = APPS["stencil"]
        on, _ = _run_app(app, "supercomputer", 3, overlap=True)
        bd = on.breakdown
        assert bd.gpu_gpu_overlapped > 0.0
        assert bd.total == pytest.approx(
            bd.kernels + bd.cpu_gpu + bd.gpu_gpu + bd.other)
        # 'other' may round to a denormal negative after the segment
        # sweep's many tiny advances; it must not go materially negative
        # (that would mean hidden time leaked into the clock).
        assert bd.other >= -1e-12

    def test_interior_boundary_split_records_sublaunches(self):
        app = APPS["stencil"]
        on, _ = _run_app(app, "supercomputer", 3, overlap=True)
        names = {l.kernel_name for d in on.platform.devices
                 for l in d.launches}
        assert any(n.endswith("[int]") for n in names)
        assert any(n.endswith("[bnd]") for n in names)

    def test_sync_mode_untouched_by_default(self):
        # The default path must match the seed behavior exactly: no
        # overlap accounting, no in-flight gate, no split launches.
        app = APPS["stencil"]
        off, _ = _run_app(app, "supercomputer", 3)
        assert off.platform.bus.advancer is None
        assert not off.executor.comm.pending
        assert not any(l.kernel_name.endswith(("[int]", "[bnd]"))
                       for d in off.platform.devices for l in d.launches)


# ---------------------------------------------------------------------------
# Transfer coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def _run_bfs(self, coalesce):
        app = APPS["bfs"]
        args = app.args_for("test")
        prog = repro.compile(app.source)
        # Small chunks force many adjacent dirty chunks per level.
        run = prog.run(app.entry, args, machine="desktop", ngpus=2,
                       chunk_bytes=1 << 10, coalesce=coalesce)
        return run, {name: np.array(args[name]) for name in app.outputs}

    def test_fewer_transactions_same_bytes(self):
        off, base = self._run_bfs(False)
        on, outs = self._run_bfs(True)
        assert (on.executor.comm.transport.transactions
                < off.executor.comm.transport.transactions)
        assert on.executor.comm.transactions_coalesced_away > 0
        assert on.executor.comm.bytes_replica == \
            off.executor.comm.bytes_replica
        for name in base:
            assert np.array_equal(base[name], outs[name]), name
        # Fewer per-DMA latencies -> no slower end to end.
        assert on.elapsed <= off.elapsed * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Compilation cache: repro.compile shares programs through the process's
# program store; compile_source translates afresh (see
# test_compiler_cache.py for the store's full suite)
# ---------------------------------------------------------------------------


class TestCompileCache:
    @pytest.fixture(autouse=True)
    def _store(self, programs):
        self.store = programs

    def test_hit_returns_identical_program(self):
        src = APPS["bfs"].source
        a = repro.compile(src).compiled
        b = repro.compile(src).compiled
        assert a is b
        stats = self.store.stats_snapshot()
        assert stats["memory_hits"] == 1
        assert stats["compiles"] == 1

    def test_options_participate_in_key(self):
        src = APPS["kmeans"].source
        a = repro.compile(src).compiled
        b = repro.compile(src, CompileOptions(layout_transform=False)).compiled
        c = repro.compile(src, CompileOptions(layout_transform=False)).compiled
        assert a is not b
        assert b is c

    def test_cache_false_bypasses(self):
        src = APPS["md"].source
        a = repro.compile(src).compiled
        b = compile_source(src)
        assert a is not b
        assert self.store.stats_snapshot()["memory_hits"] == 0
