"""Virtual CUDA platform tests: clock, memory, device, bus."""

import numpy as np
import pytest

from repro.vcuda import (
    Bus,
    CATEGORY_CPU_GPU,
    CATEGORY_GPU_GPU,
    CATEGORY_KERNELS,
    DESKTOP_MACHINE,
    Device,
    KernelWork,
    LaunchConfig,
    OutOfDeviceMemory,
    Platform,
    Profiler,
    PURPOSE_SYSTEM,
    PURPOSE_USER,
    SUPERCOMPUTER_NODE,
    TESLA_C2075,
    VirtualClock,
)
from repro.vcuda.memory import DeviceMemory


class TestClock:
    def test_advance(self):
        c = VirtualClock()
        assert c.advance(1.5) == 1.5
        assert c.now == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_categories_accumulate(self):
        c = VirtualClock()
        c.advance(1.0, "A")
        c.advance(2.0, "A")
        c.advance(0.5, "B")
        assert c.elapsed_in("A") == 3.0
        assert c.elapsed_in("B") == 0.5

    def test_advance_to_past_is_noop(self):
        c = VirtualClock()
        c.advance(5.0)
        c.advance_to(3.0, "X")
        assert c.now == 5.0
        assert c.elapsed_in("X") == 0.0

    def test_advance_to_future(self):
        c = VirtualClock()
        c.advance_to(2.0, "X")
        assert c.now == 2.0 and c.elapsed_in("X") == 2.0

    def test_reset(self):
        c = VirtualClock()
        c.advance(1.0, "A")
        c.reset()
        assert c.now == 0.0 and c.elapsed_in("A") == 0.0


class TestDeviceMemory:
    def make(self, cap=1 << 20):
        return DeviceMemory(0, cap)

    def test_alloc_and_shape(self):
        m = self.make()
        b = m.alloc("x", 100, np.float32)
        assert b.data.shape == (100,)
        assert b.nbytes == 400
        assert m.live_bytes == 400

    def test_fill(self):
        b = self.make().alloc("x", 10, np.int32, fill=7)
        assert (b.data == 7).all()

    def test_capacity_enforced(self):
        m = self.make(cap=100)
        with pytest.raises(OutOfDeviceMemory):
            m.alloc("big", 1000, np.float64)

    def test_free_releases(self):
        m = self.make()
        b = m.alloc("x", 100, np.float32)
        m.free(b)
        assert m.live_bytes == 0
        assert b.freed

    def test_use_after_free_guarded(self):
        m = self.make()
        b = m.alloc("x", 4, np.float32)
        m.free(b)
        with pytest.raises(RuntimeError):
            b.view()

    def test_double_free_guarded(self):
        m = self.make()
        b = m.alloc("x", 4, np.float32)
        m.free(b)
        with pytest.raises(RuntimeError):
            m.free(b)

    def test_purpose_accounting(self):
        m = self.make()
        m.alloc("u", 100, np.float32, purpose=PURPOSE_USER)
        m.alloc("s", 50, np.float32, purpose=PURPOSE_SYSTEM)
        assert m.live_bytes_of(PURPOSE_USER) == 400
        assert m.live_bytes_of(PURPOSE_SYSTEM) == 200

    def test_high_water_survives_free(self):
        m = self.make()
        b = m.alloc("u", 100, np.float32)
        m.free(b)
        assert m.high_water_of(PURPOSE_USER) == 400
        assert m.live_bytes == 0

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError):
            self.make().alloc("x", 4, np.float32, purpose="wat")

    def test_free_all(self):
        m = self.make()
        m.alloc("a", 10, np.float32)
        m.alloc("b", 10, np.float32)
        m.free_all()
        assert m.live_bytes == 0


class TestDeviceTiming:
    def dev(self):
        return Device(0, TESLA_C2075)

    def test_launch_overhead_floor(self):
        t = self.dev().kernel_time(KernelWork(), LaunchConfig(1))
        assert t >= TESLA_C2075.launch_overhead

    def test_compute_bound_scales_with_flops(self):
        d = self.dev()
        cfg = LaunchConfig.for_tasks(1 << 20)
        t1 = d.kernel_time(KernelWork(flops=1e9), cfg)
        t2 = d.kernel_time(KernelWork(flops=2e9), cfg)
        assert t2 > t1
        assert (t2 - TESLA_C2075.launch_overhead) == pytest.approx(
            2 * (t1 - TESLA_C2075.launch_overhead))

    def test_roofline_max_not_sum(self):
        d = self.dev()
        cfg = LaunchConfig.for_tasks(1 << 20)
        t_c = d.kernel_time(KernelWork(flops=1e9), cfg)
        t_m = d.kernel_time(KernelWork(coalesced_bytes=1e9), cfg)
        t_both = d.kernel_time(
            KernelWork(flops=1e9, coalesced_bytes=1e9), cfg)
        assert t_both == pytest.approx(max(t_c, t_m), rel=1e-9)

    def test_random_slower_than_coalesced(self):
        d = self.dev()
        cfg = LaunchConfig.for_tasks(1 << 20)
        t_r = d.kernel_time(KernelWork(random_bytes=1e8), cfg)
        t_c = d.kernel_time(KernelWork(coalesced_bytes=1e8), cfg)
        assert t_r > t_c

    def test_small_grid_occupancy_penalty(self):
        d = self.dev()
        work = KernelWork(flops=1e8)
        t_small = d.kernel_time(work, LaunchConfig(grid_dim=2))
        t_big = d.kernel_time(work, LaunchConfig(grid_dim=256))
        assert t_small > t_big

    def test_serialization_factor(self):
        d = self.dev()
        cfg = LaunchConfig.for_tasks(1 << 20)
        t1 = d.kernel_time(KernelWork(flops=1e9), cfg)
        t2 = d.kernel_time(KernelWork(flops=1e9, serialization=2.0), cfg)
        assert t2 > t1

    def test_work_scaled(self):
        w = KernelWork(flops=2, coalesced_bytes=3).scaled(10)
        assert w.flops == 20 and w.coalesced_bytes == 30

    def test_work_add(self):
        w = KernelWork(flops=1, serialization=2.0) + KernelWork(flops=2)
        assert w.flops == 3 and w.serialization == 2.0

    def test_launch_config_for_tasks(self):
        cfg = LaunchConfig.for_tasks(1000, block_dim=256)
        assert cfg.grid_dim == 4
        assert LaunchConfig.for_tasks(0).grid_dim == 1


class TestBus:
    def make(self, machine=DESKTOP_MACHINE):
        clock = VirtualClock()
        return Bus(machine, clock), clock

    def test_h2d_duration(self):
        bus, clock = self.make()
        bus.h2d(0, 5_800_000)  # 1ms at 5.8 GB/s + latency
        dt = bus.sync()
        assert dt == pytest.approx(0.001 + bus.spec.latency, rel=1e-6)

    def test_zero_byte_transfer_free(self):
        bus, _ = self.make()
        t = bus.h2d(0, 0)
        assert t.seconds == 0.0

    def test_parallel_links_overlap(self):
        bus, _ = self.make()
        bus.h2d(0, 5_800_000)
        bus.h2d(1, 5_800_000)
        dt = bus.sync()
        # Desktop hub has 20 GB/s uplink: near-full overlap.
        assert dt < 0.0016

    def test_same_link_serializes(self):
        bus, _ = self.make()
        bus.h2d(0, 5_800_000)
        bus.h2d(0, 5_800_000)
        dt = bus.sync()
        assert dt > 0.002

    def test_hub_contention_on_supercomputer(self):
        bus, _ = self.make(SUPERCOMPUTER_NODE)
        # GPUs 0 and 1 share hub 0 (uplink 10 GB/s vs 5.6 per link).
        bus.h2d(0, 5_600_000)
        bus.h2d(1, 5_600_000)
        both = bus.sync()
        bus2, _ = self.make(SUPERCOMPUTER_NODE)
        bus2.h2d(0, 5_600_000)
        one = bus2.sync()
        assert both > one * 1.2

    def test_p2p_cross_hub_slower(self):
        bus, _ = self.make(SUPERCOMPUTER_NODE)
        bus.p2p(0, 1, 10_000_000)  # same hub
        same = bus.sync()
        bus.p2p(0, 2, 10_000_000)  # cross hub
        cross = bus.sync()
        assert cross > same * 1.5

    def test_p2p_same_device_rejected(self):
        bus, _ = self.make()
        with pytest.raises(ValueError):
            bus.p2p(0, 0, 4)

    def test_device_range_checked(self):
        bus, _ = self.make()
        with pytest.raises(ValueError):
            bus.h2d(5, 4)

    def test_categories(self):
        bus, clock = self.make()
        bus.h2d(0, 1000)
        bus.sync()
        assert clock.elapsed_in(CATEGORY_CPU_GPU) > 0
        bus.p2p(0, 1, 1000)
        bus.sync()
        assert clock.elapsed_in(CATEGORY_GPU_GPU) > 0

    def test_mixed_batch_requires_explicit_category(self):
        bus, _ = self.make()
        bus.h2d(0, 1000)
        bus.p2p(0, 1, 1000)
        with pytest.raises(ValueError):
            bus.sync()

    def test_bytes_moved(self):
        bus, _ = self.make()
        bus.h2d(0, 100)
        bus.d2h(0, 50)
        bus.sync()
        assert bus.bytes_moved() == 150
        assert bus.bytes_moved("h2d") == 100

    def test_sync_empty_is_zero(self):
        bus, _ = self.make()
        assert bus.sync() == 0.0


class TestPlatform:
    def test_kernels_overlap_across_devices(self):
        p = Platform(DESKTOP_MACHINE, 2)
        work = KernelWork(flops=1e9)
        cfg = LaunchConfig.for_tasks(1 << 20)
        t0 = p.launch(0, "k", lambda: None, (), work, cfg)
        p.launch(1, "k", lambda: None, (), work, cfg)
        total = p.sync_devices()
        assert total == pytest.approx(t0, rel=1e-6)

    def test_same_device_serializes(self):
        p = Platform(DESKTOP_MACHINE, 1)
        work = KernelWork(flops=1e9)
        cfg = LaunchConfig.for_tasks(1 << 20)
        t0 = p.launch(0, "k", lambda: None, (), work, cfg)
        p.launch(0, "k", lambda: None, (), work, cfg)
        total = p.sync_devices()
        assert total == pytest.approx(2 * t0, rel=1e-6)

    def test_launch_runs_fn(self):
        p = Platform(DESKTOP_MACHINE, 1)
        hit = []
        p.launch(0, "k", lambda x: hit.append(x), (42,),
                 KernelWork(flops=1), LaunchConfig(1))
        assert hit == [42]

    def test_memcpy_roundtrip(self):
        p = Platform(DESKTOP_MACHINE, 1)
        buf = p.malloc(0, "x", 16, np.float32)
        src = np.arange(16, dtype=np.float32)
        p.memcpy_h2d(buf, src)
        out = np.empty(16, dtype=np.float32)
        p.memcpy_d2h(out, buf)
        assert (out == src).all()
        assert p.elapsed() > 0

    def test_memcpy_p2p_slice(self):
        p = Platform(DESKTOP_MACHINE, 2)
        a = p.malloc(0, "a", 10, np.float32, fill=3)
        b = p.malloc(1, "b", 10, np.float32, fill=0)
        p.memcpy_p2p(b, a, dst_slice=slice(0, 5), src_slice=slice(5, 10))
        p.bus.sync()
        assert (b.data[:5] == 3).all() and (b.data[5:] == 0).all()

    def test_ngpus_validation(self):
        with pytest.raises(ValueError):
            Platform(DESKTOP_MACHINE, 3)
        with pytest.raises(ValueError):
            Platform(DESKTOP_MACHINE, 0)

    def test_memory_usage_sums_devices(self):
        p = Platform(DESKTOP_MACHINE, 2)
        p.malloc(0, "a", 100, np.float32)
        p.malloc(1, "b", 100, np.float32)
        assert p.memory_usage() == 800
        assert p.memory_usage(PURPOSE_USER) == 800

    def test_profiler_regions(self):
        p = Platform(DESKTOP_MACHINE, 1)
        prof = Profiler(p.clock)
        prof.begin_region()
        p.launch(0, "k", lambda: None, (), KernelWork(flops=1e9),
                 LaunchConfig.for_tasks(1 << 20))
        p.sync_devices()
        bd = prof.end_region()
        assert bd.kernels > 0 and bd.cpu_gpu == 0

    def test_breakdown_normalization(self):
        p = Platform(DESKTOP_MACHINE, 1)
        p.launch(0, "k", lambda: None, (), KernelWork(flops=1e9),
                 LaunchConfig.for_tasks(1 << 20))
        p.sync_devices()
        bd = p.profiler.snapshot()
        nb = bd.normalized_to(bd.total)
        assert nb.total == pytest.approx(1.0)
        with pytest.raises(ValueError):
            bd.normalized_to(0.0)
