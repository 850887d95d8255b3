"""Runtime tests: kernel context, data loader, communication manager.

These exercise the loader/comm layers directly (below the compiler), so
failures localize to the runtime rather than codegen.
"""

import numpy as np
import pytest

from repro.runtime.comm import CommunicationManager
from repro.runtime.data_loader import DataEnvironmentError, DataLoader
from repro.runtime.dirty import TwoLevelDirty
from repro.runtime.kernelctx import KernelContext
from repro.runtime.partition import Block, split_tasks
from repro.runtime.writemiss import WriteMissBuffer
from repro.translator.array_config import (
    ArrayConfig,
    Placement,
    ReadWindow,
    WriteHandling,
)
from repro.frontend.parser import parse_expr
from repro.vcuda import DESKTOP_MACHINE, Platform, SUPERCOMPUTER_NODE
from repro.vcuda.memory import PURPOSE_SYSTEM, PURPOSE_USER


def stride_window(s=1, left=0, right=0):
    lo = parse_expr(f"{s}*i - {left}")
    hi = parse_expr(f"{s}*(i+1) - 1 + {right}")
    return ReadWindow(lower=lo, upper=hi)


def cfg(name, ctype="float", read=True, written=False,
        placement=Placement.REPLICA, handling=WriteHandling.NONE,
        window=None, reduction_op=None):
    return ArrayConfig(name=name, ctype=ctype, read=read, written=written,
                       placement=placement, write_handling=handling,
                       window=window, reduction_op=reduction_op)


class TestKernelContext:
    def test_mark_dirty_requires_tracker(self):
        ctx = KernelContext(0, 0, 4, arrays={"a": np.zeros(4)},
                            base={"a": 0})
        with pytest.raises(RuntimeError):
            ctx.mark_dirty("a", np.array([0]))

    def test_write_checked_hits_and_misses(self):
        arr = np.zeros(4, dtype=np.float32)
        miss = WriteMissBuffer("a", capacity=8)
        ctx = KernelContext(0, 0, 4, arrays={"a": arr}, base={"a": 4},
                            windows={"a": Block(4, 8)}, miss={"a": miss})
        ctx.write_checked("a", np.array([5, 9, 4]),
                          np.array([1.0, 2.0, 3.0]), "")
        assert arr[1] == 1.0 and arr[0] == 3.0
        assert miss.count == 1
        addrs, vals, _ = miss.drain()[0]
        assert addrs[0] == 9 and vals[0] == 2.0

    def test_write_checked_compound(self):
        arr = np.ones(4, dtype=np.float32)
        ctx = KernelContext(0, 0, 4, arrays={"a": arr}, base={"a": 0},
                            windows={"a": Block(0, 4)},
                            miss={"a": WriteMissBuffer("a", capacity=4)})
        ctx.write_checked("a", np.array([1, 1]), np.array([2.0, 3.0]), "+")
        assert arr[1] == pytest.approx(6.0)  # both updates accumulate

    def test_reduce_scalar_folds_multiple_calls(self):
        ctx = KernelContext(0, 0, 4)
        ctx.reduce_scalar("+", "s", 3.0)
        ctx.reduce_scalar("+", "s", 4.0)
        assert ctx.scalar_results["s"] == 7.0

    def test_reduce_to_array_bounds_checked(self):
        ctx = KernelContext(0, 0, 4,
                            reduction_arrays={"h": np.zeros(3)},
                            arrays={"h": np.zeros(3)}, base={"h": 0})
        with pytest.raises(IndexError):
            ctx.reduce_to_array("h", np.array([3]), np.array([1.0]), "+")

    def test_dyn_count_accumulates(self):
        ctx = KernelContext(0, 0, 4)
        ctx.dyn_count("L0", 5)
        ctx.dyn_count("L0", 7)
        assert ctx.dyn_counts["L0"] == 12

    def test_permissive_mode(self):
        arr = np.zeros(4, dtype=np.float32)
        ctx = KernelContext(0, 0, 4, arrays={"a": arr}, base={"a": 0},
                            permissive=True)
        ctx.mark_dirty("a", np.array([0]))  # no-op, no tracker
        ctx.write_checked("a", np.array([2]), np.array([9.0]), "")
        assert arr[2] == 9.0
        ctx.reduce_to_array("a", np.array([1]), np.array([4.0]), "+")
        assert arr[1] == 4.0


class TestDataLoaderRegions:
    def make(self, ngpus=2):
        p = Platform(DESKTOP_MACHINE, ngpus)
        return p, DataLoader(p)

    def test_region_entry_exit(self):
        p, dl = self.make()
        host = np.arange(8, dtype=np.float32)
        dl.enter_region([("a", host, "copy")])
        assert "a" in dl.arrays
        dl.exit_region()
        assert "a" not in dl.arrays

    def test_duplicate_name_rejected(self):
        p, dl = self.make()
        host = np.arange(8, dtype=np.float32)
        dl.enter_region([("a", host, "copy")])
        with pytest.raises(DataEnvironmentError):
            dl.enter_region([("a", host, "copyin")])

    def test_exit_without_entry_rejected(self):
        _, dl = self.make()
        with pytest.raises(DataEnvironmentError):
            dl.exit_region()

    def test_2d_array_rejected(self):
        _, dl = self.make()
        with pytest.raises(DataEnvironmentError):
            dl.enter_region([("m", np.zeros((3, 3), np.float32), "copy")])

    def test_update_of_absent_array_rejected(self):
        _, dl = self.make()
        with pytest.raises(DataEnvironmentError):
            dl.update_host(["ghost"])


class TestCopyOnWriteStaging:
    """The region-entry staging image is the host array itself until
    host code writes it; what the device sees must not change."""

    HOST_WRITE = """
    void k(int n, float *a, float *b) {
      #pragma acc data copyin(a[0:n]) copy(b[0:n])
      {
        a[0] = 99.0f;
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) { b[i] = a[i]; }
      }
    }
    """
    SHARED_BUFFER = """
    void k(int n, float *a, float *b, float *out) {
      #pragma acc data copy(a[0:n]) copyin(b[0:n]) copyout(out[0:n])
      {
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0f; }
        #pragma acc update host(a[0:n])
        ;
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) { out[i] = b[i]; }
      }
    }
    """

    UPDATE_THEN_WRITE = """
    void k(int n, float *a, float *out) {
      #pragma acc data %s(a[0:n]) copyout(out[0:n])
      {
        a[0] = 5.0f;
        #pragma acc update device(a[0:n])
        a[0] = 77.0f;
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) { out[i] = a[i]; }
      }
    }
    """
    SHARED_BUFFER_UPDATE = """
    void k(int n, float *a, float *b, float *out) {
      #pragma acc data copy(a[0:n]) copyin(b[0:n]) copyout(out[0:n])
      {
        #pragma acc update device(b[0:n])
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0f; }
        #pragma acc update host(a[0:n])
        ;
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) { out[i] = b[i]; }
      }
    }
    """

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_host_write_before_first_load_sees_entry_data(self, ngpus,
                                                           sanitize):
        import repro
        a = np.arange(8, dtype=np.float32) + 1
        args = {"n": 8, "a": a, "b": np.zeros(8, np.float32)}
        repro.compile(self.HOST_WRITE).run("k", args, ngpus=ngpus,
                                           sanitize=sanitize)
        assert a[0] == 99.0            # the host write happened
        assert args["b"][0] == 1.0     # the device loaded entry-time data

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_two_names_for_one_buffer(self, ngpus, sanitize):
        import repro
        buf = np.arange(8, dtype=np.float32)
        out = np.zeros(8, np.float32)
        repro.compile(self.SHARED_BUFFER).run(
            "k", {"n": 8, "a": buf, "b": buf, "out": out}, ngpus=ngpus,
            sanitize=sanitize)
        np.testing.assert_array_equal(buf, np.arange(8) + 1)
        # b was entered before a's writeback reached the shared buffer.
        np.testing.assert_array_equal(out, np.arange(8))

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("ngpus", [1, 2])
    @pytest.mark.parametrize("kind", ["create", "copyout", "copyin"])
    def test_host_write_after_update_device_sees_update_time_data(
            self, kind, ngpus, sanitize):
        import repro
        a = np.arange(8, dtype=np.float32)
        out = np.zeros(8, np.float32)
        repro.compile(self.UPDATE_THEN_WRITE % kind).run(
            "k", {"n": 8, "a": a, "out": out}, ngpus=ngpus,
            sanitize=sanitize)
        # update device fed the array, whatever its clause kind: the
        # later host write must not reach the deferred load.
        assert out[0] == 5.0

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_two_names_for_one_buffer_after_update_device(self, ngpus,
                                                           sanitize):
        import repro
        buf = np.arange(8, dtype=np.float32)
        out = np.zeros(8, np.float32)
        repro.compile(self.SHARED_BUFFER_UPDATE).run(
            "k", {"n": 8, "a": buf, "b": buf, "out": out}, ngpus=ngpus,
            sanitize=sanitize)
        np.testing.assert_array_equal(buf, np.arange(8) + 1)
        # update device(b) must leave b's image private to b.
        np.testing.assert_array_equal(out, np.arange(8))

    def make(self, kind):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.arange(8, dtype=np.float32)
        dl.enter_region([("a", host, kind)])
        return dl, dl.arrays["a"], host

    def test_entry_copies_nothing(self):
        _, ma, host = self.make("copy")
        assert ma.staging is host

    def test_host_write_detaches_update_device_reattaches(self):
        dl, ma, host = self.make("copyin")
        dl.before_host_write(host)
        host[0] = -1.0
        assert ma.staging is not host and ma.staging[0] == 0.0
        dl.update_device(["a"])
        assert ma.staging is host

    @pytest.mark.parametrize("kind", ["create", "copyout"])
    def test_arrays_never_read_from_the_host_never_snapshot(self, kind):
        dl, ma, host = self.make(kind)
        dl.before_host_write(host)
        assert ma.staging is host
        dl.update_device(["a"])  # now a load reads host data
        dl.before_host_write(host)
        assert ma.staging is not host

    def test_writeback_lands_in_host_and_snapshot(self):
        dl, ma, host = self.make("copy")
        dl.before_host_write(host)
        ma.store_home(2, 4, np.array([7.0, 8.0], np.float32))
        np.testing.assert_array_equal(host[2:4], [7, 8])
        np.testing.assert_array_equal(ma.snapshot[2:4], [7, 8])


class TestDataLoaderPlacement:
    def ensure(self, dl, configs, n, ngpus, scalars=None):
        tasks = split_tasks(0, n, ngpus)
        dl.ensure_for_loop(configs, tasks, "i", scalars or {})
        dl.platform.bus.sync() if dl.platform.bus.pending_count() else None

    def test_replica_loads_full_copies(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        self.ensure(dl, {"a": cfg("a")}, 10, 2)
        ma = dl.arrays["a"]
        for g in range(2):
            assert ma.blocks[g] == Block(0, 10)
            np.testing.assert_array_equal(ma.buffers[g].data, host)
        assert p.memory_usage(PURPOSE_USER) == 2 * host.nbytes

    def test_distribution_loads_blocks(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = cfg("a", placement=Placement.DISTRIBUTED, window=stride_window())
        self.ensure(dl, {"a": c}, 10, 2)
        ma = dl.arrays["a"]
        assert ma.blocks[0] == Block(0, 5)
        assert ma.blocks[1] == Block(5, 10)
        np.testing.assert_array_equal(ma.buffers[1].data, host[5:])
        assert p.memory_usage(PURPOSE_USER) == host.nbytes  # no replication

    def test_halo_blocks_overlap(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = cfg("a", placement=Placement.DISTRIBUTED,
                window=stride_window(1, 1, 1))
        self.ensure(dl, {"a": c}, 10, 2)
        ma = dl.arrays["a"]
        assert ma.blocks[0] == Block(0, 6)
        assert ma.blocks[1] == Block(4, 10)
        # Primary ownership still tiles the array.
        assert ma.primary[0].hi == ma.primary[1].lo

    def test_reload_skipped_when_signature_matches(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = cfg("a", placement=Placement.DISTRIBUTED, window=stride_window())
        self.ensure(dl, {"a": c}, 10, 2)
        loads_before = dl.loads
        self.ensure(dl, {"a": c}, 10, 2)
        assert dl.loads == loads_before
        assert dl.reloads_skipped == 1

    def test_reload_skipping_disabled(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p, reload_skipping=False)
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        c = cfg("a", placement=Placement.DISTRIBUTED, window=stride_window())
        self.ensure(dl, {"a": c}, 10, 2)
        self.ensure(dl, {"a": c}, 10, 2)
        assert dl.loads == 2 and dl.reloads_skipped == 0

    def test_placement_change_reloads(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.arange(10, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        self.ensure(dl, {"a": cfg("a", placement=Placement.DISTRIBUTED,
                                  window=stride_window())}, 10, 2)
        self.ensure(dl, {"a": cfg("a")}, 10, 2)  # replica now
        ma = dl.arrays["a"]
        assert ma.blocks[0] == Block(0, 10)
        assert dl.loads == 2

    def test_reduction_dest_filled_with_identity_no_h2d(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.full(6, 99.0, dtype=np.float32)
        dl.enter_region([("h", host, "copy")])
        c = cfg("h", written=True, handling=WriteHandling.REDUCTION,
                reduction_op="+")
        before = p.bus.bytes_moved("h2d")
        self.ensure(dl, {"h": c}, 6, 2)
        assert p.bus.bytes_moved("h2d") == before  # identity fill, no copy
        for g in range(2):
            assert (dl.arrays["h"].buffers[g].data == 0).all()

    def test_create_array_not_priced(self):
        p = Platform(DESKTOP_MACHINE, 1)
        dl = DataLoader(p)
        host = np.zeros(1000, dtype=np.float32)
        dl.enter_region([("t", host, "create")])
        self.ensure(dl, {"t": cfg("t")}, 1000, 1)
        assert p.bus.bytes_moved("h2d") == 0

    def test_update_host_writes_back(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.zeros(10, dtype=np.float32)
        dl.enter_region([("a", host, "copy")])
        c = cfg("a", written=True, placement=Placement.DISTRIBUTED,
                window=stride_window(),
                handling=WriteHandling.LOCAL_PROVEN)
        self.ensure(dl, {"a": c}, 10, 2)
        ma = dl.arrays["a"]
        ma.buffers[0].data[:] = 1.0
        ma.buffers[1].data[:] = 2.0
        ma.device_ahead = True
        dl.update_host(["a"])
        np.testing.assert_array_equal(host, [1] * 5 + [2] * 5)

    def test_copyout_on_exit(self):
        p = Platform(DESKTOP_MACHINE, 1)
        dl = DataLoader(p)
        host = np.zeros(4, dtype=np.float32)
        dl.enter_region([("a", host, "copy")])
        self.ensure(dl, {"a": cfg("a", written=True,
                                  handling=WriteHandling.DIRTY_BITS)}, 4, 1)
        dl.arrays["a"].buffers[0].data[:] = 7.0
        dl.arrays["a"].device_ahead = True
        dl.exit_region()
        assert (host == 7.0).all()

    def test_copyin_not_written_back(self):
        p = Platform(DESKTOP_MACHINE, 1)
        dl = DataLoader(p)
        host = np.zeros(4, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        self.ensure(dl, {"a": cfg("a")}, 4, 1)
        dl.arrays["a"].buffers[0].data[:] = 7.0
        dl.arrays["a"].device_ahead = True
        dl.exit_region()
        assert (host == 0.0).all()


class TestCommManager:
    def setup_replica(self, ngpus=2, n=32):
        p = Platform(DESKTOP_MACHINE, ngpus)
        dl = DataLoader(p, chunk_bytes=16)
        host = np.zeros(n, dtype=np.float32)
        dl.enter_region([("a", host, "copy")])
        c = cfg("a", written=True, handling=WriteHandling.DIRTY_BITS)
        dl.ensure_for_loop({"a": c}, split_tasks(0, n, ngpus), "i", {})
        p.bus.sync()
        return p, dl, CommunicationManager(p, dl), c

    def test_replica_propagation(self):
        p, dl, comm, c = self.setup_replica()
        ma = dl.arrays["a"]
        # GPU0 writes element 3, GPU1 writes element 20.
        ma.buffers[0].data[3] = 1.0
        ma.dirty[0].mark(np.array([3]))
        ma.buffers[1].data[20] = 2.0
        ma.dirty[1].mark(np.array([20]))
        comm.after_kernels({"a": c})
        for g in range(2):
            assert ma.buffers[g].data[3] == 1.0
            assert ma.buffers[g].data[20] == 2.0
        assert comm.bytes_replica > 0
        assert p.profiler.snapshot().gpu_gpu > 0
        # Dirty bits cleared for the next loop.
        assert not ma.dirty[0].any_dirty

    def test_replica_single_gpu_no_traffic(self):
        p, dl, comm, c = self.setup_replica(ngpus=1)
        ma = dl.arrays["a"]
        ma.buffers[0].data[3] = 1.0
        ma.dirty[0].mark(np.array([3]))
        comm.after_kernels({"a": c})
        assert comm.bytes_replica == 0
        assert not ma.dirty[0].any_dirty

    def test_chunk_granular_pricing(self):
        p, dl, comm, c = self.setup_replica(n=64)  # chunk = 4 elems
        ma = dl.arrays["a"]
        ma.dirty[0].mark(np.array([0]))  # 1 elem -> 1 chunk of 16B
        comm.after_kernels({"a": c})
        assert comm.bytes_replica == 16

    def setup_distributed(self, handling, window, ngpus=2, n=16):
        p = Platform(DESKTOP_MACHINE, ngpus)
        dl = DataLoader(p)
        host = np.zeros(n, dtype=np.float32)
        dl.enter_region([("a", host, "copy")])
        c = cfg("a", written=True, placement=Placement.DISTRIBUTED,
                window=window, handling=handling)
        dl.ensure_for_loop({"a": c}, split_tasks(0, n, ngpus), "i", {})
        p.bus.sync()
        return p, dl, CommunicationManager(p, dl), c

    def test_miss_routing(self):
        p, dl, comm, c = self.setup_distributed(
            WriteHandling.MISS_CHECK, stride_window())
        ma = dl.arrays["a"]
        # GPU0 missed a write destined for GPU1's block.
        ma.miss[0].record(np.array([12]), np.array([5.0]), "")
        comm.after_kernels({"a": c})
        assert ma.buffers[1].data[12 - ma.blocks[1].lo] == 5.0
        assert comm.bytes_miss > 0

    def test_halo_refresh(self):
        p, dl, comm, c = self.setup_distributed(
            WriteHandling.LOCAL_PROVEN, stride_window(1, 1, 1))
        ma = dl.arrays["a"]
        # GPU0 owns [0,8); its element 7 sits in GPU1's halo.
        ma.buffers[0].data[7 - ma.blocks[0].lo] = 3.0
        comm.after_kernels({"a": c})
        assert ma.buffers[1].data[7 - ma.blocks[1].lo] == 3.0
        assert comm.bytes_halo > 0

    def test_reduction_merge(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.full(4, 10.0, dtype=np.float32)
        dl.enter_region([("h", host, "copy")])
        c = cfg("h", written=True, handling=WriteHandling.REDUCTION,
                reduction_op="+")
        dl.ensure_for_loop({"h": c}, split_tasks(0, 4, 2), "i", {})
        comm = CommunicationManager(p, dl)
        ma = dl.arrays["h"]
        ma.buffers[0].data[:] = [1, 0, 0, 0]
        ma.buffers[1].data[:] = [0, 2, 0, 0]
        comm.after_kernels({"h": c})
        np.testing.assert_array_equal(host, [11, 12, 10, 10])
        np.testing.assert_array_equal(ma.buffers[0].data, host)
        np.testing.assert_array_equal(ma.buffers[1].data, host)
        assert comm.bytes_reduction == 2 * host.nbytes

    def test_reduction_merge_max(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        host = np.full(3, 5.0, dtype=np.float32)
        dl.enter_region([("h", host, "copy")])
        c = cfg("h", written=True, handling=WriteHandling.REDUCTION,
                reduction_op="max")
        dl.ensure_for_loop({"h": c}, split_tasks(0, 3, 2), "i", {})
        comm = CommunicationManager(p, dl)
        ma = dl.arrays["h"]
        ma.buffers[0].data[:] = [9, -np.inf, -np.inf]
        ma.buffers[1].data[:] = [-np.inf, 3, -np.inf]
        comm.after_kernels({"h": c})
        np.testing.assert_array_equal(host, [9, 5, 5])

    def test_cross_hub_halo_costs_more(self):
        # Same traffic, but on the supercomputer topology the GPU0<->GPU2
        # halo crosses the QPI.
        def run(machine, pair):
            p = Platform(machine, 3) if machine is SUPERCOMPUTER_NODE \
                else Platform(machine, 2)
            dl = DataLoader(p)
            host = np.zeros(30, dtype=np.float32)
            dl.enter_region([("a", host, "copy")])
            c = cfg("a", written=True, placement=Placement.DISTRIBUTED,
                    window=stride_window(1, 1, 1),
                    handling=WriteHandling.LOCAL_PROVEN)
            dl.ensure_for_loop({"a": c}, split_tasks(0, 30, p.ngpus), "i", {})
            p.bus.sync()
            comm = CommunicationManager(p, dl)
            comm.after_kernels({"a": c})
            return p.profiler.snapshot().gpu_gpu

        t_super = run(SUPERCOMPUTER_NODE, (1, 2))
        t_desk = run(DESKTOP_MACHINE, (0, 1))
        assert t_super > t_desk


class TestTreeReduction:
    def _merge_with(self, tree: bool, ngpus: int = 3):
        p = Platform(SUPERCOMPUTER_NODE, ngpus)
        dl = DataLoader(p)
        host = np.full(8, 1.0, dtype=np.float32)
        dl.enter_region([("h", host, "copy")])
        c = cfg("h", written=True, handling=WriteHandling.REDUCTION,
                reduction_op="+")
        dl.ensure_for_loop({"h": c}, split_tasks(0, 8, ngpus), "i", {})
        comm = CommunicationManager(p, dl, tree_reduction=tree)
        ma = dl.arrays["h"]
        for g in range(ngpus):
            ma.buffers[g].data[:] = float(g + 1)
        comm.after_kernels({"h": c})
        return host, ma, p

    def test_tree_and_flat_agree_functionally(self):
        h_tree, ma_t, _ = self._merge_with(True)
        h_flat, ma_f, _ = self._merge_with(False)
        np.testing.assert_array_equal(h_tree, h_flat)
        # 1 (initial) + 1 + 2 + 3 partials = 7.
        assert (h_tree == 7.0).all()
        for g in range(3):
            np.testing.assert_array_equal(ma_t.buffers[g].data, h_tree)

    def test_tree_faster_at_scale(self):
        from repro.bench.machines import hypothetical_node

        def gpu_gpu(tree):
            p = Platform(hypothetical_node(8), 8)
            dl = DataLoader(p)
            host = np.zeros(1 << 16, dtype=np.float32)
            dl.enter_region([("h", host, "copy")])
            c = cfg("h", written=True, handling=WriteHandling.REDUCTION,
                    reduction_op="+")
            dl.ensure_for_loop({"h": c}, split_tasks(0, 1 << 16, 8), "i", {})
            comm = CommunicationManager(p, dl, tree_reduction=tree)
            comm.after_kernels({"h": c})
            return p.profiler.snapshot().gpu_gpu

        assert gpu_gpu(True) < gpu_gpu(False)


class TestMachineHelpers:
    def test_machine_lookup(self):
        from repro.bench.machines import machine

        assert machine("desktop") is DESKTOP_MACHINE
        assert machine(DESKTOP_MACHINE) is DESKTOP_MACHINE
        with pytest.raises(KeyError):
            machine("mainframe")

    def test_hypothetical_node_hubs(self):
        from repro.bench.machines import hypothetical_node

        node = hypothetical_node(6, gpus_per_hub=3)
        assert node.gpu_count == 6
        assert node.hub_of(2) == 0 and node.hub_of(3) == 1
        with pytest.raises(ValueError):
            hypothetical_node(0)
