"""Steady-state launch replay: what is derived once per layout, and
when it must be derived again.

Two derivations used to run on every launch and now run once per
layout: the per-GPU blocks of a ``localaccess`` window
(:meth:`DataLoader._window_blocks`) and the halo exchange schedule of a
distributed array (:meth:`CommunicationManager._derive_halo_plan`).
The budget test counts them -- counts, not seconds -- and the
soundness tests pin every way a replay could go stale.
"""

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.frontend.parser import parse_expr
from repro.runtime import partition
from repro.runtime.comm import CommunicationManager
from repro.runtime.config import RunConfig
from repro.runtime.context import AccExecutor
from repro.runtime.data_loader import DataLoader
from repro.runtime.partition import Block
from repro.translator.array_config import (
    ArrayConfig,
    Placement,
    ReadWindow,
    WriteHandling,
)
from repro.vcuda import Platform

APPS = {**ALL_APPS, **EXTRA_APPS}


def count_bound_calls(monkeypatch, seen):
    """Count, in ``seen["eval"]``, every call of a compiled window bound
    (:func:`repro.runtime.partition.window_bounds` hands them out)."""
    bounds = partition.window_bounds

    def counting_bounds(window, loop_var):
        def counted(fn):
            def bound(i, E):
                seen["eval"] += 1
                return fn(i, E)
            return bound
        return tuple(map(counted, bounds(window, loop_var)))

    monkeypatch.setattr(partition, "window_bounds", counting_bounds)


@pytest.fixture
def counts(monkeypatch):
    """Count window-bound evaluations and halo-plan derivations."""
    seen = {"eval": 0, "halo": 0}
    count_bound_calls(monkeypatch, seen)
    derive = CommunicationManager._derive_halo_plan

    def counting_derive(self, ma):
        seen["halo"] += 1
        return derive(self, ma)

    monkeypatch.setattr(CommunicationManager, "_derive_halo_plan",
                        counting_derive)
    return seen


def cold_nodes(monkeypatch):
    """Stub the memo's priced launches: every launch prices afresh."""
    memo = AccExecutor._memo

    def cold_memo(self, plan):
        found = memo(self, plan)
        found.nodes[:] = [None] * len(found.nodes)
        return found

    monkeypatch.setattr(AccExecutor, "_memo", cold_memo)


def forget_every_launch(monkeypatch):
    """Disable both replays: every launch derives from scratch, and
    prices its launches afresh."""
    cold_nodes(monkeypatch)
    window_blocks = DataLoader._window_blocks
    refresh_halos = CommunicationManager._refresh_halos
    propagate = CommunicationManager._propagate_dirty_windowed

    def cold_window_blocks(self, *args):
        self._window_memo.clear()
        return window_blocks(self, *args)

    def cold_refresh_halos(self, ma):
        ma.halo_plan = None
        return refresh_halos(self, ma)

    def cold_propagate(self, ma):
        ma.windowed_plan = None
        return propagate(self, ma)

    monkeypatch.setattr(DataLoader, "_window_blocks", cold_window_blocks)
    monkeypatch.setattr(CommunicationManager, "_refresh_halos",
                        cold_refresh_halos)
    monkeypatch.setattr(CommunicationManager, "_propagate_dirty_windowed",
                        cold_propagate)


def run_app(name, params, ngpus, machine=None, **flags):
    spec = APPS[name]
    args = spec.make_args(**params)
    run = repro.compile(spec.source).run(
        spec.entry, args, machine=machine or hypothetical_node(max(ngpus, 1)),
        ngpus=ngpus, **flags)
    outs = {k: np.array(args[k]) for k in spec.outputs}
    return run, outs


# ---------------------------------------------------------------------------
# The per-launch budget (ROADMAP 1b): derivation counts do not grow with
# the number of sweeps.
# ---------------------------------------------------------------------------


class TestLaunchBudget:
    def jacobi(self, maxiter, machine=None, **flags):
        # tol=1e-30 sweeps exactly ``maxiter`` rounds (tol=0 never
        # enters the loop: err starts at 2*tol).
        return run_app("jacobi", dict(n=4096, maxiter=maxiter, tol=1e-30),
                       8, machine, **flags)

    def test_derivations_are_independent_of_sweep_count(self, counts):
        run5, outs5 = self.jacobi(5)
        after5 = dict(counts)
        run20, outs20 = self.jacobi(20)
        after20 = {k: counts[k] - after5[k] for k in counts}
        assert outs5["iters"][0] == 5 and outs20["iters"][0] == 20
        assert run20.kernel_launches == 4 * run5.kernel_launches
        assert after5["eval"] > 0 and after5["halo"] > 0
        assert after20 == after5

    def test_replay_changes_no_observable(self, counts, monkeypatch):
        self.warm_and_cold(counts, monkeypatch)

    @pytest.mark.parametrize("flags,machine", [
        (dict(overlap=True), None),
        (dict(collective="auto"), lambda: hypothetical_cluster(2, 4)),
    ], ids=["overlap", "cluster_auto"])
    def test_cached_route_changes_no_observable(self, counts, monkeypatch,
                                                flags, machine):
        # No launch replays here: what the warm run keeps and the cold
        # run rebuilds is the layout's halo copies and route.
        self.warm_and_cold(counts, monkeypatch, machine, **flags)

    def warm_and_cold(self, counts, monkeypatch, machine=None, **flags):
        run, outs = self.jacobi(20, machine and machine(), **flags)
        warm = dict(counts)
        forget_every_launch(monkeypatch)
        cold_run, cold_outs = self.jacobi(20, machine and machine(), **flags)
        cold = {k: counts[k] - warm[k] for k in counts}
        # The monkeypatch really did defeat the replay ...
        assert cold["eval"] > 10 * warm["eval"]
        assert cold["halo"] > 10 * warm["halo"]
        # ... and nothing observable moved.
        for name in outs:
            np.testing.assert_array_equal(outs[name], cold_outs[name])
        assert run.elapsed == cold_run.elapsed
        assert run.platform.bus.bytes_moved() == \
            cold_run.platform.bus.bytes_moved()
        assert run.executor.loader.reloads_skipped == \
            cold_run.executor.loader.reloads_skipped
        assert transfers(run) == transfers(cold_run)
        for attr in ("ledger", "transactions", "bytes_internode"):
            assert getattr(run.executor.comm, attr) == \
                getattr(cold_run.executor.comm, attr), attr


def transfers(run):
    """Every transfer of ``run`` with its times as hex."""
    bus = run.platform.bus
    return [(t.kind, t.nbytes, t.src_device, t.dst_device,
             float(t.start).hex(), float(t.end).hex())
            for t in [*bus.completed, *bus.pending]]


# ---------------------------------------------------------------------------
# Soundness (a): a host scalar read by a window bound is part of the key.
# ---------------------------------------------------------------------------

SHIFTED_SRC = r"""
void shifted(int n, int steps, int hold, float *a, float *out) {
  int off = 0;
  #pragma acc data copyin(a[0:n + 3 * steps]) copy(out[0:n])
  {
    for (int s = 0; s < steps; s++) {
      #pragma acc parallel
      {
        #pragma acc localaccess a[bounds(i + off, i + off)] out[stride(1)]
        #pragma acc loop gang
        for (int i = 0; i < n; i++) {
          out[i] = out[i] + a[i + off];
        }
      }
      if (s % hold == hold - 1) { off = off + 3; }
    }
  }
}
"""


def shifted_args(n, steps, hold):
    rng = np.random.default_rng(7)
    return {"n": n, "steps": steps, "hold": hold,
            "a": rng.standard_normal(n + 3 * steps).astype(np.float32),
            "out": np.zeros(n, dtype=np.float32)}


class TestScalarInBound:
    @pytest.mark.parametrize("hold", [1, 3])
    def test_updated_offset_reloads_new_blocks(self, counts, hold):
        n, steps = 1000, 6
        prog = repro.compile(SHIFTED_SRC)
        outs, runs = {}, {}
        for ngpus in (1, 4):
            args = shifted_args(n, steps, hold)
            runs[ngpus] = prog.run("shifted", args,
                                   machine=hypothetical_node(4), ngpus=ngpus)
            outs[ngpus] = args["out"].copy()
        np.testing.assert_array_equal(outs[1], outs[4])
        expect = np.zeros(n, dtype=np.float32)
        a = shifted_args(n, steps, hold)["a"]
        for s in range(steps):
            off = 3 * (s // hold)
            expect = expect + a[off:off + n]
        np.testing.assert_array_equal(outs[4], expect)
        loader = runs[4].executor.loader
        # ``a`` is placed afresh for every distinct ``off`` and skipped
        # while ``off`` holds; ``out`` loads once.
        distinct = len({s // hold for s in range(steps)})
        assert loader.loads == distinct + 1
        assert loader.reloads_skipped == 2 * steps - loader.loads

    def test_value_type_is_part_of_the_key(self):
        # 1 == 1.0 in Python, but ``i / k`` is C integer division for an
        # int ``k`` (truncated toward zero) and real division for a float
        # one.
        p = Platform(hypothetical_node(2), 2)
        dl = DataLoader(p)
        dl.enter_region([("a", np.zeros(64, dtype=np.float32), "copyin")])
        w = ReadWindow(lower=parse_expr("0"),
                       upper=parse_expr("((0 - i) / k) * (0 - 20)"))
        cfg = ArrayConfig(name="a", ctype="float", read=True,
                          placement=Placement.DISTRIBUTED, window=w)
        tasks = [(1, 2), (2, 2)]
        dl.ensure_for_loop({"a": cfg}, tasks, "i", {"k": 2})
        assert dl.arrays["a"].blocks[0] == Block(0, 1)    # -1 / 2 == 0
        dl.ensure_for_loop({"a": cfg}, tasks, "i", {"k": 2.0})
        assert dl.arrays["a"].blocks[0] == Block(0, 11)   # -1 / 2.0 == -0.5


# ---------------------------------------------------------------------------
# Soundness (b): a bound that subscripts a host array is never replayed.
# ---------------------------------------------------------------------------


class TestHostArrayBound:
    def test_evaluator_runs_on_every_launch(self, counts):
        p = Platform(hypothetical_node(2), 2)
        dl = DataLoader(p)
        row = np.array([0, 2, 4, 6, 8], dtype=np.int32)
        col = np.arange(8, dtype=np.int32)
        dl.enter_region([("row", row, "copyin"), ("col", col, "copyin")])
        w = ReadWindow(lower=parse_expr("row[i]"),
                       upper=parse_expr("row[i + 1] - 1"))
        cfg = ArrayConfig(name="col", ctype="int", read=True,
                          placement=Placement.DISTRIBUTED, window=w)
        tasks = [(0, 2), (2, 4)]
        per_launch = []
        for _ in range(3):
            before = counts["eval"]
            dl.ensure_for_loop({"col": cfg}, tasks, "i", {})
            per_launch.append(counts["eval"] - before)
        assert per_launch[0] > 0
        assert per_launch == [per_launch[0]] * 3
        assert dl.arrays["col"].blocks == [Block(0, 4), Block(4, 8)]
        # The host array's contents are not in any key: a change shows.
        row[2] = 5
        dl.ensure_for_loop({"col": cfg}, tasks, "i", {})
        assert dl.arrays["col"].blocks == [Block(0, 5), Block(5, 8)]

    def test_bfs_bit_identical_across_gpu_counts(self, counts):
        outs = {}
        for ngpus in (1, 2, 4):
            before = counts["eval"]
            run, outs[ngpus] = run_app("bfs", APPS["bfs"].workloads["tiny"]
                                       .params, ngpus)
            launches = run.kernel_launches // ngpus
            # Four endpoint evaluations per GPU per launch at the very
            # least: nothing was replayed.
            assert counts["eval"] - before >= 4 * ngpus * launches
        for ngpus in (2, 4):
            for name, ref in outs[1].items():
                np.testing.assert_array_equal(outs[ngpus][name], ref)


# ---------------------------------------------------------------------------
# Soundness (c): a resplit and a placement switch both miss and rebuild
# the halo plan against the new buffers.
# ---------------------------------------------------------------------------


def halo_cfg(name):
    w = ReadWindow(lower=parse_expr("i - 1"), upper=parse_expr("i + 1"))
    return ArrayConfig(name=name, ctype="float", read=True, written=True,
                       placement=Placement.DISTRIBUTED, window=w,
                       write_handling=WriteHandling.LOCAL_PROVEN)


class TestLayoutChange:
    def step(self, dl, comm, cfg, tasks):
        """One launch: load, 'kernel' (every owner rewrites its primary
        block), coherence step; then check every copy is coherent."""
        dl.ensure_for_loop({"a": cfg}, tasks, "i", {})
        if dl.platform.bus.pending_count():
            dl.platform.bus.sync()
        ma = dl.arrays["a"]
        self.stamp += 1
        truth = np.empty(ma.length, dtype=np.float32)
        for g, buf in enumerate(ma.buffers):
            prim = ma.primary[g].intersect(ma.blocks[g])
            lo = prim.lo - ma.blocks[g].lo
            buf.data[lo:lo + prim.size] = self.stamp * 100 + g
            truth[prim.lo:prim.hi] = self.stamp * 100 + g
        comm.after_kernels({"a": cfg})
        for g, buf in enumerate(ma.buffers):
            blk = ma.blocks[g]
            np.testing.assert_array_equal(buf.data, truth[blk.lo:blk.hi])

    def test_resplit_and_placement_switch_rebuild(self, counts):
        self.stamp = 0
        p = Platform(hypothetical_node(4), 4)
        dl = DataLoader(p, RunConfig(adaptive=True))
        comm = CommunicationManager(p, dl)
        dl.enter_region([("a", np.zeros(400, dtype=np.float32), "copy")])
        cfg = halo_cfg("a")
        even = [(0, 100), (100, 200), (200, 300), (300, 400)]
        self.step(dl, comm, cfg, even)
        first = dict(counts)
        assert first["eval"] > 0 and first["halo"] == 1
        self.step(dl, comm, cfg, even)
        self.step(dl, comm, cfg, even)
        assert counts == first                      # steady state: replay
        # The balancer resplits: new tasks miss the window memo, the
        # migration replaces the buffers, the halo plan follows.
        skew = [(0, 160), (160, 240), (240, 320), (320, 400)]
        self.step(dl, comm, cfg, skew)
        assert dl.migrations == 1
        assert counts["eval"] == 2 * first["eval"] and counts["halo"] == 2
        self.step(dl, comm, cfg, skew)
        assert counts["halo"] == 2
        # The advisor switches the placement: same blocks, but the
        # layout is rebuilt, so the plan's views must be too.
        dl.note_placement_switch("a")
        self.step(dl, comm, cfg, skew)
        assert counts["halo"] == 3
        self.step(dl, comm, cfg, skew)
        assert counts["halo"] == 3


# ---------------------------------------------------------------------------
# Soundness (d): cached views never outlive a poisoned buffer.
# ---------------------------------------------------------------------------


class TestSanitized:
    @pytest.mark.parametrize("name,params,flags", [
        ("jacobi", dict(n=512, maxiter=6, tol=1e-30), {}),
        ("phasepipe", dict(n=512, off=5, steps=2),
         dict(overlap=True, coalesce=True)),
    ])
    def test_sanitized_run_is_clean(self, name, params, flags):
        # sanitize=True poisons freed device buffers and raises
        # CoherenceViolation on the first stale read.
        run, outs = run_app(name, params, 4, sanitize=True, **flags)
        assert run.sanitizer.loops_checked > 0
        plain, plain_outs = run_app(name, params, 4, **flags)
        for k in outs:
            np.testing.assert_array_equal(outs[k], plain_outs[k])
        assert run.elapsed == plain.elapsed


# ---------------------------------------------------------------------------
# Device.busy_intervals: the cursor is an optimisation, not a contract.
# ---------------------------------------------------------------------------


class TestBusyIntervalsCursor:
    def test_matches_full_scan_for_any_query_order(self):
        from repro.vcuda.device import KernelWork, LaunchConfig

        dev = Platform(hypothetical_node(1), 1).devices[0]
        t = 0.0
        for k in range(20):
            rec = dev.record_launch("k", KernelWork(flops=1),
                                    LaunchConfig(1), 0.5 + (k % 3))
            rec.start = t + (k % 2)          # gaps between some launches
            t = dev.busy_until = rec.end
        full = [(l.start, l.end) for l in dev.launches]
        for since in (0.0, 3.0, 3.0, 11.25, full[-1][1], 7.5, 0.0, 100.0):
            assert dev.busy_intervals(since) == \
                [iv for iv in full if iv[1] > since]
        assert len(dev.launches) == 20      # history stays intact
