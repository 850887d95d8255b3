"""Priced launches: a launch priced from the per-plan memo is the
launch priced afresh.

Every launch runs ``AccExecutor.run_loop``'s one body; what it keeps
between launches of a plan is each GPU's priced ``GpuLaunch`` node
(``PlanMemo.nodes``), reused while the slice length and the trip counts
match.  The differential runs each program twice -- once with a stub
that hands every launch fresh nodes, once as shipped -- and requires
every observable to be equal, floats compared as hex.  The soundness
tests pin each way a launch must be priced again, and the count gate
counts (never times) the prices a launch no longer repeats.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.runtime.collectives import Transport
from repro.runtime.context import AccExecutor
from repro.translator.cost import KernelCostInfo
from repro.vcuda.bus import Bus
from repro.vcuda.device import LaunchConfig

from .test_launch_replay import SHIFTED_SRC, cold_nodes, shifted_args

APPS = {**ALL_APPS, **EXTRA_APPS}


def count_prices(monkeypatch):
    """Count, in the returned list's one entry, every launch priced
    (``KernelCostInfo.total`` calls)."""
    total = KernelCostInfo.total
    priced = [0]

    def counted(self, n_outer, dyn):
        priced[0] += 1
        return total(self, n_outer, dyn)

    monkeypatch.setattr(KernelCostInfo, "total", counted)
    return priced


def _hex(x):
    return float(x).hex()


def observables(run, args):
    """Everything a run shows: arrays, clocks, every transfer and launch,
    the loop stats and the loader's and comm's telemetry."""
    p, ex = run.platform, run.executor
    bus = p.bus
    return {
        "arrays": {k: (v.dtype.str, v.tobytes()) for k, v in args.items()
                   if isinstance(v, np.ndarray)},
        "value": run.value,
        "elapsed": _hex(run.elapsed),
        "breakdown": {k: _hex(v) for k, v in
                      dataclasses.asdict(run.breakdown).items()},
        "transfers": [(t.kind, t.nbytes, t.src_device, t.dst_device,
                       _hex(t.start), _hex(t.end), t.category)
                      for t in [*bus.completed, *bus.pending]],
        "launches": [[(r.kernel_name, r.device_index, r.config, r.work,
                       _hex(r.seconds), _hex(r.start)) for r in d.launches]
                     for d in p.devices],
        "loop_stats": [(s.kernel_name, s.tasks, _hex(s.kernel_seconds),
                        _hex(s.load_seconds), _hex(s.comm_seconds),
                        s.dyn_counts) for s in run.loop_stats],
        "loader": (ex.loader.loads, ex.loader.reloads_skipped),
        "ledger": dict(ex.comm.ledger),
        "transactions": ex.comm.transport.transactions,
    }


def run_program(prog, entry, args, ngpus, machine=None, **flags):
    run = prog.run(entry, args, machine=machine or hypothetical_node(ngpus),
                   ngpus=ngpus, **flags)
    return run, observables(run, args)


def both_ways(monkeypatch, prog, entry, make_args, ngpus, **kw):
    """(memo run, its observables, cold observables, and the launches
    each of the two runs priced)."""
    priced = count_prices(monkeypatch)
    run, seen = run_program(prog, entry, make_args(), ngpus, **kw)
    warm = priced[0]
    with monkeypatch.context() as m:
        cold_nodes(m)
        cold, cold_seen = run_program(prog, entry, make_args(), ngpus, **kw)
    # The stub defeated the memo: one price per non-empty slice.
    cold_priced = priced[0] - warm
    assert cold_priced == sum(t1 > t0 for s in cold.loop_stats
                              for t0, t1 in s.tasks)
    if kw.get("trace"):
        assert run.tracer.events == cold.tracer.events
    return run, seen, cold_seen, (warm, cold_priced)


# ---------------------------------------------------------------------------
# Differential: priced launches kept == priced afresh, every observable.
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("ngpus", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_bundled_app(self, monkeypatch, name, ngpus):
        spec = APPS[name]
        prog = repro.compile(spec.source)
        # A traced run prices from the memo too, and its events match.
        for flags in ({}, dict(trace=True)):
            _, seen, cold, (warm, priced) = both_ways(
                monkeypatch, prog, spec.entry, lambda: spec.args_for("test"),
                ngpus, **flags)
            assert seen == cold
            assert warm <= priced

    def test_stream_shaped_jacobi(self, monkeypatch):
        spec = APPS["jacobi"]
        run, seen, cold, (warm, priced) = both_ways(
            monkeypatch, repro.compile(spec.source), spec.entry,
            lambda: spec.make_args(n=2 ** 17, maxiter=6), 4)
        # Two loops on four GPUs, priced once each.
        assert (warm, priced) == (2 * 4, len(run.loop_stats) * 4)
        assert seen == cold


# ---------------------------------------------------------------------------
# Soundness: every way a launch must be priced again, or not.
# ---------------------------------------------------------------------------


RESPLIT_SRC = r"""
void resplit(int n, int steps, int at, float *a) {
  int m = n;
  #pragma acc data copy(a[0:n])
  {
    for (int s = 0; s < steps; s++) {
      #pragma acc parallel
      {
        #pragma acc localaccess a[stride(1)]
        #pragma acc loop gang
        for (int i = 0; i < m; i++) {
          a[i] = a[i] * 0.5f + 1.0f;
        }
      }
      if (s == at) { m = n - 37; }
    }
  }
}
"""

GROW_SRC = r"""
void grow(int n, int steps, float *a, float *out) {
  #pragma acc data copyin(a[0:n]) copy(out[0:n])
  {
    for (int s = 0; s < steps; s++) {
      int m = s / 2 + 1;
      #pragma acc parallel
      {
        #pragma acc localaccess a[stride(1)] out[stride(1)]
        #pragma acc loop gang
        for (int i = 0; i < n; i++) {
          float acc = 0.0f;
          for (int j = 0; j < m; j++) { acc = acc + a[i]; }
          out[i] = out[i] + acc;
        }
      }
    }
  }
}
"""


UPDATE_SRC = r"""
void probe(int n, int steps, float *a, float *last) {
  #pragma acc data copy(a[0:n])
  {
    for (int s = 0; s < steps; s++) {
      #pragma acc parallel
      {
        #pragma acc localaccess a[stride(1)]
        #pragma acc loop gang
        for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0f; }
      }
      #pragma acc update host(a[0:n])
      last[s] = a[n - 1];
    }
  }
}
"""


ALTERNATE_SRC = r"""
void alternate(int n, int steps, float *a, float *b, float *c) {
  #pragma acc data copy(a[0:n], b[0:n], c[0:n])
  {
    for (int s = 0; s < steps; s++) {
      if (s % 2 == 0) {
        #pragma acc update host(b[0:n])
        #pragma acc parallel
        {
          #pragma acc localaccess a[stride(1, 1, 1)]
          #pragma acc loop gang
          for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0f; }
        }
      } else {
        #pragma acc update host(a[0:n])
        #pragma acc parallel
        {
          #pragma acc localaccess b[stride(1, 3, 3)]
          #pragma acc loop gang
          for (int i = 0; i < n; i++) { b[i] = b[i] * 0.5f; }
        }
      }
      #pragma acc parallel
      {
        #pragma acc localaccess a[stride(1, 1, 1)] b[stride(1, 3, 3)] c[stride(1)]
        #pragma acc loop gang
        for (int i = 0; i < n; i++) {
          if (i >= 3 && i < n - 3) {
            c[i] = c[i] + a[i - 1] + a[i + 1] + b[i - 3] + b[i + 3];
          }
        }
      }
    }
  }
}
"""


class TestKeyMisses:
    @pytest.mark.parametrize("hold,skips", [(1, 0), (3, 2)])
    def test_scalar_read_by_a_bound(self, monkeypatch, hold, skips):
        n, steps = 1000, 6
        run, seen, cold, priced = both_ways(
            monkeypatch, repro.compile(SHIFTED_SRC), "shifted",
            lambda: shifted_args(n, steps, hold), 4)
        assert seen == cold
        # ``off`` moves on the launch after every ``hold``-th: that
        # launch reloads ``a`` although nothing in the layout changed
        # yet, and the ``skips`` launches that keep ``off`` skip it;
        # ``out`` skips after its first load.  The slices never change,
        # so each GPU prices once.
        loader = run.executor.loader
        assert loader.reloads_skipped == (steps - 1) + \
            (steps // hold) * skips
        assert priced == (4, steps * 4)
        a = shifted_args(n, steps, hold)["a"]
        expect = np.zeros(n, dtype=np.float32)
        for s in range(steps):
            off = 3 * (s // hold)
            expect = expect + a[off:off + n]
        assert seen["arrays"]["out"][1] == expect.tobytes()

    def test_resplit_misses(self, monkeypatch):
        n, steps, at = 1000, 6, 2

        def make():
            return {"n": n, "steps": steps, "at": at,
                    "a": np.linspace(0, 1, n, dtype=np.float32)}

        run, seen, cold, priced = both_ways(
            monkeypatch, repro.compile(RESPLIT_SRC), "resplit", make, 4)
        assert seen == cold
        # Launch 4 runs 37 fewer iterations: every GPU's slice is
        # shorter, so every GPU prices again, once.
        assert [s.tasks for s in run.loop_stats].count(
            run.loop_stats[0].tasks) == at + 1
        assert priced == (4 + 4, steps * 4)
        a = make()["a"]
        for s in range(steps):
            m = n if s <= at else n - 37
            a[:m] = a[:m] * np.float32(0.5) + np.float32(1.0)
        assert seen["arrays"]["a"][1] == a.tobytes()

    def test_placement_switch_misses(self, monkeypatch):
        spec = APPS["jacobi"]
        prog = repro.compile(spec.source)
        enacted = AccExecutor.run_loop
        calls = {}

        reloaded = []

        def switching(self, plan, lower, upper, host_env):
            calls[self] = calls.get(self, 0) + 1
            if calls[self] != 11:
                return enacted(self, plan, lower, upper, host_env)
            # What the adaptive advisor's demote/promote does.
            self.loader.note_placement_switch("x")
            loads = self.loader.loads
            stats = enacted(self, plan, lower, upper, host_env)
            reloaded.append(self.loader.loads - loads)
            return stats

        monkeypatch.setattr(AccExecutor, "run_loop", switching)

        def make():
            return spec.make_args(n=4096, maxiter=10, tol=1e-30)

        run, seen, cold, priced = both_ways(monkeypatch, prog, spec.entry,
                                            make, 4)
        assert seen == cold
        # The switch makes launch 11 (sweep 6's solve) reload ``x``, in
        # either run; a price does not read the placement, so each loop
        # still prices once per GPU.
        assert reloaded == [1, 1]
        assert priced == (2 * 4, 20 * 4)

    def test_dyn_counts_reprice(self, monkeypatch):
        n, steps = 1000, 6
        prog = repro.compile(GROW_SRC)

        def make():
            return {"n": n, "steps": steps,
                    "a": np.arange(n, dtype=np.float32),
                    "out": np.zeros(n, dtype=np.float32)}

        run, seen, cold, priced = both_ways(monkeypatch, prog, "grow",
                                            make, 4)
        assert seen == cold
        # The trip count ``m`` steps up at launches 3 and 5, which
        # price again; 2, 4 and 6 reuse the price the launch before
        # left.
        assert [s[5][0]["L0"] for s in seen["loop_stats"]] == \
            [250, 250, 500, 500, 750, 750]
        # Per GPU: three pricings with the memo, six without.
        assert priced == (3 * 4, 6 * 4)
        np.testing.assert_array_equal(
            np.frombuffer(seen["arrays"]["out"][1], dtype=np.float32),
            np.arange(n, dtype=np.float32) * (1 + 1 + 2 + 2 + 3 + 3))

    def test_overlap_split_reprices_its_halves(self, monkeypatch):
        # The sum loop waits on ``a``'s halos (one element a side) after
        # an even sweep and on ``b``'s (three a side) after an odd one:
        # the same slices split at other boundary widths, so the halves
        # are priced again while the whole launch's price stands.
        n, steps = 1000, 6

        def make():
            return {"n": n, "steps": steps,
                    "a": np.arange(n, dtype=np.float32),
                    "b": np.ones(n, dtype=np.float32),
                    "c": np.zeros(n, dtype=np.float32)}

        run, seen, cold, priced = both_ways(
            monkeypatch, repro.compile(ALTERNATE_SRC), "alternate", make,
            4, overlap=True)
        assert seen == cold
        bnd = {r.work.flops for d in run.platform.devices
               for r in d.launches if r.kernel_name.endswith("_L2[bnd]")}
        assert len(bnd) > 1
        assert priced == (3 * 4, 2 * steps * 4)

    def test_replay_leaves_the_device_ahead(self, monkeypatch):
        # ``update host`` gathers ``a`` home between launches; the next
        # launch skips its reload and must leave the device copies
        # newer than the host again, or the next update reads nothing.
        steps = 5

        def make():
            return {"n": 1000, "steps": steps,
                    "a": np.zeros(1000, dtype=np.float32),
                    "last": np.zeros(steps, dtype=np.float32)}

        run, seen, cold, priced = both_ways(
            monkeypatch, repro.compile(UPDATE_SRC), "probe", make, 4)
        assert seen == cold
        assert priced == (4, steps * 4)
        assert seen["arrays"]["last"][1] == \
            np.arange(1, steps + 1, dtype=np.float32).tobytes()


# ---------------------------------------------------------------------------
# Count gate: a steady launch prices, splits and routes nothing again.
# ---------------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    seen = dict.fromkeys(["total", "for_tasks", "duration", "pairs"], 0)

    def count(owner, attr, label):
        orig = getattr(owner, attr)

        def counted(*args, **kw):
            seen[label] += 1
            return orig(*args, **kw)

        monkeypatch.setattr(owner, attr, counted)

    count(KernelCostInfo, "total", "total")
    count(Bus, "_duration", "duration")
    count(Transport, "route", "pairs")
    for_tasks = LaunchConfig.for_tasks.__func__

    def counted_for_tasks(cls, *args, **kw):
        seen["for_tasks"] += 1
        return for_tasks(cls, *args, **kw)

    monkeypatch.setattr(LaunchConfig, "for_tasks",
                        classmethod(counted_for_tasks))
    return seen


class TestCountGate:
    def jacobi(self, maxiter, n=4096, machine=None, **flags):
        spec = APPS["jacobi"]
        args = spec.make_args(n=n, maxiter=maxiter, tol=1e-30)
        run = repro.compile(spec.source).run(
            spec.entry, args, machine=machine or hypothetical_node(8),
            ngpus=8, **flags)
        assert args["iters"][0] == maxiter
        return run

    def test_calls_independent_of_sweep_count(self, calls):
        run5 = self.jacobi(5)
        after5 = dict(calls)
        run20 = self.jacobi(20)
        after20 = {k: calls[k] - after5[k] for k in calls}
        assert run20.kernel_launches == 4 * run5.kernel_launches
        assert all(after5.values()), after5
        assert after20 == after5

    @pytest.mark.parametrize("flags,machine", [
        ({}, None),
        (dict(overlap=True), None),
        (dict(trace=True), None),
        (dict(sanitize=True), None),
        (dict(adaptive=True), None),
        (dict(overlap=True, collective="auto"),
         lambda: hypothetical_cluster(2, 4)),
    ], ids=["default", "overlap", "trace", "sanitize", "adaptive",
            "cluster_overlap_auto"])
    def test_prices_independent_of_sweep_count(self, calls, flags, machine):
        # Every mode runs the one launch path, so every mode prices each
        # GPU's launch -- and, with overlap, its interior/boundary
        # halves -- once per slice and trip counts, not once per launch.
        seen = []
        for maxiter in (5, 20):
            self.jacobi(maxiter, 1024, machine and machine(), **flags)
            seen.append((calls["total"], calls["for_tasks"]))
            calls["total"] = calls["for_tasks"] = 0
        assert seen[0][0] > 0
        assert seen[1] == seen[0]

    @pytest.mark.parametrize("flags,machine", [
        (dict(overlap=True), lambda: hypothetical_node(8)),
        ({}, lambda: hypothetical_cluster(2, 4)),
        (dict(collective="auto"), lambda: hypothetical_cluster(2, 4)),
    ], ids=["overlap", "cluster", "cluster_auto"])
    def test_enacted_launches_price_no_peer_copy_again(
            self, monkeypatch, calls, flags, machine):
        # Every launch runs the halo step: its peer copies keep the
        # prices their layout's route took, so neither pricing nor
        # routing grows with the sweeps.
        price = Bus.price_transfer
        peer = [0]

        def counted(self, kind, *args):
            peer[0] += kind == "p2p"
            return price(self, kind, *args)

        monkeypatch.setattr(Bus, "price_transfer", counted)
        seen = []
        for maxiter in (5, 20):
            run = self.jacobi(maxiter, machine=machine(), **flags)
            assert run.executor.comm.bytes_halo > 0
            seen.append((peer[0], calls["pairs"]))
            peer[0] = calls["pairs"] = 0
        assert seen[0][1] > 0
        assert seen[1] == seen[0]
