"""Launch graphs: a replayed launch is the launch it replays.

``AccExecutor.run_loop`` records a synchronous launch whose every array
skipped its reload, and replays it while ``AccExecutor._graph_key``
returns the key it was recorded under.  The differential runs each
program twice -- once with that predicate stubbed to refuse every
launch, once as shipped -- and requires every observable to be equal,
floats compared as hex.  The soundness tests pin each way the key must
miss, and the count gate counts (never times) the calls a replayed
launch no longer makes.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.runtime.collectives import Transport
from repro.runtime.comm import CommunicationManager
from repro.runtime.context import AccExecutor
from repro.runtime.data_loader import DataLoader
from repro.translator.cost import KernelCostInfo
from repro.vcuda.bus import Bus
from repro.vcuda.device import LaunchConfig

from .test_launch_replay import SHIFTED_SRC, shifted_args

APPS = {**ALL_APPS, **EXTRA_APPS}


def no_graphs(monkeypatch):
    """Stub the capture predicate: every launch takes the enacted path."""
    monkeypatch.setattr(AccExecutor, "_graph_key", lambda self, *args: None)


def _hex(x):
    return float(x).hex()


def observables(run, args):
    """Everything a run shows: arrays, clocks, every transfer and launch,
    the profiler's loop stats and the loader's and comm's telemetry."""
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
        "loop_kernels": {k: (s.launches, [_hex(x) for x in s.busy_seconds],
                             s.iterations, s.calls)
                         for k, s in p.profiler.loop_kernels.items()},
        "loop_stats": [(s.kernel_name, s.tasks, _hex(s.kernel_seconds),
                        _hex(s.load_seconds), _hex(s.comm_seconds),
                        s.dyn_counts) for s in run.loop_stats],
        "loader": (ex.loader.loads, ex.loader.reloads_skipped),
        "ledger": dict(ex.comm.ledger),
        "transactions": ex.comm.transactions,
    }


def run_program(prog, entry, args, ngpus, machine=None, **flags):
    run = prog.run(entry, args, machine=machine or hypothetical_node(ngpus),
                   ngpus=ngpus, **flags)
    return run, observables(run, args)


def both_ways(monkeypatch, prog, entry, make_args, ngpus, **kw):
    """(replaying run, its observables, enacted observables)."""
    run, seen = run_program(prog, entry, make_args(), ngpus, **kw)
    with monkeypatch.context() as m:
        no_graphs(m)
        cold, cold_seen = run_program(prog, entry, make_args(), ngpus, **kw)
    assert cold.executor.graph_replays == 0
    return run, seen, cold_seen


# ---------------------------------------------------------------------------
# Differential: graphs on == graphs off, every observable.
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("ngpus", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", sorted(APPS))
    def test_bundled_app(self, monkeypatch, name, ngpus):
        spec = APPS[name]
        run, seen, cold = both_ways(monkeypatch, repro.compile(spec.source),
                                    spec.entry, lambda: spec.args_for("test"),
                                    ngpus)
        assert seen == cold

    def test_stream_shaped_jacobi(self, monkeypatch):
        spec = APPS["jacobi"]
        run, seen, cold = both_ways(
            monkeypatch, repro.compile(spec.source), spec.entry,
            lambda: spec.make_args(n=2 ** 17, maxiter=6), 4)
        assert run.executor.graph_replays > 0
        assert seen == cold

    def test_steady_loops_replay(self):
        spec = APPS["jacobi"]
        run, _ = run_program(repro.compile(spec.source), spec.entry,
                             spec.make_args(n=4096, maxiter=20, tol=1e-30), 8)
        # The update loop records at its first sweep (its arrays were
        # placed by the solve loop before it), the solve loop at its
        # second: every later launch of both replays.
        assert len(run.loop_stats) == 40
        assert run.executor.graph_replays == 37


# ---------------------------------------------------------------------------
# Soundness: every way the key must miss.
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


class TestKeyMisses:
    @pytest.mark.parametrize("hold,replays", [(1, 0), (3, 2)])
    def test_scalar_read_by_a_bound(self, monkeypatch, hold, replays):
        n, steps = 1000, 6
        run, seen, cold = both_ways(
            monkeypatch, repro.compile(SHIFTED_SRC), "shifted",
            lambda: shifted_args(n, steps, hold), 4)
        assert seen == cold
        # ``off`` moves on the launch after every ``hold``-th: that
        # launch reloads ``a`` although nothing in the layout changed
        # yet, so it must miss on the scalar alone.
        assert run.executor.graph_replays == replays
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

        run, seen, cold = both_ways(monkeypatch, repro.compile(RESPLIT_SRC),
                                    "resplit", make, 4)
        assert seen == cold
        # Launch 1 records and 2 replays; launch 3 runs 37 fewer
        # iterations (new bounds, new blocks) and must not replay; 4
        # records, 5 replays.
        assert run.executor.graph_replays == 2
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

        def switching(self, plan, lower, upper, host_env):
            calls[self] = calls.get(self, 0) + 1
            if calls[self] == 11:
                # What the adaptive advisor's demote/promote does.
                self.loader.note_placement_switch("x")
            return enacted(self, plan, lower, upper, host_env)

        monkeypatch.setattr(AccExecutor, "run_loop", switching)

        def make():
            return spec.make_args(n=4096, maxiter=10, tol=1e-30)

        run, seen, cold = both_ways(monkeypatch, prog, spec.entry, make, 4)
        assert seen == cold
        # The switch makes launch 11 (sweep 6's solve) miss and reload
        # ``x``; the new version makes the next launch of each loop
        # miss and record again: three more enacted launches than an
        # undisturbed run's three.
        assert run.executor.graph_replays == 20 - 3 - 3

    def test_dyn_counts_reprice(self, monkeypatch):
        n, steps = 1000, 6
        prog = repro.compile(GROW_SRC)

        def make():
            return {"n": n, "steps": steps,
                    "a": np.arange(n, dtype=np.float32),
                    "out": np.zeros(n, dtype=np.float32)}

        total = KernelCostInfo.total
        priced = []

        def counting_total(self, n_outer, dyn):
            priced.append(dict(dyn))
            return total(self, n_outer, dyn)

        monkeypatch.setattr(KernelCostInfo, "total", counting_total)
        run, seen, cold = both_ways(monkeypatch, prog, "grow", make, 4)
        assert seen == cold
        # Launch 1 loads and 2 records; the trip count ``m`` steps up at
        # launches 3 and 5, which replay and re-price; 4 and 6 replay at
        # the price 3 and 5 left in the graph.
        assert run.executor.graph_replays == 4
        assert [s[5][0]["L0"] for s in seen["loop_stats"]] == \
            [250, 250, 500, 500, 750, 750]
        # Per GPU: four pricings on the replaying run, six on the other.
        assert len(priced) == 4 * 4 + 4 * 6
        np.testing.assert_array_equal(
            np.frombuffer(seen["arrays"]["out"][1], dtype=np.float32),
            np.arange(n, dtype=np.float32) * (1 + 1 + 2 + 2 + 3 + 3))

    def test_replay_leaves_the_device_ahead(self, monkeypatch):
        # ``update host`` gathers ``a`` home between launches; the key
        # holds, so the next launch replays and must leave the device
        # copies newer than the host again, or the next update reads
        # nothing.
        steps = 5

        def make():
            return {"n": 1000, "steps": steps,
                    "a": np.zeros(1000, dtype=np.float32),
                    "last": np.zeros(steps, dtype=np.float32)}

        run, seen, cold = both_ways(monkeypatch, repro.compile(UPDATE_SRC),
                                    "probe", make, 4)
        assert seen == cold
        assert run.executor.graph_replays == steps - 2
        assert seen["arrays"]["last"][1] == \
            np.arange(1, steps + 1, dtype=np.float32).tobytes()

    @pytest.mark.parametrize("flags,machine", [
        (dict(trace=True), None),
        (dict(sanitize=True), None),
        (dict(overlap=True), None),
        (dict(adaptive=True), None),
        ({}, hypothetical_cluster(2, 2)),
    ], ids=["trace", "sanitize", "overlap", "adaptive", "multinode"])
    def test_no_replay(self, flags, machine):
        spec = APPS["jacobi"]
        run, _ = run_program(repro.compile(spec.source), spec.entry,
                             spec.make_args(n=1024, maxiter=6, tol=1e-30),
                             4, machine=machine, **flags)
        assert len(run.loop_stats) == 12
        assert run.executor.graph_replays == 0


# ---------------------------------------------------------------------------
# Count gate: a replayed launch prices, splits, routes and loads nothing.
# ---------------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    seen = dict.fromkeys(["total", "for_tasks", "duration", "pairs",
                          "ensure", "record"], 0)

    def count(owner, attr, label):
        orig = getattr(owner, attr)

        def counted(*args, **kw):
            seen[label] += 1
            return orig(*args, **kw)

        monkeypatch.setattr(owner, attr, counted)

    count(KernelCostInfo, "total", "total")
    count(Bus, "_duration", "duration")
    count(Transport, "pairs", "pairs")
    count(DataLoader, "ensure_for_loop", "ensure")
    count(CommunicationManager, "record_halos", "record")
    for_tasks = LaunchConfig.for_tasks.__func__

    def counted_for_tasks(cls, *args, **kw):
        seen["for_tasks"] += 1
        return for_tasks(cls, *args, **kw)

    monkeypatch.setattr(LaunchConfig, "for_tasks",
                        classmethod(counted_for_tasks))
    return seen


class TestCountGate:
    def jacobi(self, maxiter):
        spec = APPS["jacobi"]
        args = spec.make_args(n=4096, maxiter=maxiter, tol=1e-30)
        run = repro.compile(spec.source).run(
            spec.entry, args, machine=hypothetical_node(8), ngpus=8)
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
        # One recording per loop.
        assert after5["record"] == 2

    def test_loading_launches_record_nothing(self, calls):
        # phasepipe opens a data region around every launch, so every
        # launch loads: no launch leaves its key standing.
        spec = APPS["phasepipe"]
        run = repro.compile(spec.source).run(
            spec.entry, spec.args_for("test"), machine=hypothetical_node(4),
            ngpus=4)
        assert run.executor.loader.loads >= len(run.loop_stats) > 0
        assert calls["record"] == 0
