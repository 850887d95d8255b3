"""Multi-GPU coherence sanitizer tests.

Three angles: clean programs stay clean (every paper app on 1/2/4
GPUs, static and adaptive, no violation and unchanged results);
seeded coherence bugs are caught with the right localization; and the
sanitizer is a pure observer (off by default, zero modeled-time
perturbation when on).
"""

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_node
from repro.runtime import comm as comm_mod
from repro.runtime.data_loader import DataLoader
from repro.runtime.dirty import TwoLevelDirty
from repro.sanitizer import CoherenceViolation, Sanitizer
from repro.sanitizer.audit import LocalAccessAuditor
from repro.sanitizer.oracle import ShadowOracle, global_view
from repro.translator.array_config import ArrayConfig
from repro.vcuda import DESKTOP_MACHINE, Platform
from tests.interp_oracle import interpreter_for
from tests.util import run_source

APPS = {**ALL_APPS, **EXTRA_APPS}

STEP = r"""
void step(int n, float *x, float *y) {
  #pragma acc data copyin(x[0:n]) copy(y[0:n])
  {
    #pragma acc parallel
    {
      #pragma acc loop gang
      for (int i = 0; i < n; i++) { y[i] = x[i] + 1.0f; }
    }
    #pragma acc parallel
    {
      #pragma acc loop gang
      for (int i = 0; i < n; i++) { y[i] = y[i] * 2.0f; }
    }
  }
}
"""


def step_args(n=64):
    return {"n": n, "x": np.arange(n, dtype=np.float32),
            "y": np.zeros(n, dtype=np.float32)}


def run_app(name, ngpus, adaptive=False, sanitize=True):
    spec = APPS[name]
    prog = repro.compile(spec.source)
    machine = "desktop" if ngpus <= 2 else hypothetical_node(ngpus)
    args = spec.args_for("tiny")
    snap = spec.snapshot(args)
    run = prog.run(spec.entry, args, machine=machine, ngpus=ngpus,
                   sanitize=sanitize, adaptive=adaptive)
    spec.check(args, snap)
    return run


class TestCleanApps:
    """Acceptance sweep: all paper apps run violation-free sanitized."""

    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("ngpus", [1, 2, 4])
    def test_static(self, app, ngpus):
        run = run_app(app, ngpus)
        assert run.sanitizer is not None
        assert run.sanitizer.loops_checked > 0
        assert run.sanitizer.oracle.elements_compared > 0

    @pytest.mark.parametrize("app", ["bfs", "jacobi", "kmeans"])
    def test_adaptive(self, app):
        run = run_app(app, 4, adaptive=True)
        assert run.sanitizer.loops_checked > 0

    def test_localaccess_apps_are_audited(self):
        # BFS declares user localaccess windows on row and col: the
        # auditor must actually have exercised them.
        run = run_app("bfs", 2)
        assert run.sanitizer.auditor.audited > 0


class TestOptIn:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _, run = run_source(STEP, step_args(), ngpus=2)
        assert run.sanitizer is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _, run = run_source(STEP, step_args(), ngpus=2)
        assert run.sanitizer is not None
        assert run.sanitizer.loops_checked == 2

    def test_env_var_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        _, run = run_source(STEP, step_args(), ngpus=2)
        assert run.sanitizer is None

    def test_explicit_kwarg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _, run = run_source(STEP, step_args(), ngpus=2, sanitize=False)
        assert run.sanitizer is None


class TestPureObserver:
    """The sanitizer works purely in data space: identical results and
    identical modeled time with it on or off."""

    def test_results_and_time_unperturbed(self):
        base_args, base = run_source(STEP, step_args(), ngpus=2)
        san_args, san = run_source(STEP, step_args(), ngpus=2,
                                   sanitize=True)
        np.testing.assert_array_equal(san_args["y"], base_args["y"])
        assert san.elapsed == base.elapsed
        assert san.breakdown.total == base.breakdown.total

    @pytest.mark.parametrize("app", ["md", "stencil", "heat2d"])
    def test_apps_time_unperturbed(self, app):
        base = run_app(app, 2, sanitize=False)
        san = run_app(app, 2, sanitize=True)
        assert base.sanitizer is None
        assert san.elapsed == base.elapsed


class TestLocalAccessAudit:
    UNDER = r"""
    void step(int n, float *x, float *y) {
      #pragma acc data copyin(x[0:n]) copy(y[0:n])
      {
        #pragma acc parallel
        {
          #pragma acc localaccess x[stride(1, 0, 0)] y[stride(1, 0, 0)]
          #pragma acc loop gang
          for (int i = 0; i < n - 1; i++) {
            y[i] = x[i] + x[i + 1];
          }
        }
      }
    }
    """

    def test_under_declared_window_reported(self):
        with pytest.raises(CoherenceViolation) as exc:
            run_source(self.UNDER, step_args(), ngpus=2, sanitize=True)
        e = exc.value
        assert e.kind == "localaccess-underdeclared"
        assert e.loop == "step_L0"
        assert e.array == "x"
        # The offending per-iteration range: i reads [i, i+1] but
        # declared only [i, i].
        assert (e.lo, e.hi) == (0, 1)
        assert "declared localaccess window" in e.detail

    TRIPS = r"""
    void trips(int n, int m, float *x, float *y) {
      #pragma acc data copyin(x[0:n*m+1]) copy(y[0:n])
      {
        #pragma acc parallel
        {
          #pragma acc localaccess x[stride(m)] y[stride(1)]
          #pragma acc loop gang
          for (int i = 0; i < n; i++) {
            float s = 0.0f;
            for (int q = 0; q < m; q++) {
              s += x[i * m + q + 1];
            }
            y[i] = s;
          }
        }
      }
    }
    """

    @pytest.mark.parametrize("ngpus", [1, 2, 4])
    def test_constant_trip_loop_reading_past_its_window(self, ngpus):
        """Every trip of the inner loop reads one element further than
        ``stride(m)`` declares: iteration 0 reads ``x[1..3]`` against
        the window ``[0, 2]``, whatever the trip loop's lowering."""
        args = {"n": 12, "m": 3, "x": np.arange(37, dtype=np.float32),
                "y": np.zeros(12, np.float32)}
        machine = "desktop" if ngpus <= 2 else hypothetical_node(4)
        with pytest.raises(CoherenceViolation) as exc:
            run_source(self.TRIPS, args, ngpus=ngpus, machine=machine,
                       sanitize=True)
        e = exc.value
        assert (e.kind, e.loop, e.array, e.lo, e.hi) == (
            "localaccess-underdeclared", "trips_L0", "x", 1, 3)
        assert e.detail.startswith(
            "iteration 0 accessed [1, 3] but the declared localaccess "
            "window is [0, 2];")

    def test_correct_window_passes(self):
        ok = self.UNDER.replace("x[stride(1, 0, 0)]", "x[stride(1, 0, 1)]")
        args, run = run_source(ok, step_args(), ngpus=2, sanitize=True)
        assert run.sanitizer.auditor.audited > 0
        np.testing.assert_allclose(
            args["y"][:-1],
            np.arange(64, dtype=np.float32)[:-1] * 2 + 1)


class TestFaultInjection:
    """Seeded runtime bugs must be caught, with the right diagnosis.

    The seeded bugs live in the replica-propagation machinery, so STEP
    compiles with infer=False here -- by default localaccess inference
    would distribute its arrays and never take the broken paths.
    """

    NO_INFER = repro.CompileOptions(infer=False)

    def test_unmarked_write_caught(self, monkeypatch):
        # Suppress both marking entry points: span-qualified stores mark
        # through mark_span, everything else through mark.
        monkeypatch.setattr(TwoLevelDirty, "mark",
                            lambda self, idx: None)
        monkeypatch.setattr(TwoLevelDirty, "mark_span",
                            lambda self, lo, hi: None)
        with pytest.raises(CoherenceViolation) as exc:
            run_source(STEP, step_args(), ngpus=2, sanitize=True,
                       options=self.NO_INFER)
        e = exc.value
        assert e.kind == "dirty-unmarked"
        assert e.array == "y"
        assert e.transfer == "replica-broadcast"
        assert e.chunk is not None

    def test_skipped_propagation_caught(self, monkeypatch):
        monkeypatch.setattr(
            comm_mod.CommunicationManager, "_propagate_replica",
            lambda self, ma: None)
        with pytest.raises(CoherenceViolation) as exc:
            run_source(STEP, step_args(), ngpus=2, sanitize=True,
                       options=self.NO_INFER)
        assert exc.value.kind == "dirty-uncleared"

    def test_dataless_propagation_caught(self, monkeypatch):
        # Clears the dirty bits but never ships the data: the replicas
        # disagree after the communication phase.
        def hollow(self, ma):
            for t in ma.dirty:
                if t is not None:
                    t.clear()

        monkeypatch.setattr(
            comm_mod.CommunicationManager, "_propagate_replica", hollow)
        with pytest.raises(CoherenceViolation) as exc:
            run_source(STEP, step_args(), ngpus=2, sanitize=True,
                       options=self.NO_INFER)
        assert exc.value.kind in ("replica-divergence", "result-divergence")
        assert exc.value.array == "y"
        assert exc.value.gpu is not None

    def test_scalar_reduction_divergence_caught(self, monkeypatch):
        from repro.runtime import reduction_rt

        SUM = r"""
        void total(int n, float *x, float *s) {
          float acc = 0.0f;
          #pragma acc parallel loop reduction(+:acc)
          for (int i = 0; i < n; i++) { acc += x[i]; }
          s[0] = acc;
        }
        """
        orig = reduction_rt.finalize_scalar_reductions

        def skewed(platform, results, ops, host_env):
            out = orig(platform, results, ops, host_env)
            for name in out:
                host_env[name] = host_env[name] + 1.0
            return out

        monkeypatch.setattr(reduction_rt, "finalize_scalar_reductions",
                            skewed)
        monkeypatch.setattr("repro.runtime.context.finalize_scalar_reductions",
                            skewed)
        with pytest.raises(CoherenceViolation) as exc:
            run_source(SUM, {"n": 32,
                             "x": np.ones(32, np.float32),
                             "s": np.zeros(1, np.float32)},
                       ngpus=2, sanitize=True)
        assert exc.value.kind == "scalar-divergence"
        assert exc.value.array == "acc"


class TestStaleReloadSkip:
    def test_corrupted_buffer_behind_skip_caught(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        dl.sanitizer = Sanitizer(dl)
        host = np.arange(32, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        cfg = {"a": ArrayConfig(name="a", ctype="float", read=True)}
        tasks = [(0, 16), (16, 32)]
        dl.ensure_for_loop(cfg, tasks, "i", {})
        p.bus.sync()
        # Corrupt one replica behind the loader's back; the next
        # ensure() would skip the reload (same signature) and trust it.
        dl.arrays["a"].buffers[0].data[3] = -99.0
        with pytest.raises(CoherenceViolation) as exc:
            dl.ensure_for_loop(cfg, tasks, "i", {})
        assert exc.value.kind == "stale-reload-skip"
        assert exc.value.array == "a"

    def test_valid_skip_passes(self):
        p = Platform(DESKTOP_MACHINE, 2)
        dl = DataLoader(p)
        dl.sanitizer = Sanitizer(dl)
        host = np.arange(32, dtype=np.float32)
        dl.enter_region([("a", host, "copyin")])
        cfg = {"a": ArrayConfig(name="a", ctype="float", read=True)}
        tasks = [(0, 16), (16, 32)]
        dl.ensure_for_loop(cfg, tasks, "i", {})
        p.bus.sync()
        skipped0 = dl.reloads_skipped
        dl.ensure_for_loop(cfg, tasks, "i", {})
        assert dl.reloads_skipped == skipped0 + 1


class TestViolationFormatting:
    def test_message_carries_localization(self):
        e = CoherenceViolation("result-divergence", loop="jacobi_L0",
                              array="u", gpu=1, lo=128, hi=128, chunk=2,
                              transfer="replica-broadcast",
                              detail="expected 1.0, got 0.0")
        msg = str(e)
        for piece in ("[result-divergence]", "loop 'jacobi_L0'",
                      "array 'u'", "gpu 1", "elements [128, 128]",
                      "chunk 2", "via replica-broadcast",
                      "expected 1.0, got 0.0"):
            assert piece in msg

    def test_minimal_violation(self):
        e = CoherenceViolation("oracle-failure", detail="boom")
        assert e.kind == "oracle-failure"
        assert str(e) == "coherence violation [oracle-failure]: boom"


class TestZeroLengthPrograms:
    """Satellite regression: empty and single-element arrays flow
    through partitioning, dirty tracking and the sanitizer."""

    SRC = r"""
    void k(int n, float *x, float *y) {
      #pragma acc data copyin(x[0:n]) copy(y[0:n])
      {
        #pragma acc parallel loop
        for (int i = 0; i < n; i++) { y[i] = x[i] * 2.0f; }
      }
    }
    """

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("ngpus", [1, 2, 4])
    def test_tiny_arrays_sanitized(self, n, ngpus):
        machine = "desktop" if ngpus <= 2 else hypothetical_node(ngpus)
        args, run = run_source(self.SRC, {
            "n": n, "x": np.arange(n, dtype=np.float32),
            "y": np.zeros(n, dtype=np.float32)},
            ngpus=ngpus, machine=machine, sanitize=True)
        np.testing.assert_array_equal(
            args["y"], np.arange(n, dtype=np.float32) * 2)
        assert run.sanitizer.loops_checked == 1


class TestShadowFault:
    """A kernel-support fault in the shadow run is an ``oracle-failure``
    naming the loop, the GPU and the slice, chained to the fault -- not
    a bare ``IndexError`` about the shadow's full-length copy."""

    SHIFT = r"""
    void shift(int n, float *x, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) { if (x[i] > 0.5f) { y[i - 2] = x[i]; } }
    }
    """

    @pytest.mark.parametrize("ngpus", [1, 2, 4])
    def test_negative_store_is_an_oracle_failure(self, ngpus):
        x = np.zeros(8, np.float32)
        x[0] = 1.0
        with pytest.raises(CoherenceViolation) as exc:
            run_source(self.SHIFT, {"n": 8, "x": x,
                                    "y": np.arange(8, dtype=np.float32)},
                       ngpus=ngpus, machine=hypothetical_node(4),
                       sanitize=True)
        e = exc.value
        assert (e.kind, e.loop, e.gpu) == ("oracle-failure", "shift_L0", 0)
        assert f"slice [0, {8 // ngpus})" in e.detail
        assert isinstance(e.__cause__, IndexError)
        assert "store index -2" in str(e.__cause__)


def record_spans(monkeypatch, prog):
    """Run-time hook: per audited loop, ``(loop, audit, oracle)`` -- the
    spans the sanitizer's audit records, and the spans the interpreter
    oracle records through ``access_hook`` over the same shadow slices."""
    prepare = ShadowOracle.prepare
    rows = []

    def both(self, plan, configs, tasks, host_env, access_hook=None):
        if access_hook is None:
            return prepare(self, plan, configs, tasks, host_env)
        audit_hook, audit = LocalAccessAuditor(self.loader).recorder(configs)
        oracle_hook, oracle = LocalAccessAuditor(self.loader).recorder(
            configs)
        pre = {name: global_view(self.loader._get(name)) for name in configs}
        interp = interpreter_for(prog.compiled, plan)
        for t0, t1 in tasks:
            ctx = self._shadow_context(plan, configs, pre, host_env, t0, t1)
            ctx.access_hook = oracle_hook
            interp.run(ctx)

        def hook(*access):
            access_hook(*access)
            audit_hook(*access)

        rows.append((plan.name, audit, oracle))
        return prepare(self, plan, configs, tasks, host_env, hook)

    monkeypatch.setattr(ShadowOracle, "prepare", both)
    return rows


#: Loads the kernel text performs under a data-dependent predicate:
#: ``bfs_L0`` loads ``row[i]`` and ``row[i + 1]`` on every lane, and its
#: ``levels[i] == level`` guard only selects the rows whose edges it
#: flattens.  The interpreter reads them where the guard holds.
GUARDED_LOADS = {("bfs_L0", "row"): lambda it: [it, it + 1]}


class TestAuditParity:
    """The audit launches the generated kernel one iteration at a time;
    it records what the interpreter recorded, except for loads under a
    data-dependent predicate that is false for the iteration."""

    @pytest.mark.parametrize("ngpus", [1, 2, 4])
    @pytest.mark.parametrize("app,fuse", [
        *((app, False) for app in sorted(APPS)),
        ("gradpipe", True), ("phasepipe", True)])
    def test_audit_records_the_interpreters_spans(self, monkeypatch, app,
                                                  fuse, ngpus):
        spec = APPS[app]
        prog = repro.compile(spec.source, repro.CompileOptions(fuse=fuse))
        rows = record_spans(monkeypatch, prog)
        prog.run(spec.entry, spec.args_for("tiny"),
                 machine=hypothetical_node(4), ngpus=ngpus, sanitize=True)
        assert any(any(audit.values()) for _, audit, _ in rows)
        fused = [g.fused.name for g in prog.compiled.fusion_groups]
        assert bool(fused) == fuse
        assert set(fused) <= {loop for loop, _, _ in rows}
        for loop, audit, oracle in rows:
            for name, spans in audit.items():
                guarded = GUARDED_LOADS.get((loop, name))
                if guarded is None:
                    assert spans == oracle[name], (loop, name)
                    continue
                assert {it: spans[it] for it in oracle[name]} == oracle[name]
                for it in spans.keys() - oracle[name].keys():
                    assert spans[it] == guarded(it), (loop, name, it)

    GUARDED = r"""
    void k(int n, float *x, float *y, float *z) {
      #pragma acc localaccess z[stride(1)]
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        if (x[i] > 0.0f) { y[i] = z[i + 2]; }
      }
    }
    """

    def test_declared_window_sees_a_load_under_a_false_predicate(
            self, monkeypatch):
        """``z[i + 2]`` is outside ``z``'s declared window, and the
        predicate is false everywhere: the interpreter never reads it,
        the kernel loads it on every lane.  The audit reports the load
        an under-declaration; an inferred window cannot, as inference
        widens over every read, guarded or not."""
        prog = repro.compile(self.GUARDED)
        rows = record_spans(monkeypatch, prog)
        args = {"n": 6, "x": np.zeros(6, np.float32),
                "y": np.zeros(6, np.float32), "z": np.ones(8, np.float32)}
        with pytest.raises(CoherenceViolation) as exc:
            prog.run("k", args, machine="desktop", ngpus=2, sanitize=True)
        e = exc.value
        assert (e.kind, e.array, e.lo, e.hi) == (
            "localaccess-underdeclared", "z", 2, 2)
        (_, audit, oracle), = rows
        assert audit["z"][0] == [2, 2] and oracle["z"] == {}
