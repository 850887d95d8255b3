"""Automatic ``localaccess`` inference tests.

Window synthesis over every affine subscript shape the analysis tests
exercise, the write-safety and bail-out rules, explicit-directive
precedence, the ``infer=False`` escape hatch, cross-loop window
harmonization, differential runs (inferred vs hand-annotated must be
bit-identical with identical golden-trace summaries), a sanitized fuzz
sweep on 1/2/4 GPUs, and the ``repro.explain`` reports.
"""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import repro
from repro.apps import stencil
from repro.bench.machines import hypothetical_node
from repro.explain import ExplainReport, explain, main as explain_main
from repro.frontend import cast as C
from repro.frontend.analysis import analyze_loop, normalize_loop
from repro.frontend.parser import parse
from repro.runtime.partition import (
    Block,
    primary_blocks,
    split_tasks,
)
from repro.sanitizer.violations import CoherenceViolation
from repro.trace.golden import normalize
from repro.translator.array_config import Placement, WriteHandling
from repro.translator.compiler import CompileOptions, compile_source
from repro.translator.infer import (
    equivalent_stride_clause,
    infer_array_window,
    primary_safe_offsets,
    static_window_span,
    window_from_span,
)
from tests.util import run_source

_SETTINGS = dict(max_examples=25, deadline=None, database=None)


def _case_seed(case_id: str) -> int:
    digest = hashlib.sha256(case_id.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def usage_of(body, array="a"):
    """Analyze a one-loop function and return one array's usage."""
    src = f"""
    void f(int n, int m, int j, float *a, float *y, int *k) {{
      for (int i = 0; i < n; i++) {{ {body} }}
    }}
    """
    prog = parse(src)
    loop = next(s for s in C.walk(prog.functions[0].body)
                if isinstance(s, C.For))
    nest = normalize_loop(loop)
    analysis = analyze_loop(nest, {"a", "y", "k"}, {"n", "m", "j", "i"})
    return analysis.arrays[array]


def infer(body, array="a", **kw):
    return infer_array_window(usage_of(body, array), "i", **kw)


def strip_localaccess(source):
    return re.sub(r"^.*#pragma acc localaccess.*\n", "", source,
                  flags=re.MULTILINE)


def machine_for(ngpus):
    return "desktop" if ngpus <= 2 else hypothetical_node(ngpus)


# ---------------------------------------------------------------------------
# Window synthesis over the affine shapes (mirrors TestAffine fixtures)
# ---------------------------------------------------------------------------


class TestWindowSynthesis:
    def test_plain_var(self):
        d = infer("y[i] = a[i];")
        assert d.adopted and d.span == (1, 0, 0)

    def test_constant_subscript(self):
        # Read-only constant window: legal (coeff 0, a range window).
        d = infer("y[i] = a[7];")
        assert d.adopted and d.span == (0, 7, 7)

    def test_linear(self):
        d = infer("y[i] = a[3 * i + 2];")
        assert d.adopted and d.span == (3, 2, 2)

    def test_var_times_const_on_left(self):
        d = infer("y[i] = a[i * 4];")
        assert d.adopted and d.span == (4, 0, 0)

    def test_nested_parens(self):
        d = infer("y[i] = a[2 * (i + 3)];")
        assert d.adopted and d.span == (2, 6, 6)

    def test_envelope_widens_over_all_reads(self):
        d = infer("y[i] = a[i - 1] + a[i + 1] + a[i + 4];")
        assert d.adopted and d.span == (1, -1, 4)
        assert equivalent_stride_clause(d.span) == "stride(1, 1, 4)"

    def test_symbolic_offset_bails(self):
        d = infer("y[i] = a[2 * i - j];")
        assert not d.adopted and "symbolic read" in d.reason

    def test_negated_var_bails(self):
        d = infer("y[i] = a[-i + 8];")
        assert not d.adopted and "negative read stride" in d.reason

    def test_symbolic_coefficient_bails(self):
        d = infer("y[i] = a[i * n];")
        assert not d.adopted and "non-affine" in d.reason

    def test_quadratic_bails(self):
        d = infer("y[i] = a[i * i];")
        assert not d.adopted and "non-affine" in d.reason

    def test_division_of_var_bails(self):
        d = infer("y[i] = a[i / 2];")
        assert not d.adopted and "non-affine" in d.reason

    def test_var_free_division_is_symbolic_offset(self):
        d = infer("y[i] = a[n / 2];")
        assert not d.adopted and "symbolic read" in d.reason

    def test_data_dependent_subscript_bails(self):
        d = infer("y[i] = a[k[i]];")
        assert not d.adopted and "data-dependent read" in d.reason

    def test_mixed_strides_bail(self):
        d = infer("y[i] = a[i] + a[2 * i];")
        assert not d.adopted and "mixed read strides" in d.reason

    def test_reduction_target_bails(self):
        d = infer("y[i] = a[i];", is_reduction_target=True)
        assert not d.adopted and "reductiontoarray" in d.reason

    def test_window_expression_form(self):
        d = infer("y[i] = a[2 * i + 3];")
        w = d.window
        assert w.origin == "inferred" and w.spec is None
        assert static_window_span(w, "i") == (2, 3, 3)

    def test_stride_clause_round_trip(self):
        # The suggested clause re-declares exactly the inferred span.
        for span in [(1, -1, 1), (1, 0, 0), (3, 2, 2), (2, -4, 5)]:
            clause = equivalent_stride_clause(span)
            src = f"""
            void f(int n, float *a, float *y) {{
              #pragma acc parallel loop
              #pragma acc localaccess a[{clause}]
              for (int i = 0; i < n; i++) {{ y[i] = a[i]; }}
            }}
            """
            cp = compile_source(src)
            cfg = cp.plans[0].config.arrays["a"]
            assert static_window_span(cfg.window, "i") == span, span


class TestWriteRules:
    def test_write_only_infers_from_writes(self):
        d = infer("a[i] = 1.0f;")
        assert d.adopted and d.source == "writes" and d.span == (1, 0, 0)

    def test_symmetric_read_write(self):
        d = infer("a[i] = a[i - 1] + a[i + 1];")
        assert d.adopted and d.span == (1, -1, 1)

    def test_write_outside_read_window_bails(self):
        d = infer("y[i] = a[i]; a[i + 2] = y[i];")
        assert not d.adopted
        assert "outside the inferred read window" in d.reason

    def test_write_outside_primary_safe_band_bails(self):
        # Window [i, i+5] puts the ownership cut so that offset 5 of a
        # boundary iteration lands in the next GPU's primary block.
        d = infer("y[i] = a[i] + a[i + 5]; a[i + 5] = y[i];")
        assert not d.adopted
        assert "primary-safe band" in d.reason

    def test_constant_window_write_bails(self):
        d = infer("a[0] = 1.0f;")
        assert not d.adopted and "cross-GPU write race" in d.reason

    def test_data_dependent_write_bails(self):
        d = infer("a[k[i]] = 1.0f;")
        assert not d.adopted and "data-dependent write" in d.reason

    def test_elision_disabled_bails_written_arrays(self):
        d = infer("a[i] = 1.0f;", elide_write_checks=False)
        assert not d.adopted and "elision disabled" in d.reason
        # Read-only arrays are unaffected by the elision switch.
        d = infer("y[i] = a[i];", elide_write_checks=False)
        assert d.adopted

    def test_adopted_writes_classify_local_proven(self):
        src = """
        void f(int n, float *a, float *b) {
          #pragma acc parallel loop
          for (int i = 1; i < n - 1; i++) { b[i] = a[i - 1] + a[i + 1]; }
        }
        """
        cp = compile_source(src)
        cfg = cp.plans[0].config.arrays["b"]
        assert cfg.placement == Placement.DISTRIBUTED
        assert cfg.window_origin == "inferred"
        assert cfg.write_handling == WriteHandling.LOCAL_PROVEN


class TestPrimarySafeBand:
    def test_known_values(self):
        assert primary_safe_offsets(1, -1, 1) == (0, 0)
        assert primary_safe_offsets(1, 0, 0) == (0, 0)
        assert primary_safe_offsets(3, 2, 2) == (1, 3)

    def test_band_matches_runtime_partitioner(self):
        # Every offset the formula declares safe must land in the
        # writing GPU's primary block under the *actual* runtime
        # partitioning, for every split the scheduler can produce.
        for coeff, lo, hi in [(1, -1, 1), (1, 0, 0), (1, -2, 3),
                              (2, 0, 1), (3, -1, 4), (2, -3, 3)]:
            safe_lo, safe_hi = primary_safe_offsets(coeff, lo, hi)
            band = [b for b in range(lo, hi + 1) if safe_lo <= b <= safe_hi]
            assert band, (coeff, lo, hi)
            for tasks_n in (7, 16, 33):
                length = coeff * tasks_n + hi + 4
                for ngpus in (2, 3, 4):
                    slices = split_tasks(0, tasks_n, ngpus)
                    windows = [
                        Block(coeff * t0 + lo,
                              coeff * (t1 - 1) + hi + 1).clamp(length)
                        if t1 > t0 else Block(0, 0)
                        for t0, t1 in slices
                    ]
                    primary = primary_blocks(windows, length)
                    for g, (t0, t1) in enumerate(slices):
                        for i in (t0, t1 - 1):
                            if i < t0:
                                continue
                            for b in band:
                                x = coeff * i + b
                                if 0 <= x < length:
                                    blk = primary[g]
                                    assert blk.lo <= x < blk.hi, (
                                        coeff, lo, hi, b, ngpus, g, i)


# ---------------------------------------------------------------------------
# Compiler integration: precedence, infer=False, harmonization
# ---------------------------------------------------------------------------


TWO_SWEEP = """
void sweep(double* a, double* b, int n, int steps) {
    for (int t = 0; t < steps; t++) {
        #pragma acc parallel loop
        %s
        for (int i = 1; i < n - 1; i++) {
            b[i] = 0.25 * (a[i-1] + 2.0 * a[i] + a[i+1]);
        }
        #pragma acc parallel loop
        %s
        for (int i = 1; i < n - 1; i++) {
            a[i] = b[i];
        }
    }
}
"""


class TestPrecedenceAndDisable:
    def test_explicit_directive_wins_over_inference(self):
        # Declare a *wider* window than inference would pick: the
        # declared one must survive untouched.
        src = TWO_SWEEP % ("#pragma acc localaccess a[stride(1, 2, 2)]", "")
        cp = compile_source(src)
        cfg = cp.plans[0].config.arrays["a"]
        assert cfg.window_origin == "declared"
        assert cfg.window.spec is not None
        assert static_window_span(cfg.window, "i") == (1, -2, 2)
        # The unannotated array in the same loop is still inferred.
        assert cp.plans[0].config.arrays["b"].window_origin == "inferred"

    def test_infer_false_reproduces_paper_behavior(self):
        src = TWO_SWEEP % ("", "")
        cp = compile_source(src, CompileOptions(infer=False))
        for plan in cp.plans:
            for name, cfg in plan.config.arrays.items():
                assert cfg.placement == Placement.REPLICA, name
                assert cfg.window is None
                assert cfg.infer_reason == "inference disabled (infer=False)"
                if cfg.written:
                    assert cfg.write_handling == WriteHandling.DIRTY_BITS

    def test_infer_false_still_correct(self):
        n, steps = 512, 3
        def args():
            return {"a": np.linspace(0, 1, n), "b": np.zeros(n),
                    "n": n, "steps": steps}
        src = TWO_SWEEP % ("", "")
        on, _ = run_source(src, args(), ngpus=2)
        off, _ = run_source(src, args(), ngpus=2,
                            options=CompileOptions(infer=False))
        np.testing.assert_array_equal(on["a"], off["a"])
        np.testing.assert_array_equal(on["b"], off["b"])

    def test_options_cache_key_separates_infer(self):
        src = TWO_SWEEP % ("", "")
        a = compile_source(src, CompileOptions(infer=True))
        b = compile_source(src, CompileOptions(infer=False))
        assert a is not b


class TestHarmonization:
    def test_ping_pong_windows_align_across_loops(self):
        # `a` is read [i-1, i+1] in L0 but written [i, i] in L1: the
        # write window must widen to the read envelope so both loops
        # request identical blocks.  `b` is [i, i] in both loops and
        # needs no widening.
        cp = compile_source(TWO_SWEEP % ("", ""))
        for plan in cp.plans:
            for name, span in [("a", (1, -1, 1)), ("b", (1, 0, 0))]:
                cfg = plan.config.arrays[name]
                assert cfg.window_origin == "inferred"
                assert cfg.inferred_span == span, (plan.name, name)

    def test_unsafe_widening_keeps_per_loop_windows(self):
        # L0 reads a[i+3] (span (1,3,3)); L1 writes a[i] (span (1,0,0)).
        # The envelope (1,0,3) would put offset 0 outside the
        # primary-safe band, so harmonization must leave both alone.
        src = """
        void f(int n, float *a, float *y) {
          #pragma acc parallel loop
          for (int i = 0; i < n - 3; i++) { y[i] = a[i + 3]; }
          #pragma acc parallel loop
          for (int i = 0; i < n - 3; i++) { a[i] = y[i]; }
        }
        """
        cp = compile_source(src)
        assert cp.plans[0].config.arrays["a"].inferred_span == (1, 3, 3)
        assert cp.plans[1].config.arrays["a"].inferred_span == (1, 0, 0)

    def test_inferred_aligns_to_declared_window(self):
        src = TWO_SWEEP % ("#pragma acc localaccess a[stride(1, 1, 1)]", "")
        cp = compile_source(src)
        # Loop 1's inferred window for `a` must widen to the declared
        # stride(1,1,1) of loop 0 so the loader block signatures match.
        cfg0 = cp.plans[0].config.arrays["a"]
        cfg1 = cp.plans[1].config.arrays["a"]
        assert cfg0.window_origin == "declared"
        assert cfg1.window_origin == "inferred"
        assert cfg1.inferred_span == (1, -1, 1)


# ---------------------------------------------------------------------------
# Differential: inferred vs hand-annotated stencil
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("ngpus", [1, 2, 4])
    def test_bit_identical_and_same_golden_trace(self, ngpus):
        bare = strip_localaccess(stencil.SOURCE)
        assert "localaccess" not in bare
        runs = {}
        for label, src in [("annotated", stencil.SOURCE),
                           ("inferred", bare)]:
            args = stencil.make_args(n=96, steps=4)
            _, run = run_source(src, args, ngpus=ngpus,
                                machine=machine_for(ngpus),
                                entry="stencil", trace=True)
            runs[label] = (args, run)
        args_a, run_a = runs["annotated"]
        args_i, run_i = runs["inferred"]
        for name in ("a", "b"):
            np.testing.assert_array_equal(args_a[name], args_i[name])
        assert normalize(run_a.tracer) == normalize(run_i.tracer)
        assert run_i.executor.comm.bytes_replica == 0

    def test_inferred_matches_annotated_configs(self):
        annotated = compile_source(stencil.SOURCE)
        inferred = compile_source(strip_localaccess(stencil.SOURCE))
        for pa, pi in zip(annotated.plans, inferred.plans):
            for name, cfg_a in pa.config.arrays.items():
                cfg_i = pi.config.arrays[name]
                assert cfg_i.placement == Placement.DISTRIBUTED
                assert cfg_i.window_origin == "inferred"
                assert cfg_i.inferred_span == (1, -1, 1)
                assert cfg_i.write_handling == cfg_a.write_handling

    @pytest.mark.parametrize("ngpus", [1, 2, 4])
    def test_sanitized_inferred_stencil(self, ngpus):
        bare = strip_localaccess(stencil.SOURCE)
        args = stencil.make_args(n=64, steps=3)
        _, run = run_source(bare, args, ngpus=ngpus,
                            machine=machine_for(ngpus),
                            entry="stencil", sanitize=True)
        assert run.sanitizer is not None
        assert run.sanitizer.auditor.audited > 0

    def test_too_narrow_inferred_window_is_a_violation(self):
        # Narrow an adopted window by hand: sanitized runs must flag it
        # as an inference bug, not a user error.
        bare = strip_localaccess(stencil.SOURCE)
        cp = compile_source(bare)
        for plan in cp.plans:
            cfg = plan.config.arrays["a"]
            cfg.window = window_from_span((1, 0, 0), plan.config.loop_var)
            cfg.inferred_span = (1, 0, 0)
        prog = repro.AccProgram(cp)
        with pytest.raises(CoherenceViolation) as exc:
            prog.run("stencil", stencil.make_args(n=64, steps=2),
                     ngpus=2, sanitize=True)
        assert "localaccess-inference-unsound" in str(exc.value)


# ---------------------------------------------------------------------------
# Sanitized fuzz with inference on 1/2/4 GPUs
# ---------------------------------------------------------------------------


def _fuzz_program(off1, off2, woff, scale):
    return f"""
    void fuzz(int n, float *x, float *w, float *y) {{
      #pragma acc parallel loop
      for (int i = 2; i < n - 2; i++) {{
        y[i + {woff}] = {scale}f * x[i + {off1}] + w[i + {off2}];
      }}
    }}
    """


class TestSanitizedFuzz:
    @seed(_case_seed("TestSanitizedFuzz::test_affine_stencils"))
    @given(st.data(), st.integers(8, 40))
    @settings(**_SETTINGS)
    def test_affine_stencils(self, data, n):
        off1 = data.draw(st.integers(-2, 2))
        off2 = data.draw(st.integers(-2, 2))
        woff = data.draw(st.integers(min(0, off1, off2),
                                     max(0, off1, off2)))
        src = _fuzz_program(off1, off2, woff, 0.5)
        template = {
            "n": n,
            "x": np.arange(n, dtype=np.float32),
            "w": np.ones(n, dtype=np.float32),
            "y": np.zeros(n, dtype=np.float32),
        }

        def clone():
            return {k: (v.copy() if isinstance(v, np.ndarray) else v)
                    for k, v in template.items()}

        base = None
        for ngpus in (1, 2, 4):
            args, _ = run_source(src, clone(), ngpus=ngpus,
                                 machine=machine_for(ngpus),
                                 sanitize=True)
            if base is None:
                base = args
            else:
                np.testing.assert_array_equal(args["y"], base["y"])
        # Inference must adopt windows for x and w (pure affine
        # reads), whatever it decided for the written array.
        cp = compile_source(src)
        for name in ("x", "w"):
            assert cp.plans[0].config.arrays[name].window_origin \
                == "inferred"


# ---------------------------------------------------------------------------
# Explain reports
# ---------------------------------------------------------------------------


class TestExplain:
    def test_reports_every_loop_array_pair(self):
        report = explain(strip_localaccess(stencil.SOURCE))
        assert isinstance(report, ExplainReport)
        assert [l.loop for l in report.loops] == ["stencil_L0", "stencil_L1"]
        for lp in report.loops:
            assert {a.array for a in lp.arrays} == {"a", "b"}
            for a in lp.arrays:
                assert a.placement == "distributed"
                assert a.origin == "inferred"
                assert a.window == "[i - 1, i + 1]"
                assert a.stride_clause == "stride(1, 1, 1)"
                assert a.audited

    def test_declared_and_bailed_arrays(self):
        report = explain(repro.compile(stencil.SOURCE))  # AccProgram
        a = report.loop("stencil_L0").array("a")
        assert a.origin == "declared" and a.stride_clause is None
        from repro.apps import bfs
        levels = explain(bfs.SPEC.source).loop("bfs_L0").array("levels")
        assert levels.placement == "replica"
        assert levels.origin == "replica-default"
        assert "data-dependent" in levels.bail_reason
        assert not levels.audited

    def test_render_and_json(self):
        report = explain(strip_localaccess(stencil.SOURCE))
        text = report.render()
        assert "loop stencil_L0" in text and "inferred window" in text
        data = json.loads(report.to_json())
        assert len(data["loops"]) == 2
        assert data["loops"][0]["arrays"][0]["origin"] == "inferred"

    def test_accprogram_explain_method(self):
        prog = repro.compile(strip_localaccess(stencil.SOURCE))
        report = prog.explain()
        assert report.loop("stencil_L0").array("a").origin == "inferred"

    def test_infer_reason_survives_explain(self):
        report = explain(TWO_SWEEP % ("", ""),
                         CompileOptions(infer=False))
        for lp in report.loops:
            for a in lp.arrays:
                assert a.bail_reason == "inference disabled (infer=False)"


class TestExplainCLI:
    def test_app_mode(self, capsys):
        assert explain_main(["--app", "stencil"]) == 0
        out = capsys.readouterr().out
        assert "stencil_L0" in out and "declared window" in out

    def test_file_mode_with_json(self, tmp_path, capsys):
        f = tmp_path / "prog.c"
        f.write_text(strip_localaccess(stencil.SOURCE))
        assert explain_main([str(f), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        arrays = data["loops"][0]["arrays"]
        assert all(a["origin"] == "inferred" for a in arrays)

    def test_no_infer_flag(self, tmp_path, capsys):
        f = tmp_path / "prog.c"
        f.write_text(strip_localaccess(stencil.SOURCE))
        assert explain_main([str(f), "--no-infer"]) == 0
        assert "replica (default)" in capsys.readouterr().out

    def test_fortran_flag(self, tmp_path, capsys):
        f = tmp_path / "saxpy.f90"
        f.write_text("""
subroutine saxpy(n, a, x, y)
  integer :: n
  real :: a
  real :: x(n), y(n)
  integer :: i
  !$acc parallel
  !$acc loop gang
  do i = 1, n
    y(i) = a * x(i) + y(i)
  end do
  !$acc end parallel
end subroutine saxpy
""")
        assert explain_main([str(f), "--fortran"]) == 0
        out = capsys.readouterr().out
        assert "saxpy_L0" in out and "inferred window" in out

    def test_unknown_app_errors(self):
        with pytest.raises(SystemExit):
            explain_main(["--app", "nope"])

    def test_topology_cluster(self, capsys):
        assert explain_main(["--topology", "tsubame2"]) == 0
        out = capsys.readouterr().out
        assert "2 nodes" in out and "nic:" in out and "node1" in out

    def test_topology_single_machine(self, capsys):
        assert explain_main(["--topology", "desktop"]) == 0
        out = capsys.readouterr().out
        assert "1 node" in out and "hub0" in out

    def test_topology_unknown_machine_errors(self):
        with pytest.raises(SystemExit):
            explain_main(["--topology", "nope"])
