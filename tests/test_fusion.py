"""The kernel fusion pass (``CompileOptions(fuse=True)``).

Three layers:

* **Brute-force differential legality** -- enumerate every two-loop
  producer/consumer program over the affine access shapes the legality
  analysis reasons about (coefficient ``w`` in {1, 2}, write offset
  ``b`` and read offset ``c`` in [-2, 2]) and check the analysis
  against ground truth *in both directions*: pairs it calls legal must
  fuse and stay bit-identical to the unfused run at 1/2/4 GPUs, and
  pairs it bails on must -- when force-fused by stubbing out
  ``fusion.dependence_bail`` -- actually diverge on multi-GPU runs
  (proving the bail was load-bearing, not conservative paranoia).

* **Structural unit tests** -- group formation, demotion, recorded
  bail reasons, trace tagging, explain reporting.

* **App-level equivalence** -- every bundled app runs fused and
  unfused, bit-identically, at 1/2/4 GPUs (tiny workloads).
"""

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_node
from repro.translator import fusion
from repro.translator.compiler import CompileOptions
from repro.vcuda.specs import MACHINES
from tests.interp_oracle import oracle

APPS = {**ALL_APPS, **EXTRA_APPS}


def machine_for(ngpus):
    spec = MACHINES["desktop"]
    return spec if ngpus <= spec.gpu_count else hypothetical_node(ngpus)


def run_source(src, args, ngpus, options=None, entry="f", interp=False,
               **flags):
    prog = repro.compile(src, options)
    args = {k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in args.items()}
    (oracle(prog) if interp else prog).run(entry, args, machine=machine_for(ngpus), ngpus=ngpus, **flags)
    arrays = {k: v for k, v in args.items() if isinstance(v, np.ndarray)}
    return arrays, prog.compiled


# ---------------------------------------------------------------------------
# Brute-force differential legality
# ---------------------------------------------------------------------------

#: Subscripts are shifted by +2 so every enumerated offset is a valid
#: nonnegative index; shifting both offsets preserves their difference,
#: which is all the dependence rule looks at.
SHIFT = 2
COEFFS = (1, 2)
OFFSETS = range(-2, 3)
N = 37  # not divisible by 2 or 4: uneven splits at every GPU count


def flow_program(w, b, c):
    """Loop 1 writes ``a[w*i + b]``; loop 2 reads ``a[w*i + c]``."""
    return f"""
void f(float *a, float *x, float *out, int n) {{
    #pragma acc parallel loop
    for (int i = 0; i < n; i++)
        a[{w}*i + {b + SHIFT}] = x[i] + 1.0f;
    #pragma acc parallel loop
    for (int i = 0; i < n; i++)
        out[i] = out[i] + a[{w}*i + {c + SHIFT}] * 2.0f;
}}
"""


def writewrite_program(w, b, c):
    """Both loops write ``a`` (replica output dependence)."""
    return f"""
void f(float *a, float *x, float *out, int n) {{
    #pragma acc parallel loop
    for (int i = 0; i < n; i++)
        a[{w}*i + {b + SHIFT}] = x[i] + 1.0f;
    #pragma acc parallel loop
    for (int i = 0; i < n; i++)
        a[{w}*i + {c + SHIFT}] = x[i] * 3.0f;
}}
"""


def flow_args(w, seed=7):
    rng = np.random.default_rng(seed)
    size = w * (N - 1) + 2 * SHIFT + 1
    return {
        "a": rng.uniform(-1.0, 1.0, size=size).astype(np.float32),
        "x": rng.uniform(-1.0, 1.0, size=N).astype(np.float32),
        "out": np.zeros(N, dtype=np.float32),
        "n": N,
    }


def fusion_legal(w, b, c):
    """The oracle: fusable iff the second loop's accesses hit exactly
    the iteration's own element or can never alias a written one."""
    return b == c or (c - b) % w != 0


#: Compile with inference off: every array is a dirty-bit replica, so
#: the enumeration isolates the *dependence* rules (no distribution
#: window mismatches muddying which check fired).
REPLICA = CompileOptions(infer=False, fuse=True)
REPLICA_OFF = CompileOptions(infer=False)

CASES = [(w, b, c) for w in COEFFS for b in OFFSETS for c in OFFSETS]
CASE_IDS = [f"w{w}_b{b}_c{c}" for w, b, c in CASES]


@pytest.mark.parametrize("w,b,c", CASES, ids=CASE_IDS)
def test_flow_legality_matches_oracle(w, b, c):
    """The analysis fuses exactly the pairs the oracle calls legal, and
    legal fusions are bit-identical to the unfused schedule."""
    src = flow_program(w, b, c)
    args = flow_args(w)
    _, compiled = run_source(src, args, 1, REPLICA)
    legal = fusion_legal(w, b, c)
    assert bool(compiled.fusion_groups) == legal, (
        f"analysis {'fused' if compiled.fusion_groups else 'bailed'} but "
        f"oracle says legal={legal}: "
        f"{[b_.reason for b_ in compiled.fusion_bails]}")
    if not legal:
        assert any("flow" in b_.reason for b_ in compiled.fusion_bails)
        return
    for ngpus in (1, 2, 4):
        fused, _ = run_source(src, args, ngpus, REPLICA)
        unfused, _ = run_source(src, args, ngpus, REPLICA_OFF)
        for name in ("a", "out"):
            np.testing.assert_array_equal(
                fused[name], unfused[name],
                err_msg=f"w={w} b={b} c={c} ngpus={ngpus}: {name}")


ILLEGAL_CASES = [(w, b, c) for w, b, c in CASES if not fusion_legal(w, b, c)]
ILLEGAL_IDS = [f"w{w}_b{b}_c{c}" for w, b, c in ILLEGAL_CASES]


@pytest.mark.parametrize("w,b,c", ILLEGAL_CASES, ids=ILLEGAL_IDS)
def test_bailed_pairs_really_diverge_when_forced(w, b, c, monkeypatch,
                                                programs):
    """Every dependence bail is load-bearing: force-fusing the pair
    diverges on multi-GPU runs (while single-GPU stays identical --
    the hazard is exactly the cross-GPU flow the pass protects).

    Forcing skips the dependence rules only; the mechanical
    requirements still apply.  The fresh ``programs`` store matters:
    the oracle test already compiled this pair unforced."""
    monkeypatch.setattr(fusion, "dependence_bail", lambda *args: None)
    src = flow_program(w, b, c)
    args = flow_args(w)
    _, compiled = run_source(src, args, 1, REPLICA)
    assert compiled.fusion_groups, "forcing must override the bail"

    one_fused, _ = run_source(src, args, 1, REPLICA)
    one_plain, _ = run_source(src, args, 1, REPLICA_OFF)
    np.testing.assert_array_equal(one_fused["out"], one_plain["out"])

    diverged = False
    for ngpus in (2, 4):
        fused, _ = run_source(src, args, ngpus, REPLICA)
        unfused, _ = run_source(src, args, ngpus, REPLICA_OFF)
        if not np.array_equal(fused["out"], unfused["out"]):
            diverged = True
    assert diverged, (
        f"w={w} b={b} c={c}: bailed as cross-iteration flow but "
        f"force-fusing never diverged -- bail may be spurious")


@pytest.mark.parametrize("w,b,c", CASES, ids=CASE_IDS)
def test_writewrite_legality_matches_oracle(w, b, c):
    src = writewrite_program(w, b, c)
    args = flow_args(w)
    _, compiled = run_source(src, args, 1, REPLICA)
    legal = fusion_legal(w, b, c)
    assert bool(compiled.fusion_groups) == legal
    if not legal:
        assert any("write-write" in b_.reason
                   for b_ in compiled.fusion_bails)
        return
    for ngpus in (1, 2, 4):
        fused, _ = run_source(src, args, ngpus, REPLICA)
        unfused, _ = run_source(src, args, ngpus, REPLICA_OFF)
        np.testing.assert_array_equal(fused["a"], unfused["a"])


# ---------------------------------------------------------------------------
# Structural unit tests
# ---------------------------------------------------------------------------

PIPE = """
void f(float *u, float *out, int n) {
    float t[n];
    #pragma acc parallel loop
    for (int i = 0; i < n - 1; i++)
        t[i] = u[i + 1] - u[i];
    #pragma acc parallel loop
    for (int i = 0; i < n - 1; i++)
        out[i] = out[i] + t[i];
}
"""


def pipe_args(n=257, seed=3):
    rng = np.random.default_rng(seed)
    return {"u": rng.uniform(-1, 1, size=n).astype(np.float32),
            "out": np.zeros(n, dtype=np.float32), "n": n}


def test_group_formed_and_intermediate_demoted():
    _, compiled = run_source(PIPE, pipe_args(), 1, CompileOptions(fuse=True))
    assert len(compiled.fusion_groups) == 1
    g = compiled.fusion_groups[0]
    assert g.members == ("f_L0", "f_L1")
    assert [d.name for d in g.demoted] == ["t"]
    # The scratch array never reaches the loader: not in merged config.
    assert "t" not in g.fused.config.arrays
    assert "demoted" in g.elided["t"]


def test_fuse_off_is_default_and_untouched():
    _, compiled = run_source(PIPE, pipe_args(), 1)
    assert compiled.fusion_groups == [] and compiled.fusion_bails == []
    assert not compiled.fused_stmts


def test_scalar_reduction_bails():
    src = """
void f(float *a, float *out, int n) {
    float s = 0.0f;
    #pragma acc parallel loop reduction(+:s)
    for (int i = 0; i < n; i++)
        s = s + a[i];
    #pragma acc parallel loop
    for (int i = 0; i < n; i++)
        out[i] = out[i] + a[i];
    out[0] = out[0] + s;
}
"""
    args = {"a": np.ones(64, dtype=np.float32),
            "out": np.zeros(64, dtype=np.float32), "n": 64}
    _, compiled = run_source(src, args, 2, CompileOptions(fuse=True))
    assert not compiled.fusion_groups
    assert any("reduction" in b.reason for b in compiled.fusion_bails)


def test_update_directive_blocks_fusion():
    src = """
void f(float *a, float *out, int n) {
    #pragma acc data copy(a[0:n]) copy(out[0:n])
    {
        #pragma acc parallel loop
        for (int i = 0; i < n; i++)
            a[i] = a[i] * 2.0f;
        #pragma acc update host(a[0:n])
        #pragma acc parallel loop
        for (int i = 0; i < n; i++)
            out[i] = out[i] + a[i];
    }
}
"""
    args = {"a": np.ones(64, dtype=np.float32),
            "out": np.zeros(64, dtype=np.float32), "n": 64}
    fused, compiled = run_source(src, args, 2, CompileOptions(fuse=True))
    assert not compiled.fusion_groups
    assert any("update" in b.reason for b in compiled.fusion_bails)
    plain, _ = run_source(src, args, 2)
    np.testing.assert_array_equal(fused["out"], plain["out"])


def test_host_statement_between_loops_blocks_fusion():
    src = """
void f(float *a, float *out, int n) {
    #pragma acc parallel loop
    for (int i = 0; i < n; i++)
        a[i] = a[i] * 2.0f;
    out[0] = 1.0f;
    #pragma acc parallel loop
    for (int i = 0; i < n; i++)
        out[i] = out[i] + a[i];
}
"""
    args = {"a": np.ones(64, dtype=np.float32),
            "out": np.zeros(64, dtype=np.float32), "n": 64}
    _, compiled = run_source(src, args, 1, CompileOptions(fuse=True))
    assert not compiled.fusion_groups


def test_fused_launch_count_and_trace_tag():
    args = pipe_args()
    prog = repro.compile(PIPE, CompileOptions(fuse=True))
    run = prog.run("f", dict(args), machine=machine_for(2), ngpus=2,
                   trace=True)
    kernels = [e for e in run.tracer.events if e.kind == "kernel"]
    assert len(kernels) == 2  # one fused launch per GPU
    assert all(e.attrs.get("fusion") == ["f_L0", "f_L1"] for e in kernels)

    prog0 = repro.compile(PIPE, CompileOptions())
    run0 = prog0.run("f", dict(args), machine=machine_for(2), ngpus=2,
                     trace=True)
    kernels0 = [e for e in run0.tracer.events if e.kind == "kernel"]
    assert len(kernels0) == 4
    assert all(e.attrs.get("fusion") is None for e in kernels0)


def test_explain_reports_fusion():
    from repro.explain import explain
    report = explain(PIPE, CompileOptions(fuse=True))
    assert report.fusion is not None
    assert len(report.fusion.groups) == 1
    g = report.fusion.groups[0]
    assert g.members == ("f_L0", "f_L1") and g.demoted == ("t",)
    text = report.render()
    assert "fusion:" in text and "f_L0 + f_L1" in text
    # Without fuse the report has no fusion section.
    assert explain(PIPE).fusion is None


def test_interpreter_engine_matches_vector_engine_fused():
    args = pipe_args()
    vec, _ = run_source(PIPE, args, 2, CompileOptions(fuse=True))
    interp, _ = run_source(PIPE, args, 2, CompileOptions(fuse=True),
                           interp=True)
    np.testing.assert_array_equal(vec["out"], interp["out"])


def test_sanitized_fused_run_is_clean():
    args = pipe_args()
    fused, _ = run_source(PIPE, args, 2, CompileOptions(fuse=True),
                          sanitize=True)
    plain, _ = run_source(PIPE, args, 2)
    np.testing.assert_array_equal(fused["out"], plain["out"])


# ---------------------------------------------------------------------------
# App-level equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ngpus", [1, 2, 4])
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_apps_bit_identical_fused(app_name, ngpus):
    spec = APPS[app_name]
    outs = {}
    for fuse in (False, True):
        prog = repro.compile(spec.source, CompileOptions(fuse=fuse))
        args = spec.args_for("tiny")
        prog.run(spec.entry, args, machine=machine_for(ngpus), ngpus=ngpus)
        outs[fuse] = {k: v for k, v in args.items()
                      if isinstance(v, np.ndarray)}
    for name, a in outs[False].items():
        np.testing.assert_array_equal(
            outs[True][name], a,
            err_msg=f"{app_name}.{name} perturbed by fusion at {ngpus} GPUs")


@pytest.mark.parametrize("app_name", ["gradpipe", "phasepipe"])
def test_pipeline_apps_actually_fuse(app_name):
    spec = APPS[app_name]
    prog = repro.compile(spec.source, CompileOptions(fuse=True))
    groups = prog.compiled.fusion_groups
    assert len(groups) == 1 and len(groups[0].members) == 3


def test_fusion_reduces_modeled_comm_seconds():
    """The acceptance claim: fused communication seconds drop at 2 and
    4 GPUs for both pipeline apps, with bit-identical results."""
    for app_name in ("gradpipe", "phasepipe"):
        spec = APPS[app_name]
        for ngpus in (2, 4):
            secs = {}
            for fuse in (False, True):
                prog = repro.compile(spec.source, CompileOptions(fuse=fuse))
                args = spec.args_for("test")
                run = prog.run(spec.entry, args, machine=machine_for(ngpus),
                               ngpus=ngpus)
                bd = run.breakdown
                secs[fuse] = bd.cpu_gpu + bd.gpu_gpu
            assert secs[True] < secs[False], (
                f"{app_name} at {ngpus} GPUs: comm seconds did not drop "
                f"({secs[False]:.3g} -> {secs[True]:.3g})")
