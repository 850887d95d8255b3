"""Lane strips: ``KernelPlan.execute`` runs a GPU's slice as consecutive
strips of at most ``kernel_support.LANE_STRIP`` lanes.

A strip is a GPU split that moves no data, so it must be invisible:

(a) the sweep of the host-only constants (ROADMAP item 17(d)):
    ``LANE_STRIP`` and ``BLOCK_ELEMS`` at 1, their default and 2**30,
    every bundled app, plain and fused, on 1 and 4 GPUs and a 2x2
    cluster, synchronous and overlapped -- every observable of
    ``test_launch_graph.observables()`` equal, floats as hex;
(b) the three kinds of plan a cut would change run as one strip, each
    pinned by a program that a cut would change: a float ``+`` scalar
    reduction, two statements ``reductiontoarray``-ing into one array
    at colliding indices, and fused loops whose earlier member touches
    an array a later member writes at another offset (strips share
    memory where GPUs do not);
(c) a launch leaves its slice as it found it, strips cover it exactly,
    and the iota of a strip is the strip's;
(d) ``max`` / ``min`` reductions fold like C's ``fmax`` / ``fmin`` at
    every level -- lanes, strips, GPUs, the host's initial value -- so
    a NaN never decides the result by where the split falls.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.runtime.kernelctx import KernelContext
from repro.translator import kernel_support
from repro.translator.compiler import CompileOptions

from .interp_oracle import oracle
from .test_launch_graph import observables

APPS = {**ALL_APPS, **EXTRA_APPS}
DEFAULT_STRIP = kernel_support.LANE_STRIP

#: Where a run may go: (machine, ngpus).
TOPOLOGIES = {
    "1gpu": (hypothetical_node(1), 1),
    "4gpu": (hypothetical_node(4), 4),
    "2x2": (hypothetical_cluster(2, 2), 4),
}
MODES = {"sync": {}, "overlap": {"overlap": True}}
OPTIONS = {"plain": None, "fused": CompileOptions(fuse=True)}


def run_observed(name, options, topology, mode):
    spec = APPS[name]
    machine, ngpus = TOPOLOGIES[topology]
    args = spec.args_for("tiny")
    run = repro.compile(spec.source, OPTIONS[options]).run(
        spec.entry, args, machine=machine, ngpus=ngpus, **MODES[mode])
    return observables(run, args)


@functools.lru_cache(maxsize=None)
def default_observed(name, options, topology, mode):
    return run_observed(name, options, topology, mode)


# -- (a) the host-only constants sweep -------------------------------------------


@pytest.mark.parametrize("name", sorted(APPS))
@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("value", [1, 2 ** 30])
@pytest.mark.parametrize("constant", ["LANE_STRIP", "BLOCK_ELEMS"])
def test_host_constant_moves_no_observable(monkeypatch, constant, value,
                                           options, name):
    """At 1 every strip is one lane and every block one trip, so every
    other cut is checked against it; at 2**30 a slice is one strip and
    a block holds every trip."""
    expected = {(t, m): default_observed(name, options, t, m)
                for t in TOPOLOGIES for m in MODES}
    monkeypatch.setattr(kernel_support, constant, value)
    for (topology, mode), seen in expected.items():
        assert run_observed(name, options, topology, mode) == seen, (
            topology, mode)


# -- (b) the plans that run as one strip -----------------------------------------


SUM_SRC = r"""
float total(int n, float *a) {
  float s = 0.0f;
  #pragma acc data copyin(a[0:n])
  {
    #pragma acc parallel loop reduction(+:s)
    for (int i = 0; i < n; i++) { s += a[i]; }
  }
  return s;
}
"""

HIST_SRC = r"""
void hist(int n, int m, int *k1, int *k2, float *w, float *h) {
  #pragma acc data copyin(k1[0:n], k2[0:n], w[0:n]) copy(h[0:m])
  {
    #pragma acc parallel
    {
      #pragma acc localaccess k1[stride(1)] k2[stride(1)] w[stride(1)]
      #pragma acc loop gang
      for (int i = 0; i < n; i++) {
        #pragma acc reductiontoarray(+: h[0:m])
        h[k1[i]] += w[i];
        #pragma acc reductiontoarray(+: h[0:m])
        h[k2[i]] += 0.5f * w[i];
      }
    }
  }
}
"""

N = 5000
STRIP = 37


def sum_args():
    rng = np.random.default_rng(7)
    return {"n": N, "a": rng.standard_normal(N).astype(np.float32) * 1e4}


def hist_args():
    rng = np.random.default_rng(11)
    return {"n": N, "m": 3,
            "k1": rng.integers(0, 3, N).astype(np.int32),
            "k2": rng.integers(0, 3, N).astype(np.int32),
            "w": rng.standard_normal(N).astype(np.float32) * 1e3,
            "h": np.zeros(3, dtype=np.float32)}


def in_strips(fold, n, step):
    """``fold(lo, hi)`` over the strips of ``[0, n)``, in order."""
    for s in range(0, n, step):
        fold(s, min(s + step, n))


def test_float_sum_is_sensitive_to_strips():
    """What the next test would see if a ``+`` reduction were cut: the
    float32 fold of 37-lane partials differs from the one-pass sum."""
    a = sum_args()["a"]
    acc = [np.float32(0)]
    in_strips(lambda lo, hi: acc.__setitem__(0, acc[0] + a[lo:hi].sum()),
              N, STRIP)
    assert acc[0] != np.float32(0) + a.sum()


def test_histogram_is_sensitive_to_strips():
    """What the next test would see if a ``reductiontoarray`` plan were
    cut: the two statements' adds interleave per strip."""
    args = hist_args()
    k1, k2, w = args["k1"], args["k2"], args["w"]
    whole = np.zeros(3, dtype=np.float32)
    np.add.at(whole, k1, w)
    np.add.at(whole, k2, np.float32(0.5) * w)
    cut = np.zeros(3, dtype=np.float32)

    def fold(lo, hi):
        np.add.at(cut, k1[lo:hi], w[lo:hi])
        np.add.at(cut, k2[lo:hi], np.float32(0.5) * w[lo:hi])

    in_strips(fold, N, STRIP)
    assert whole.tobytes() != cut.tobytes()


@pytest.mark.parametrize("src,entry,make_args", [
    (SUM_SRC, "total", sum_args), (HIST_SRC, "hist", hist_args)],
    ids=["float_sum", "reductiontoarray"])
@pytest.mark.parametrize("ngpus", [1, 4])
def test_regrouping_plan_runs_as_one_strip(monkeypatch, src, entry,
                                           make_args, ngpus):
    prog = repro.compile(src)
    assert [p.strips for p in prog.kernels] == [False]
    seen = {}
    for strip in (1, STRIP, DEFAULT_STRIP, 2 ** 30):
        monkeypatch.setattr(kernel_support, "LANE_STRIP", strip)
        args = make_args()
        run = prog.run(entry, args, machine=hypothetical_node(ngpus),
                       ngpus=ngpus)
        obs = observables(run, args)
        obs["value"] = None if run.value is None else float(run.value).hex()
        seen[strip] = obs
    assert all(obs == seen[DEFAULT_STRIP] for obs in seen.values())


def test_strip_rule_reads_the_plan_config():
    """Only a ``+`` / ``*`` scalar reduction, a ``reductiontoarray``
    destination or fused members apart keep a plan whole: jacobi's
    ``max`` reduction strips, bfs' ``+`` and kmeans' ``reductiontoarray``
    plan do not, and both bundled fused plans strip (their members meet
    at the same offsets only)."""
    whole = {p.name for spec in APPS.values() for options in OPTIONS.values()
             for p in repro.compile(spec.source, options).kernels
             if not p.strips}
    assert whole == {"bfs_L0", "kmeans_L1"}
    assert repro.compile(APPS["jacobi"].source).kernel("jacobi_L0").strips
    fused = {g.name: g.fused.strips for spec in APPS.values()
             for g in repro.compile(spec.source,
                                    OPTIONS["fused"]).compiled.fusion_groups}
    assert fused == {"gradpipe_L0_f3": True, "phasepipe_L0_f3": True}


#: Fused members apart.  ``anti``: loop 1 reads ``a[i - 1]``, which
#: loop 2 then overwrites; ``output``: loop 1 writes ``a[i - 1]``,
#: which loop 2 then writes at ``a[i]`` (a distributed output
#: dependence).  Both fuse; cut into strips, strip k + 1's loop 1 would
#: read the ``a[s - 1]`` that strip k's loop 2 had stored, or store
#: over it.
APART_SRC = r"""
void apart(int n, float *a, float *b, float *c) {
  #pragma acc data copyin(c[0:n]) copy(a[0:n], b[0:n])
  {
    #pragma acc parallel
    {
      #pragma acc localaccess a[stride(1, 1, 1)] b[stride(1)]
      #pragma acc loop gang
      for (int i = 1; i < n; i++) { FIRST; }
      #pragma acc localaccess a[stride(1, 1, 1)] c[stride(1)]
      #pragma acc loop gang
      for (int i = 1; i < n; i++) { a[i] = c[i]; }
    }
  }
}
"""
APART = {"anti": "b[i] = a[i - 1]", "output": "a[i - 1] = b[i]"}


def apart_args():
    rng = np.random.default_rng(13)
    return {"n": 200, **{k: rng.standard_normal(200).astype(np.float32)
                         for k in "abc"}}


@pytest.mark.parametrize("dependence", sorted(APART))
def test_fused_members_apart_run_as_one_strip(monkeypatch, dependence):
    """Fused and unfused, at one lane a strip and at one strip a slice,
    on 1 and 4 GPUs: every array bit-identical to the scalar
    interpreter's unfused run."""
    src = APART_SRC.replace("FIRST", APART[dependence])
    plain = repro.compile(src)
    fused = repro.compile(src, OPTIONS["fused"])
    [group] = fused.compiled.fusion_groups
    assert not group.fused.strips
    for ngpus in (1, 4):
        machine = hypothetical_node(ngpus)
        want = apart_args()
        oracle(plain).run("apart", want, machine=machine, ngpus=ngpus)
        for strip in (1, 2 ** 30):
            monkeypatch.setattr(kernel_support, "LANE_STRIP", strip)
            for prog in (plain, fused):
                got = apart_args()
                prog.run("apart", got, machine=machine, ngpus=ngpus)
                for k in "abc":
                    assert got[k].tobytes() == want[k].tobytes(), (
                        ngpus, strip, prog is fused, k)


# -- (c) the strip loop -----------------------------------------------------------


def recording_plan(calls, fail_at=None):
    """A plan whose kernel records each strip's slice and iota."""
    def fn(ctx):
        if len(calls) == fail_at:
            raise RuntimeError("kernel failed")
        calls.append((ctx.i0, ctx.i1, ctx.iota().copy()))

    plan = repro.compile(APPS["jacobi"].source).kernel("jacobi_L1")
    return dataclasses.replace(plan, fn=fn)


@pytest.mark.parametrize("i0,i1,strip", [
    (0, 100, 37), (5, 80, 25), (3, 4, 1), (7, 7, 37), (0, 36, 37)])
def test_strips_cover_the_slice_and_restore_it(monkeypatch, i0, i1, strip):
    monkeypatch.setattr(kernel_support, "LANE_STRIP", strip)
    calls = []
    ctx = KernelContext(device_index=0, i0=i0, i1=i1)
    recording_plan(calls).execute(ctx)
    assert (ctx.i0, ctx.i1) == (i0, i1)
    assert [c[:2] for c in calls] == [
        (s, min(s + strip, i1)) for s in range(i0, i1, strip)]
    for lo, hi, iota in calls:
        assert iota.tolist() == list(range(lo, hi))
    assert len(calls) == math.ceil(max(i1 - i0, 0) / strip)


def test_failing_strip_restores_the_slice(monkeypatch):
    monkeypatch.setattr(kernel_support, "LANE_STRIP", 10)
    ctx = KernelContext(device_index=0, i0=4, i1=50)
    with pytest.raises(RuntimeError):
        recording_plan([], fail_at=2).execute(ctx)
    assert (ctx.i0, ctx.i1) == (4, 50)


def test_strip_iota_is_a_slice_of_the_launch_vector(monkeypatch):
    """A strip builds no index vector: every strip's iota views the one
    vector of the launch's span, memoized across launches."""
    monkeypatch.setattr(kernel_support, "LANE_STRIP", 16)
    calls = []
    plan = recording_plan(calls)
    ctx = KernelContext(device_index=0, i0=10, i1=90)
    plan.execute(ctx)
    memo = ctx._iota
    assert memo is not None and memo.tolist() == list(range(10, 90))
    plan.execute(ctx)
    assert ctx._iota is memo
    strip_iota = ctx.iota()
    assert strip_iota.base is memo and not strip_iota.flags.writeable


# -- (d) NaN in max / min reductions ---------------------------------------------


RED_SRC = r"""
float red(int n, float *a) {
  float m = INIT;
  #pragma acc data copyin(a[0:n])
  {
    #pragma acc parallel loop reduction(OP:m)
    for (int i = 0; i < n; i++) { m = FN(m, a[i]); }
  }
  return m;
}
"""

#: op -> (C function, initial value, NumPy's C-semantics fold).
RED_OPS = {"max": ("fmaxf", -1000.0, np.fmax), "min": ("fminf", 1000.0,
                                                      np.fmin)}
RED_RUNS = {"1gpu": TOPOLOGIES["1gpu"], "2gpu": (hypothetical_node(2), 2),
            "4gpu": TOPOLOGIES["4gpu"], "2x2": TOPOLOGIES["2x2"]}


def red_program(op):
    fn, init, _ = RED_OPS[op]
    return repro.compile(RED_SRC.replace("OP", op).replace("FN", fn)
                         .replace("INIT", f"{init}f"))


def nan_inputs():
    a = np.arange(16, dtype=np.float32)
    a[3] = np.nan
    b = np.arange(16, dtype=np.float32)[::-1].copy()
    b[[0, 7, 15]] = np.nan
    return {"one_nan": a, "three_nans": b,
            "all_nan": np.full(16, np.nan, dtype=np.float32)}


@pytest.mark.parametrize("where", sorted(RED_RUNS))
@pytest.mark.parametrize("op", sorted(RED_OPS))
def test_nan_is_missing_data_in_max_min_reductions(monkeypatch, op, where):
    """``a = arange(16)`` with ``a[3] = NaN`` reduces to 15.0 under
    ``max`` and 0.0 under ``min`` on every split -- C's ``fmaxf`` /
    ``fminf`` treat a NaN as missing -- and an all-NaN input to the
    initial value; at one lane a strip as at the default strip, and the
    scalar interpreter agrees."""
    _, init, c_fold = RED_OPS[op]
    prog = red_program(op)
    machine, ngpus = RED_RUNS[where]
    for label, a in nan_inputs().items():
        expected = float(c_fold.reduce(np.append(np.float32(init), a)))
        got = []
        for strip in (DEFAULT_STRIP, 1):
            monkeypatch.setattr(kernel_support, "LANE_STRIP", strip)
            for engine in (prog, oracle(prog)):
                got.append(engine.run("red", {"n": a.size, "a": a.copy()},
                                      machine=machine, ngpus=ngpus).value)
        assert got == [expected] * 4, (label, got)
    assert c_fold.reduce(np.append(np.float32(init),
                                   nan_inputs()["all_nan"])) == init


@pytest.mark.parametrize("op", sorted(RED_OPS))
def test_red_fold_ignores_nan_at_every_level(op):
    fold = kernel_support.red_fold
    ident = kernel_support.red_identity(op)
    v = np.array([2.0, np.nan, -3.0, 5.0], dtype=np.float32)
    want = 5.0 if op == "max" else -3.0
    assert fold(op, ident, v, None, 4) == want              # lanes
    mask = np.array([True, True, False, False])
    assert fold(op, ident, v, mask, 4) == 2.0              # masked lanes
    assert fold(op, 1.0, np.float32(np.nan), None, 1) == 1.0   # a partial
    assert fold(op, float("nan"), np.float32(4.0), None, 1) == 4.0
    assert fold(op, ident, np.full(3, np.nan), None, 3) == ident
    # Integer folds stay exact and integer.
    big = np.array([2 ** 53 + 1, 3], dtype=np.int64)
    got = fold(op, np.int64(2 ** 53 + 1 if op == "min" else 0), big, None, 2)
    assert got == (2 ** 53 + 1 if op == "max" else 3)
    assert isinstance(got, (int, np.integer))
