"""Trip-axis lowering: what a constant-trip loop costs per launch.

A constant-trip inner loop runs as blocks of ``(trips, lanes)``: its
trip-parallel statements once per block, only its carried ones once per
trip (``translator/vectorizer.py``, ``TripSplit``).  The gate here is
in counts -- NumPy and ``ks`` calls per launch -- never in seconds: at a
lane count whose block holds every trip, the trip-parallel calls do not
depend on the trip count and the carried ones grow by a fixed number
per trip (three for ``md_L0``: its masked ``fx``, ``fy``, ``fz``
updates).
"""

import re

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS
from repro.runtime.kernelctx import KernelContext
from repro.translator import kernel_support
from tests.interp_oracle import oracle


class Counting:
    """Stands in for ``ctx.np`` / ``ctx.ks``: counts the calls a kernel
    makes through it (types -- dtypes -- pass through uncounted)."""

    def __init__(self, module):
        self.module = module
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.module, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


def calls_per_launch(app: str, kernel: str, params: dict) -> int:
    """NumPy + ``ks`` calls of one steady launch over every lane."""
    spec = ALL_APPS[app]
    args = spec.make_args(**params, seed=5)
    arrays = {k: np.array(v) for k, v in args.items()
              if isinstance(v, np.ndarray)}
    scalars = {k: v for k, v in args.items() if k not in arrays}
    lanes = params.get("natoms", params.get("npoints"))
    ctx = KernelContext(device_index=0, i0=0, i1=lanes, scalars=scalars,
                        permissive=True)
    for name, arr in arrays.items():
        ctx.arrays[name] = arr
        ctx.base[name] = 0
    plan = repro.compile(spec.source).kernel(kernel)
    plan.execute(ctx)
    ctx.np, ctx.ks = Counting(np), Counting(kernel_support)
    plan.execute(ctx)
    return ctx.np.calls + ctx.ks.calls


def per_trip(counts: dict[int, int]) -> int:
    """The calls each trip adds, checked to be one constant: the rest
    -- the trip-parallel part -- is then the same for every count."""
    trips = sorted(counts)
    slopes = {(counts[b] - counts[a]) / (b - a)
              for a, b in zip(trips, trips[1:])}
    assert len(slopes) == 1, counts
    slope = slopes.pop()
    assert slope == int(slope), counts
    return int(slope)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_md_block_calls_do_not_depend_on_the_neighbour_count():
    # Small lattices hold an atom among its own neighbours: ``1 / r2``
    # divides by zero on lanes the cutoff mask leaves out.
    # 32 lanes: one block holds all 32 trips of every count below.
    counts = {m: calls_per_launch("md", "md_L0", dict(natoms=32, maxneigh=m))
              for m in (4, 16, 32)}
    assert per_trip(counts) <= 3, counts


def test_kmeans_block_calls_do_not_depend_on_the_feature_count():
    # The cluster loop is carried (its argmin, and the feature loop in
    # it); each of its trips runs the feature loop as one block, whose
    # only carried statement is ``dist += d * d``: one call per feature
    # per cluster.
    counts = {f: calls_per_launch(
        "kmeans", "kmeans_L0",
        dict(npoints=256, nclusters=4, nfeatures=f, niters=1))
        for f in (4, 6, 16)}
    assert per_trip(counts) == 4, counts


def test_a_long_loop_runs_as_several_blocks():
    """Past ``BLOCK_ELEMS`` the block part repeats per block -- a fixed
    number of calls per block, never per trip."""
    spec = ALL_APPS["md"]
    text = repro.compile(spec.source).kernel_source("md_L0")
    slots = int(text.split("ks.tiles(0, v_maxneigh, (_n,), ")[1].split(")")[0])
    lanes = kernel_support.BLOCK_ELEMS // (slots * 4)
    blocks = [(t, k) for t, k, _ in kernel_support.tiles(0, 32, (lanes,),
                                                         slots)]
    assert len(blocks) == 8 and sum(k for _, k in blocks) == 32


@pytest.mark.parametrize("app,kernel,blocked", [
    ("md", "md_L0", True), ("kmeans", "kmeans_L0", True),
    ("kmeans", "kmeans_L1", True), ("heat2d", "heat2d_L0", False)])
def test_which_loops_run_as_blocks(app, kernel, blocked):
    """``heat2d``'s loop body is one ``if`` its lanes lower as sub-spans
    of one trip each: every statement is carried and nothing is computed
    in a block, so its trips replay straight from the range."""
    from repro.apps import EXTRA_APPS
    text = repro.compile((ALL_APPS | EXTRA_APPS)[app].source).kernel_source(
        kernel)
    assert ("ks.tiles(" in text) == blocked


def test_a_carried_loop_reads_its_lifted_loads_from_a_block():
    """``md_fortran`` declares every local ahead of its neighbour loop,
    so each statement of the loop is carried; its ``neigh`` load is
    trip-parallel all the same: one block view per block, of which
    each replayed trip reads a row."""
    from repro.frontend import fortran
    from repro.translator.compiler import compile_program
    from tests.test_fortran_apps import MD_FORTRAN

    plans = compile_program(fortran.parse_fortran(MD_FORTRAN)).plans
    text = "\n".join(plan.source for plan in plans)
    assert "ks.tiles(" in text
    assert re.search(r"v_j\[\.\.\.\] = _u\d+\[_r\d+\]", text), text


def test_a_loop_with_an_empty_body_still_counts_its_trips():
    """No block and no replay: the loop leaves only its trip count."""
    prog = repro.compile("""
    void k(int n, int m, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        for (int q = 0; q < m; q++) { }
        y[i] = 1.0f;
      }
    }""")
    assert "for " not in prog.kernel_source("k_L0")
    args = {"n": 8, "m": 3, "y": np.zeros(8, np.float32)}
    run = prog.run("k", args, ngpus=2)
    assert (args["y"] == 1).all()
    assert sum(c["L0"] for c in run.loop_stats[0].dyn_counts) == 24


def test_a_loop_on_csr_lanes_replays_every_statement():
    """On a CSR loop's flattened lanes a block would have no position
    vector along its trips: a trip-parallel statement replays there."""
    prog = repro.compile("""
    void k(int n, int m, int *row, float *val, float *w, float *y) {
      #pragma acc parallel loop
      for (int i = 0; i < n; i++) {
        float sum = 0.0f;
        for (int e = row[i]; e < row[i + 1]; e++) {
          float acc = 0.0f;
          for (int q = 0; q < m; q++) {
            float t = w[q] * val[e];
            acc = acc + t;
          }
          sum += acc;
        }
        y[i] = sum;
      }
    }""")
    assert "ks.tiles(" not in prog.kernel_source("k_L0")
    rng = np.random.default_rng(1)
    row = np.concatenate([[0], np.cumsum(rng.integers(0, 4, 20))])
    args = {"n": 20, "m": 5, "row": row.astype(np.int32),
            "val": rng.standard_normal(row[-1]).astype(np.float32),
            "w": rng.standard_normal(5).astype(np.float32),
            "y": np.zeros(20, np.float32)}
    want = {k: np.copy(v) for k, v in args.items()}
    prog.run("k", args, ngpus=2)
    oracle(prog).run("k", want, ngpus=2)
    np.testing.assert_allclose(args["y"], want["y"], rtol=1e-5, atol=1e-6)


def test_a_block_store_adds_trip_by_trip():
    """``ks.store`` of a block adds in C order, trip-major: bit for bit
    what storing its rows one after the other adds."""
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 4, (5, 64))
    vals = (rng.standard_normal((5, 64))
            * 10.0 ** rng.integers(-4, 5, (5, 64))).astype(np.float32)
    got, want = np.zeros(4, np.float32), np.zeros(4, np.float32)
    kernel_support.store(got, idx, vals, "+")
    for r in range(5):
        np.add.at(want, idx[r], vals[r])
    assert got.tobytes() == want.tobytes()
