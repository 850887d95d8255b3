"""Differential determinism matrix.

Every optimization flag in the runtime (communication overlap, transfer
coalescing, adaptive mapping, tracing, the sanitizer) is documented as
changing *timing only*, never results.  This suite pins that claim as a
matrix: for each example app, every flag combination must produce
bit-identical output arrays at a fixed GPU count, and the plain run
must be bit-identical across 1/2/4 GPUs.

The one principled exception: kmeans performs float32 ``+`` reductions
whose association order depends on the split, so across *GPU counts*
its centers are only ``allclose`` (measured max divergence ~6e-5 on
the tiny workload) and its integer cluster assignments -- which flip
chaotically once centers drift by an ulp -- are checked via the app's
own semantic validator instead of equality.  Across *flag combos* at a
fixed GPU count the split is unchanged, so even kmeans must be
bit-identical.
"""

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.vcuda.specs import MACHINES

APPS = {**ALL_APPS, **EXTRA_APPS}

#: Apps whose plain runs are bit-identical across GPU counts (all but
#: kmeans: no float reductions whose grouping follows the split).
BIT_IDENTICAL_ACROSS_GPUS = [n for n in APPS if n != "kmeans"]

#: Baseline is all-off; each single flag plus the everything-on combo.
FLAG_COMBOS = [
    {"overlap": True},
    {"coalesce": True},
    {"adaptive": True},
    {"trace": True},
    {"sanitize": True},
    # fuse=True rewrites the kernel schedule itself (merged launches,
    # elided inter-loop communication, scratch-demoted intermediates);
    # results must still be bit-identical to the unfused baseline.
    {"fuse": True},
    # collective=ring/tree reschedules replica broadcasts and staged
    # exchanges through the collective engine (hub-local ring chains /
    # binomial trees + the chunked progress engine); pure re-pricing,
    # so results must match the legacy "none" schedule bit for bit.
    {"collective": "ring"},
    {"collective": "tree"},
    {"overlap": True, "coalesce": True, "adaptive": True,
     "trace": True, "sanitize": True},
    {"overlap": True, "coalesce": True, "adaptive": True,
     "trace": True, "sanitize": True, "fuse": True},
]

COMBO_IDS = ["+".join(k if isinstance(v, bool) else f"{k}={v}"
                      for k, v in sorted(c.items()))
             for c in FLAG_COMBOS]


def machine_for(ngpus):
    spec = MACHINES["desktop"]
    return spec if ngpus <= spec.gpu_count else hypothetical_node(ngpus)


def run_app(name, ngpus, **flags):
    spec = APPS[name]
    # ``fuse`` is a compile-time axis, not a runtime flag.
    options = repro.CompileOptions(fuse=True) if flags.pop("fuse", False) \
        else None
    prog = repro.compile(spec.source, options)
    args = spec.args_for("tiny")
    snap = spec.snapshot(args)
    prog.run(spec.entry, args, machine=machine_for(ngpus), ngpus=ngpus,
             **flags)
    arrays = {k: v for k, v in args.items() if isinstance(v, np.ndarray)}
    return arrays, args, snap


@pytest.fixture(scope="module")
def baselines():
    """Plain (all flags off) outputs per app, per GPU count."""
    return {(name, g): run_app(name, g)[0]
            for name in APPS for g in (1, 2, 4)}


@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=COMBO_IDS)
@pytest.mark.parametrize("app_name", list(APPS))
def test_flags_never_change_results(app_name, flags, baselines):
    """At a fixed GPU count every flag combo is bit-identical to the
    plain run -- for every app, kmeans included."""
    base = baselines[(app_name, 2)]
    arrays, _, _ = run_app(app_name, 2, **flags)
    for name, a in arrays.items():
        np.testing.assert_array_equal(
            a, base[name],
            err_msg=f"{app_name}.{name} perturbed by {flags}")


@pytest.mark.parametrize("ngpus", [2, 4])
@pytest.mark.parametrize("app_name", BIT_IDENTICAL_ACROSS_GPUS)
def test_bit_identical_across_gpu_counts(app_name, ngpus, baselines):
    base = baselines[(app_name, 1)]
    multi = baselines[(app_name, ngpus)]
    for name, a in base.items():
        np.testing.assert_array_equal(
            multi[name], a,
            err_msg=f"{app_name}.{name} differs at ngpus={ngpus}")


@pytest.mark.parametrize("ngpus", [2, 4])
def test_kmeans_close_across_gpu_counts(ngpus, baselines):
    """kmeans floats reassociate with the split: centers must stay
    within float32 reduction noise, and the run must still satisfy the
    app's own semantic check."""
    base = baselines[("kmeans", 1)]
    np.testing.assert_allclose(
        baselines[("kmeans", ngpus)]["new_centers"], base["new_centers"],
        rtol=1e-4, atol=1e-4)
    _, args, snap = run_app("kmeans", ngpus)
    APPS["kmeans"].check(args, snap)


#: Node axis: the same four GPUs as one node, two nodes of two, and
#: four single-GPU nodes.  The split and hence the float association
#: is fixed by the flattened GPU count, so results must be
#: bit-identical across topologies -- kmeans included.
NODE_TOPOLOGIES = [(1, 4), (2, 2), (4, 1)]
NODE_IDS = [f"{n}x{g}" for n, g in NODE_TOPOLOGIES]


@pytest.mark.parametrize(("nodes", "gpus"), NODE_TOPOLOGIES, ids=NODE_IDS)
@pytest.mark.parametrize("app_name", list(APPS))
def test_bit_identical_across_node_topologies(app_name, nodes, gpus,
                                              baselines):
    """Re-sharding four GPUs across 1/2/4 nodes never changes results:
    the NIC tier and staged exchange are timing-only, like every other
    transport."""
    spec = APPS[app_name]
    base = baselines[(app_name, 4)]
    prog = repro.compile(spec.source)
    args = spec.args_for("tiny")
    cluster = hypothetical_cluster(nodes, gpus)
    prog.run(spec.entry, args, machine=cluster, ngpus=4)
    for name, a in base.items():
        np.testing.assert_array_equal(
            args[name], a,
            err_msg=f"{app_name}.{name} differs on {nodes}x{gpus} topology")


@pytest.mark.parametrize("app_name", list(APPS))
def test_repeated_runs_identical(app_name):
    """Two identical invocations (fresh compile each) are bit-identical:
    no hidden global state, wall-clock, or RNG leaks into results."""
    a, _, _ = run_app(app_name, 2, adaptive=True, trace=True)
    b, _, _ = run_app(app_name, 2, adaptive=True, trace=True)
    for name in a:
        np.testing.assert_array_equal(
            a[name], b[name], err_msg=f"{app_name}.{name} not reproducible")
