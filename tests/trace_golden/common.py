"""Shared machinery of the golden-trace tests and the update script."""

from __future__ import annotations

import functools
import hashlib
import json
import os

from repro.api import compile as compile_acc
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.translator.compiler import CompileOptions
from repro.vcuda.specs import MACHINES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
GPU_COUNTS = (1, 2, 4)
APPS = dict(ALL_APPS) | dict(EXTRA_APPS)

#: Multi-node golden matrix: node x GPU-per-node topologies for two
#: representative apps (md: replica-heavy; jacobi: halo-heavy).  The
#: 1x2 row pins that a one-node cluster traces exactly like a node.
CLUSTER_TOPOLOGIES = ((1, 2), (2, 2), (2, 4))
CLUSTER_APPS = ("md", "jacobi")
CLUSTER_CASES = [(name, nodes, gpus) for name in CLUSTER_APPS
                 for nodes, gpus in CLUSTER_TOPOLOGIES]

#: Apps with a golden for the *fused* schedule too (the ones whose
#: schedule the fusion pass actually rewrites: merged launches, elided
#: transfer rounds).  Unfusable apps compile to the identical schedule
#: under ``fuse=True`` -- the determinism matrix pins that axis.
FUSED_APPS = ("gradpipe", "phasepipe")

CASES = [(name, g, False) for name in APPS for g in GPU_COUNTS] +         [(name, g, True) for name in FUSED_APPS for g in GPU_COUNTS]


def golden_path(app: str, ngpus: int, fuse: bool = False) -> str:
    suffix = "-fused" if fuse else ""
    return os.path.join(GOLDEN_DIR, f"{app}-{ngpus}gpu{suffix}.json")


def machine_for(ngpus: int):
    spec = MACHINES["desktop"]
    return spec if ngpus <= spec.gpu_count else hypothetical_node(ngpus)


@functools.lru_cache(maxsize=None)
def traced_run(app: str, ngpus: int, fuse: bool = False):
    """One traced tiny-workload run per case, cached per session."""
    spec = APPS[app]
    prog = compile_acc(spec.source, CompileOptions(fuse=True) if fuse
                       else None)
    return prog.run(spec.entry, spec.args_for("tiny"),
                    machine=machine_for(ngpus), ngpus=ngpus, trace=True)


def load_golden(app: str, ngpus: int, fuse: bool = False) -> dict:
    with open(golden_path(app, ngpus, fuse)) as f:
        return json.load(f)


def cluster_golden_path(app: str, nodes: int, gpus_per_node: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{app}-{nodes}x{gpus_per_node}node.json")


@functools.lru_cache(maxsize=None)
def traced_cluster_run(app: str, nodes: int, gpus_per_node: int):
    """One traced tiny-workload cluster run per topology, cached."""
    spec = APPS[app]
    prog = compile_acc(spec.source)
    cluster = hypothetical_cluster(nodes, gpus_per_node)
    return prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                    ngpus=cluster.gpu_count, trace=True)


def load_cluster_golden(app: str, nodes: int, gpus_per_node: int) -> dict:
    with open(cluster_golden_path(app, nodes, gpus_per_node)) as f:
        return json.load(f)


#: Collective-schedule golden matrix: the cluster apps on multi-node
#: topologies under the forced ring and tree schedules.  The legacy
#: ``collective="none"`` schedule keeps the CLUSTER_CASES goldens
#: above byte-for-byte -- these are additional files, never edits.
COLLECTIVE_SCHEDULES = ("ring", "tree")
COLLECTIVE_TOPOLOGIES = ((2, 2), (2, 4))
COLLECTIVE_CASES = [(name, nodes, gpus, sched) for name in CLUSTER_APPS
                    for nodes, gpus in COLLECTIVE_TOPOLOGIES
                    for sched in COLLECTIVE_SCHEDULES]


def collective_golden_path(app: str, nodes: int, gpus_per_node: int,
                           schedule: str) -> str:
    return os.path.join(
        GOLDEN_DIR, f"{app}-{nodes}x{gpus_per_node}node-{schedule}.json")


@functools.lru_cache(maxsize=None)
def traced_collective_run(app: str, nodes: int, gpus_per_node: int,
                          schedule: str):
    """One traced tiny-workload collective run per case, cached."""
    spec = APPS[app]
    prog = compile_acc(spec.source)
    cluster = hypothetical_cluster(nodes, gpus_per_node)
    return prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                    ngpus=cluster.gpu_count, trace=True,
                    collective=schedule)


def load_collective_golden(app: str, nodes: int, gpus_per_node: int,
                           schedule: str) -> dict:
    with open(collective_golden_path(app, nodes, gpus_per_node,
                                     schedule)) as f:
        return json.load(f)


# -- route matrix ------------------------------------------------------------
#
# The summaries above are timing-independent (counts and bytes).  The
# route matrix pins the *modeled schedule* of every transport route
# instead: one sha256 per case over every completed bus transfer (with
# its start/end), every mechanism-tagged trace event, the elapsed time
# and the breakdown lanes, all in one golden file.  A refactor of the
# coherence or transport code must leave that file byte-identical.

ROUTE_GOLDEN = os.path.join(GOLDEN_DIR, "route_matrix.json")

#: In-place smoothing sweep.  Compiled without inference its array is a
#: dirty-bit replica the adaptive balancer demotes after a few sweeps:
#: the only way to get *windowed propagation* with real halo overlap
#: (near and cross-node), which no bundled app produces.
SMOOTH_SOURCE = r"""
void smooth(int n, int iters, float *a, float *b) {
  #pragma acc data copy(a[0:n], b[0:n])
  {
    for (int it = 0; it < iters; it++) {
      #pragma acc parallel loop
      for (int i = 1; i < n - 1; i++) {
        a[i] = (a[i - 1] + a[i + 1]) * 0.25f + b[i];
      }
    }
  }
}
"""

#: app -> run flags it always gets.  Between them the apps reach every
#: coherence mechanism: replica broadcasts (bfs, phasepipe,
#: stencil_probes), reduction merges (kmeans), halo refreshes (jacobi,
#: stencil_probes), write-miss replay (shift_scale), windowed
#: propagation (smooth) and no coherence traffic at all (md).
ROUTE_APPS = {
    "bfs": {}, "kmeans": {}, "md": {}, "jacobi": {}, "phasepipe": {},
    "shift_scale": {}, "stencil_probes": {}, "smooth": {"adaptive": True},
}
#: ``fleet-transport`` -> (nodes, GPUs per node, run flags).  The five
#: cluster transports are the ``VARIANTS`` of ``repro.bench.collectives``.
ROUTE_TRANSPORTS = {
    "4gpu-none": (1, 4, {}),
    "4gpu-auto": (1, 4, {"collective": "auto"}),
    "2x4-naive": (2, 4, {"internode": "naive"}),
    "2x4-staged": (2, 4, {}),
    "2x4-ring": (2, 4, {"collective": "ring"}),
    "2x4-tree": (2, 4, {"collective": "tree"}),
    "2x4-auto": (2, 4, {"collective": "auto"}),
}
ROUTE_PACING = {"sync": {}, "overlap": {"overlap": True, "coalesce": True}}
#: case id -> (app, (nodes, GPUs per node) or None, run flags)
ROUTE_CASES = {
    f"{app}-{transport}-{pacing}": (app, (nodes, gpus),
                                    app_flags | route_flags | flags)
    for app, app_flags in ROUTE_APPS.items()
    for transport, (nodes, gpus, route_flags) in ROUTE_TRANSPORTS.items()
    for pacing, flags in ROUTE_PACING.items()
} | {
    # The flat reduction merge (ablation baseline of the binary tree).
    "kmeans-4gpu-none-flat": ("kmeans", (1, 4), {"tree_reduction": False}),
    "kmeans-2x4-staged-flat": ("kmeans", (2, 4), {"tree_reduction": False}),
    # One near replica per node: the intra-node collective declines
    # and the direct fan-out runs under a collective transport.
    "bfs-2x2-ring-sync": ("bfs", (2, 2), {"collective": "ring"}),
    "bfs-2x2-auto-overlap": ("bfs", (2, 2), {"collective": "auto"}
                             | ROUTE_PACING["overlap"]),
    # The demotion run of tests/test_adaptive.py, on its own machine.
    "relax-desktop-adaptive": ("relax", None, {"adaptive": True}),
}


def _route_program(app: str):
    """(program, entry, args, fixed machine or None) of a route app."""
    if app == "stencil_probes":
        from repro.bench.multinode import (ENTRY, STENCIL_PROBES_SOURCE,
                                           probe_args)
        return compile_acc(STENCIL_PROBES_SOURCE), ENTRY, probe_args(), None
    if app == "smooth":
        from tests.test_adaptive import relax_args
        return (compile_acc(SMOOTH_SOURCE, CompileOptions(infer=False)),
                "smooth", relax_args(n=100_000, iters=10), None)
    if app == "relax":
        from tests.test_adaptive import RELAX_SRC, relax_args
        return (compile_acc(RELAX_SRC, CompileOptions(infer=False)), "relax",
                relax_args(n=200_000, iters=12), MACHINES["desktop"])
    spec = APPS[app]
    return compile_acc(spec.source), spec.entry, spec.args_for("tiny"), None


def route_digest(case: str) -> str:
    """sha256 of the modeled schedule of one route-matrix case."""
    app, fleet, flags = ROUTE_CASES[case]
    prog, entry, args, machine = _route_program(app)
    if machine is None:
        nodes, gpus = fleet
        machine = (hypothetical_node(gpus) if nodes == 1
                   else hypothetical_cluster(nodes, gpus))
    run = prog.run(entry, args, machine=machine, ngpus=machine.gpu_count,
                   trace=True, **flags)
    h = hashlib.sha256()
    for t in run.platform.bus.completed:
        h.update(repr((t.kind, t.src_device, t.dst_device, t.src_node,
                       t.dst_node, t.nbytes, t.start, t.end,
                       t.category)).encode())
    for e in run.tracer.events:
        if e.mechanism is not None:
            h.update(repr((e.kind, e.mechanism, e.array, e.nbytes,
                           e.start)).encode())
    bd = run.breakdown
    h.update(repr((run.elapsed, bd.kernels, bd.cpu_gpu, bd.gpu_gpu, bd.other,
                   bd.gpu_gpu_overlapped, bd.net,
                   bd.net_overlapped)).encode())
    return h.hexdigest()


def load_route_golden() -> dict:
    with open(ROUTE_GOLDEN) as f:
        return json.load(f)
