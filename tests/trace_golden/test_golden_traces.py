"""Golden-trace regression tests.

Every example app runs traced on 1/2/4 GPUs; the trace must (a) satisfy
the structural invariants every trace satisfies, (b) normalize to
exactly the recorded golden summary (counts, orderings, byte totals --
no timestamps, so cost-model changes don't churn these), and (c)
reconcile bit-exactly with the profiler's Fig. 8 breakdown.

Goldens live in ``goldens/``; regenerate intentionally with
``python tests/trace_golden/update_goldens.py`` and review the diff.
"""

from __future__ import annotations

import os

import pytest

from repro.trace.export import reconcile
from repro.trace.golden import check_invariants, diff, normalize

from .common import (
    CASES,
    CLUSTER_CASES,
    COLLECTIVE_CASES,
    ROUTE_CASES,
    cluster_golden_path,
    collective_golden_path,
    golden_path,
    load_cluster_golden,
    load_collective_golden,
    load_golden,
    load_route_golden,
    route_digest,
    traced_cluster_run,
    traced_collective_run,
    traced_run,
)

CASE_IDS = [f"{app}-{g}gpu" + ("-fused" if fuse else "")
            for app, g, fuse in CASES]
CLUSTER_IDS = [f"{app}-{n}x{g}node" for app, n, g in CLUSTER_CASES]
COLLECTIVE_IDS = [f"{app}-{n}x{g}node-{s}"
                  for app, n, g, s in COLLECTIVE_CASES]


@pytest.mark.parametrize(("app", "ngpus", "fuse"), CASES, ids=CASE_IDS)
def test_trace_invariants(app, ngpus, fuse):
    run = traced_run(app, ngpus, fuse)
    assert run.tracer is not None
    check_invariants(run.tracer)


@pytest.mark.parametrize(("app", "ngpus", "fuse"), CASES, ids=CASE_IDS)
def test_trace_matches_golden(app, ngpus, fuse):
    path = golden_path(app, ngpus, fuse)
    assert os.path.exists(path), (
        f"no golden for {app} ngpus={ngpus} fuse={fuse}; run "
        "tests/trace_golden/update_goldens.py")
    run = traced_run(app, ngpus, fuse)
    summary = normalize(run.tracer)
    problems = diff(summary, load_golden(app, ngpus, fuse))
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(("app", "ngpus", "fuse"), CASES, ids=CASE_IDS)
def test_trace_reconciles_with_breakdown(app, ngpus, fuse):
    """Fig. 8 accounting identity: traced category seconds equal the
    profiler's reported breakdown exactly (``other`` to float
    tolerance, being a subtraction in the profiler)."""
    run = traced_run(app, ngpus, fuse)
    rows = reconcile(run.tracer, run.breakdown)
    for bucket, row in rows.items():
        tol = 1e-9 if bucket == "other" else 0.0
        assert abs(row["residual"]) <= tol, (
            f"{bucket}: traced {row['traced']!r} != reported "
            f"{row['reported']!r}")


@pytest.mark.parametrize(("app", "ngpus", "fuse"), CASES, ids=CASE_IDS)
def test_trace_byte_totals_match_bus(app, ngpus, fuse):
    """Traced transfer bytes equal what the bus actually moved."""
    run = traced_run(app, ngpus, fuse)
    summary = normalize(run.tracer)
    bus = run.platform.bus
    for kind in ("h2d", "d2h", "p2p"):
        traced = summary["transfer_bytes"].get(kind, 0)
        assert traced == bus.bytes_moved(kind), (
            f"{kind}: traced {traced} != bus {bus.bytes_moved(kind)}")


# -- multi-node topologies ---------------------------------------------------


@pytest.mark.parametrize(("app", "nodes", "gpus"), CLUSTER_CASES,
                         ids=CLUSTER_IDS)
def test_cluster_trace_invariants(app, nodes, gpus):
    run = traced_cluster_run(app, nodes, gpus)
    assert run.tracer is not None
    check_invariants(run.tracer)


@pytest.mark.parametrize(("app", "nodes", "gpus"), CLUSTER_CASES,
                         ids=CLUSTER_IDS)
def test_cluster_trace_matches_golden(app, nodes, gpus):
    path = cluster_golden_path(app, nodes, gpus)
    assert os.path.exists(path), (
        f"no golden for {app} {nodes}x{gpus}node; run "
        "tests/trace_golden/update_goldens.py")
    run = traced_cluster_run(app, nodes, gpus)
    summary = normalize(run.tracer)
    problems = diff(summary, load_cluster_golden(app, nodes, gpus))
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(("app", "nodes", "gpus"), CLUSTER_CASES,
                         ids=CLUSTER_IDS)
def test_cluster_trace_reconciles_with_breakdown(app, nodes, gpus):
    """The Fig. 8 identity holds per node-extended bucket set: the NET
    lane reconciles exactly like the single-node categories."""
    run = traced_cluster_run(app, nodes, gpus)
    rows = reconcile(run.tracer, run.breakdown)
    for bucket, row in rows.items():
        tol = 1e-9 if bucket == "other" else 0.0
        assert abs(row["residual"]) <= tol, (
            f"{bucket}: traced {row['traced']!r} != reported "
            f"{row['reported']!r}")


@pytest.mark.parametrize(("app", "nodes", "gpus"), CLUSTER_CASES,
                         ids=CLUSTER_IDS)
def test_cluster_trace_byte_totals_match_bus(app, nodes, gpus):
    """Traced bytes equal bus bytes per kind, the NIC lane included."""
    run = traced_cluster_run(app, nodes, gpus)
    summary = normalize(run.tracer)
    bus = run.platform.bus
    for kind in ("h2d", "d2h", "p2p", "net"):
        traced = summary["transfer_bytes"].get(kind, 0)
        assert traced == bus.bytes_moved(kind), (
            f"{kind}: traced {traced} != bus {bus.bytes_moved(kind)}")
    if nodes > 1:
        assert summary["transfer_bytes"].get("net", 0) > 0, (
            "multi-node run never touched the NIC")


# -- collective schedules -----------------------------------------------------


@pytest.mark.parametrize(("app", "nodes", "gpus", "sched"),
                         COLLECTIVE_CASES, ids=COLLECTIVE_IDS)
def test_collective_trace_invariants(app, nodes, gpus, sched):
    run = traced_collective_run(app, nodes, gpus, sched)
    assert run.tracer is not None
    check_invariants(run.tracer)


@pytest.mark.parametrize(("app", "nodes", "gpus", "sched"),
                         COLLECTIVE_CASES, ids=COLLECTIVE_IDS)
def test_collective_trace_matches_golden(app, nodes, gpus, sched):
    path = collective_golden_path(app, nodes, gpus, sched)
    assert os.path.exists(path), (
        f"no golden for {app} {nodes}x{gpus}node-{sched}; run "
        "tests/trace_golden/update_goldens.py")
    run = traced_collective_run(app, nodes, gpus, sched)
    summary = normalize(run.tracer)
    problems = diff(summary, load_collective_golden(app, nodes, gpus, sched))
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(("app", "nodes", "gpus", "sched"),
                         COLLECTIVE_CASES, ids=COLLECTIVE_IDS)
def test_collective_trace_reconciles_with_breakdown(app, nodes, gpus, sched):
    """The Fig. 8 accounting identity survives collective scheduling:
    chunked pipelines and relayed hops still attribute every traced
    second to exactly one breakdown bucket."""
    run = traced_collective_run(app, nodes, gpus, sched)
    rows = reconcile(run.tracer, run.breakdown)
    for bucket, row in rows.items():
        tol = 1e-9 if bucket == "other" else 0.0
        assert abs(row["residual"]) <= tol, (
            f"{bucket}: traced {row['traced']!r} != reported "
            f"{row['reported']!r}")


@pytest.mark.parametrize(("app", "nodes", "gpus", "sched"),
                         COLLECTIVE_CASES, ids=COLLECTIVE_IDS)
def test_collective_trace_byte_totals_match_bus(app, nodes, gpus, sched):
    """Traced bytes equal bus bytes per kind under ring/tree too."""
    run = traced_collective_run(app, nodes, gpus, sched)
    summary = normalize(run.tracer)
    bus = run.platform.bus
    for kind in ("h2d", "d2h", "p2p", "net"):
        traced = summary["transfer_bytes"].get(kind, 0)
        assert traced == bus.bytes_moved(kind), (
            f"{kind}: traced {traced} != bus {bus.bytes_moved(kind)}")
    assert summary["transfer_bytes"].get("net", 0) > 0, (
        "collective run never touched the NIC")


# -- route matrix -------------------------------------------------------------


def test_route_matrix_golden_lists_every_case():
    assert list(load_route_golden()) == list(ROUTE_CASES)


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_route_matrix_schedule_matches_golden(case):
    """The modeled schedule of this route -- every transfer with its
    start and end, every mechanism tag, elapsed and the breakdown
    lanes -- is exactly the recorded one."""
    assert route_digest(case) == load_route_golden()[case], (
        f"modeled schedule of {case} moved; if intended, regenerate with "
        "tests/trace_golden/update_goldens.py and explain the diff")
