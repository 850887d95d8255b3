"""Regenerate the recorded golden-trace summaries.

Run after an intentional change to the runtime's decision structure
(new events, different transfer batching, changed loop counts) or, for
the route matrix, to the modeled schedule itself::

    PYTHONPATH=src python tests/trace_golden/update_goldens.py

Then review the JSON diffs like any other golden update: every changed
count or byte total should be explainable by the change you made.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.trace.golden import check_invariants, normalize  # noqa: E402

from tests.trace_golden.common import (  # noqa: E402
    CASES,
    CLUSTER_CASES,
    COLLECTIVE_CASES,
    GOLDEN_DIR,
    ROUTE_CASES,
    ROUTE_GOLDEN,
    cluster_golden_path,
    collective_golden_path,
    golden_path,
    route_digest,
    traced_cluster_run,
    traced_collective_run,
    traced_run,
)


def _write(path: str, summary: dict) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=False)
        f.write("\n")
    print(f"wrote {os.path.relpath(path)}")


def main() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for app, ngpus, fuse in CASES:
        run = traced_run(app, ngpus, fuse)
        check_invariants(run.tracer)
        _write(golden_path(app, ngpus, fuse), normalize(run.tracer))
    for app, nodes, gpus in CLUSTER_CASES:
        run = traced_cluster_run(app, nodes, gpus)
        check_invariants(run.tracer)
        _write(cluster_golden_path(app, nodes, gpus), normalize(run.tracer))
    for app, nodes, gpus, sched in COLLECTIVE_CASES:
        run = traced_collective_run(app, nodes, gpus, sched)
        check_invariants(run.tracer)
        _write(collective_golden_path(app, nodes, gpus, sched),
               normalize(run.tracer))
    _write(ROUTE_GOLDEN, {case: route_digest(case) for case in ROUTE_CASES})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
