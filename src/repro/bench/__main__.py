"""Benchmark CLI: ``python -m repro.bench`` prints every regenerated
paper table and figure (modeled seconds).  Host seconds are measured by
``perf/run.py``, not here.

Options:
    --workload {tiny,test,bench}   input scale (default: bench)
    --machine {desktop,supercomputer,both}
"""

from __future__ import annotations

import argparse

from .harness import fig7, fig8, fig9, table1, table2
from .report import (
    render_fig7,
    render_fig8,
    render_fig9,
    render_table1,
    render_table2,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.bench",
                                 description=__doc__)
    ap.add_argument("--workload", default="bench",
                    choices=["tiny", "test", "bench"])
    ap.add_argument("--machine", default="both",
                    choices=["desktop", "supercomputer", "both"])
    args = ap.parse_args(argv)
    machines = (["desktop", "supercomputer"] if args.machine == "both"
                else [args.machine])

    print(render_table1(table1()))
    print()
    print(render_table2(table2(workload=args.workload)))
    for m in machines:
        print()
        print(render_fig7(fig7(m, workload=args.workload), f"Fig. 7 ({m})"))
        print()
        print(render_fig8(fig8(m, workload=args.workload), f"Fig. 8 ({m})"))
        print()
        print(render_fig9(fig9(m, workload=args.workload), f"Fig. 9 ({m})"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
