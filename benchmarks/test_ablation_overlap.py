"""Ablation A5 -- async pipelined communication and transfer coalescing.

2x2 sweep of ``overlap`` x ``coalesce`` on the two communication-bound
workloads:

* **BFS** on the supercomputer node (3 GPUs): replicated ``levels``
  array, every level broadcasts the dirty chunks to both peers across
  the QPI.  Overlap mode re-routes the fan-out through host staging
  (one D2H + two chained H2Ds beats two peer copies through the source
  link) and hides transfer tails under the slower GPUs' kernels.
* **Stencil** on the supercomputer node (3 GPUs): distributed array
  with halo exchange.  Overlap mode splits each kernel into an interior
  launch (independent of in-flight halos) and a boundary launch,
  hiding most of the exchange under the interior compute.

Reported metric: *exposed* GPU-GPU seconds -- the paper's Fig. 8 bucket.
Hidden (overlapped) communication is tracked separately and the sum is
conserved within scheduling effects.  Results are bit-identical in all
four cells (asserted structurally in tests/test_overlap.py; here we
assert the timing claims of the issue: >= 20% exposed-time reduction
and no elapsed-time regression).
"""

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench import machine, write_bench_json

CASES = {
    "bfs": ("supercomputer", 3),
    "stencil": ("supercomputer", 3),
}


def sweep(app_name):
    spec = (ALL_APPS | EXTRA_APPS)[app_name]
    machine, ngpus = CASES[app_name]
    prog = repro.compile(spec.source)
    out = {}
    for overlap in (False, True):
        for coalesce in (False, True):
            args = spec.args_for("bench")
            run = prog.run(spec.entry, args, machine=machine, ngpus=ngpus,
                           overlap=overlap, coalesce=coalesce)
            comm = run.executor.comm
            out[(overlap, coalesce)] = {
                "elapsed": run.elapsed,
                "gpu_gpu_exposed": run.breakdown.gpu_gpu,
                "gpu_gpu_hidden": run.breakdown.gpu_gpu_overlapped,
                "transactions": comm.transport.transactions,
                "coalesced_away": comm.transactions_coalesced_away,
                "staged_broadcasts": comm.transport.staged_broadcasts,
            }
    return out


def _render(app_name, results):
    lines = [f"Ablation A5 -- overlap x coalescing "
             f"({app_name}, {CASES[app_name][0]}, {CASES[app_name][1]} GPUs)",
             f"{'overlap':>8}  {'coalesce':>8}  {'elapsed s':>12}  "
             f"{'GG exposed s':>13}  {'GG hidden s':>12}  {'DMAs':>6}"]
    for (ov, co), m in results.items():
        lines.append(
            f"{str(ov):>8}  {str(co):>8}  {m['elapsed']:>12.6f}  "
            f"{m['gpu_gpu_exposed']:>13.6f}  {m['gpu_gpu_hidden']:>12.6f}  "
            f"{m['transactions']:>6}")
    return "\n".join(lines)


def _check(results):
    # Overlap cuts exposed inter-GPU time by >= 20%, whichever the
    # coalescing setting, and never makes the app slower.
    for co in (False, True):
        off = results[(False, co)]
        on = results[(True, co)]
        assert on["gpu_gpu_exposed"] <= 0.8 * off["gpu_gpu_exposed"], \
            (co, on["gpu_gpu_exposed"], off["gpu_gpu_exposed"])
        assert on["elapsed"] <= off["elapsed"] * (1 + 1e-9), co
        # What left the exposed bucket is either hidden under kernels or
        # gone entirely (host staging / tail hiding); it never just
        # vanishes from the accounting into 'other'.
        assert on["gpu_gpu_hidden"] >= 0.0
    # Synchronous mode is the paper's behavior: nothing hidden.
    assert results[(False, False)]["gpu_gpu_hidden"] == 0.0
    assert results[(False, True)]["gpu_gpu_hidden"] == 0.0


def test_overlap_coalesce_bfs(bench_once, benchmark):
    results = bench_once(sweep, "bfs")
    text = _render("bfs", results)
    print("\n" + text)
    benchmark.extra_info["table"] = text
    _check(results)
    write_bench_json(
        "BENCH_ablation_overlap.json", "bfs",
        {f"overlap={ov},coalesce={co}": m
         for (ov, co), m in results.items()},
        machine=machine("supercomputer"))


def test_overlap_coalesce_stencil(bench_once, benchmark):
    results = bench_once(sweep, "stencil")
    text = _render("stencil", results)
    print("\n" + text)
    benchmark.extra_info["table"] = text
    _check(results)
    # The stencil win comes from the interior/boundary kernel split:
    # most of the halo exchange hides under the interior launches.
    on = results[(True, False)]
    assert on["gpu_gpu_hidden"] > 0.0
    write_bench_json(
        "BENCH_ablation_overlap.json", "stencil",
        {f"overlap={ov},coalesce={co}": m
         for (ov, co), m in results.items()},
        machine=machine("supercomputer"))
