"""Ablation -- kernel fusion and inter-GPU communication elision.

``fuse=False`` x ``fuse=True`` sweep of the two pipeline apps on 1, 2
and 4 GPUs:

* **gradpipe** -- three adjacent loops whose two intermediates (``t``,
  ``s``) demote to kernel-local scratch when fused, so their per-region
  host load/writeback disappears (CPU-GPU elision) along with two of
  the three launches per step.
* **phasepipe** -- three sweeps over a replica array written at a
  symbolic offset; fusion merges the two inter-member dirty-broadcast
  rounds into one, halving the Fig. 8 GPU-GPU seconds at any GPU count
  (GPU-GPU elision).

Reported metrics per cell: modeled communication seconds (the paper's
Fig. 8 CPU-GPU and GPU-GPU buckets), total traced transfer bytes,
kernel-launch count, and -- on the fused cells -- the bytes elided
relative to the unfused run.  All metrics are modeled/counted, never
wall-clock, so the checked-in ``BENCH_ablation_fusion.json`` is
bit-reproducible on any machine.

The sweep asserts the tentpole acceptance claims directly: fused
results bit-identical to unfused at every GPU count, communication
seconds strictly lower at 2 and 4 GPUs for both apps, launch counts
cut to a third, elided bytes positive wherever a transfer round was
dropped.
"""

import numpy as np

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench import write_bench_json
from repro.bench.machines import machine_for

APPS = ALL_APPS | EXTRA_APPS

GPU_COUNTS = (1, 2, 4)

WORKLOAD = "bench"


def sweep(app_name):
    spec = APPS[app_name]
    plain = repro.compile(spec.source)
    fused = repro.compile(spec.source, repro.CompileOptions(fuse=True))
    out = {}
    for g in GPU_COUNTS:
        machine = machine_for(g)
        baseline_outputs = None
        for label, prog in (("fuse=False", plain), ("fuse=True", fused)):
            args = spec.args_for(WORKLOAD)
            run = prog.run(spec.entry, args, machine=machine, ngpus=g,
                           trace=True)
            metrics = run.tracer.metrics
            out[(g, label)] = {
                "comm_cpu_gpu": run.breakdown.cpu_gpu,
                "comm_gpu_gpu": run.breakdown.gpu_gpu,
                "kernel_seconds": run.breakdown.kernels,
                "total_seconds": run.breakdown.total,
                "transfer_bytes": metrics.counter_total("transfer_bytes"),
                "kernel_launches": metrics.counter_total("kernel_launches"),
            }
            outputs = {o: np.asarray(args[o]).copy() for o in spec.outputs}
            if baseline_outputs is None:
                baseline_outputs = outputs
            else:
                for name, ref in baseline_outputs.items():
                    np.testing.assert_array_equal(
                        outputs[name], ref,
                        err_msg=f"{app_name} {name} perturbed by fusion "
                                f"at ngpus={g}")
        off, on = out[(g, "fuse=False")], out[(g, "fuse=True")]
        on["elided_bytes"] = off["transfer_bytes"] - on["transfer_bytes"]
    return out


def _render(app_name, results):
    lines = [f"Ablation -- fusion x GPUs ({app_name}, workload={WORKLOAD})",
             f"{'gpus':>4}  {'fuse':>10}  {'CPU-GPU s':>11}  "
             f"{'GPU-GPU s':>11}  {'launches':>8}  {'bytes':>10}  "
             f"{'elided':>10}"]
    for (g, label), m in results.items():
        lines.append(
            f"{g:>4}  {label:>10}  {m['comm_cpu_gpu']:>11.6f}  "
            f"{m['comm_gpu_gpu']:>11.6f}  {m['kernel_launches']:>8}  "
            f"{m['transfer_bytes']:>10}  {m.get('elided_bytes', 0):>10}")
    return "\n".join(lines)


def _check(results):
    for g in GPU_COUNTS:
        off = results[(g, "fuse=False")]
        on = results[(g, "fuse=True")]
        # One launch where there were three, at every GPU count.
        assert on["kernel_launches"] * 3 == off["kernel_launches"], g
        # Elision never invents traffic.
        assert on["elided_bytes"] >= 0, g
        assert on["transfer_bytes"] <= off["transfer_bytes"], g
        # The Fig. 8 claim: communication seconds strictly drop on
        # every multi-GPU configuration.
        if g > 1:
            comm_off = off["comm_cpu_gpu"] + off["comm_gpu_gpu"]
            comm_on = on["comm_cpu_gpu"] + on["comm_gpu_gpu"]
            assert comm_on < comm_off, (g, comm_on, comm_off)
            assert on["elided_bytes"] > 0, g


def _payload(results):
    return {f"ngpus={g},{label}": m for (g, label), m in results.items()}


def test_fusion_ablation_gradpipe(bench_once, benchmark):
    results = bench_once(sweep, "gradpipe")
    text = _render("gradpipe", results)
    print("\n" + text)
    benchmark.extra_info["table"] = text
    _check(results)
    # Scratch demotion kills the intermediates' host round-trips even
    # on one GPU.
    assert results[(1, "fuse=True")]["elided_bytes"] > 0
    write_bench_json("BENCH_ablation_fusion.json", "gradpipe",
                     _payload(results))


def test_fusion_ablation_phasepipe(bench_once, benchmark):
    results = bench_once(sweep, "phasepipe")
    text = _render("phasepipe", results)
    print("\n" + text)
    benchmark.extra_info["table"] = text
    _check(results)
    # Broadcast merging: the two inter-member dirty rounds become one,
    # so fused GPU-GPU seconds are half the unfused seconds.
    for g in (2, 4):
        off = results[(g, "fuse=False")]["comm_gpu_gpu"]
        on = results[(g, "fuse=True")]["comm_gpu_gpu"]
        np.testing.assert_allclose(on, off / 2, rtol=1e-9)
    write_bench_json("BENCH_ablation_fusion.json", "phasepipe",
                     _payload(results))
