#!/usr/bin/env python3
"""Host-time benchmark of the OpenACC multi-GPU simulator (README.md).

Contract mode -- one workload, one pass, one JSON object on the last
line of standard output::

    python3 perf/run.py --workload stream --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Without ``--workload`` every workload runs, both
passes, each in its own fresh process, one at a time; the metrics are
printed as a table and, with ``--out``, written as JSON for
``--compare``::

    python3 perf/run.py --seed 1 --out A.json
    python3 perf/run.py --seed 1 --out B.json
    python3 perf/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: Extra set-ups per untraced run, each in its own process; ``setup_s``
#: is the median over them and the measuring process's own.
SETUP_REPEATS = 3
#: Seconds one child may take before it is killed.
CHILD_TIMEOUT = 170


def fail(message: str) -> NoReturn:
    print(f"perf/run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Same string hashes, hence the same set and dict orders, every run.
    env["PYTHONHASHSEED"] = "0"
    # The library's own switches for the observers under measurement.
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_SANITIZE", None)
    return env


@functools.cache
def parent_probes():
    import probe

    return probe.Probes()


def run_child(mode: str, workload: str, seed: int, seconds: float,
              trace: int, extra: list[str] = ()) -> dict:
    """One fresh process; returns the JSON object it printed last.

    Its set-up clock starts here: the probe sample taken now is the one
    before its first segment (interpreter start and imports)."""
    scratch = ROOT / ".perf_tmp" / f"{os.getpid()}-{workload}-{mode}"
    samples = [parent_probes().sample() for _ in range(3)]
    before = [statistics.median(col) for col in zip(*samples)]
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--scratch", str(scratch), "--t0", repr(time.monotonic()),
           "--probe0", ",".join(map(repr, before)), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} ({mode}) still running after {CHILD_TIMEOUT}s")
    finally:
        # Also on the way out of an interrupt: no process outlives us.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()      # unless another run is using it
        except OSError:
            pass
    if proc.returncode != 0:
        fail(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 setup_repeats: int, args) -> dict:
    """The result object of the contract for one workload and pass."""
    setups = []
    for _ in range(0 if trace else setup_repeats):
        done = run_child("setup", workload, seed, 0.0, 0)
        print(f"# {workload}: set-up {done['setup_s']:.3f}s at nominal "
              f"speed, {done['setup_raw_s']:.3f}s raw", file=sys.stderr)
        setups.append(done["setup_s"])
    extra = []
    if args.rounds_out:
        extra += ["--rounds-out", args.rounds_out]
    if args.spans_out and trace:
        extra += ["--spans-out", args.spans_out]
    result = run_child("measure", workload, seed, seconds, trace, extra)
    setups.append(result.pop("setup_s"))
    if not trace:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    notes = result.pop("notes", {})
    for key, text in notes.items():
        print(f"# {workload}: {key} {text}", file=sys.stderr)
    return result


# -- every workload, as a table --------------------------------------------

def print_table(workload: str, title: str, result: dict) -> None:
    print(f"{workload} [{title}]  attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    seconds = args.seconds
    repeats = 0 if args.quick else SETUP_REPEATS
    doc = {"seed": args.seed, "seconds": seconds, "repeat": args.repeat,
           "workloads": {}}
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        entry = doc["workloads"][name] = {"end_to_end": [], "per_layer": []}
        for rep in range(args.repeat):
            seed = args.seed + rep
            passes = [("per_layer", 1)] if args.traced_only else \
                [("end_to_end", 0), ("per_layer", 1)]
            for section, trace in passes:
                result = run_workload(name, seed, seconds, trace, repeats,
                                      args)
                print_table(name, f"{section} seed={seed}", result)
                entry[section].append(result)
                merged["correct"] &= result["correct"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                for metric, m in result["metrics"].items():
                    merged["metrics"][f"{name}/{metric}"] = m
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


# -- A against B -----------------------------------------------------------

def spread(values: list[float]) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    worse = 0
    print(f"A = {path_a} (seed {a['seed']}, {a['repeat']} run(s) of "
          f"{a['seconds']}s)   B = {path_b} (seed {b['seed']}, "
          f"{b['repeat']} run(s) of {b['seconds']}s)")
    head = (f"{'workload':<13} {'metric':<12} {'A':>12} {'B':>12} "
            f"{'B/A':>7} {'bound':>6}  verdict")
    print(head)
    for name in WORKLOAD_NAMES:
        wa = a["workloads"].get(name, {}).get("end_to_end")
        wb = b["workloads"].get(name, {}).get("end_to_end")
        if not wa or not wb:
            continue
        for spec in SPEC["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            va = [r["metrics"][metric]["value"] for r in wa]
            vb = [r["metrics"][metric]["value"] for r in wb]
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = mb / ma
            change = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            noisy = [s for s in (spread(va), spread(vb))
                     if s is not None and s > bound]
            if noisy and metric != "setup_s":
                verdict = f"unresolved (spread {max(noisy):.0%} > bound)"
            elif change > bound:
                verdict = f"worse ({change:+.1%} of A)"
                worse += 1
            else:
                verdict = "ok"
            print(f"{name:<13} {metric:<12} {ma:>12.5g} {mb:>12.5g} "
                  f"{ratio:>7.3f} {bound:>6.0%}  {verdict}")
        # Failures count against the number attempted; any more is worse.
        fa = sum(r["failed"] for r in wa) / sum(r["attempted"] for r in wa)
        fb = sum(r["failed"] for r in wb) / sum(r["attempted"] for r in wb)
        verdict = "ok" if fb <= fa else "worse"
        worse += verdict == "worse"
        print(f"{name:<13} {'failed_share':<12} {fa:>12.5g} {fb:>12.5g} "
              f"{'':>7} {'0%':>6}  {verdict}")
        # The paper's clock is exact per seed: a host-speed change must
        # leave it bit-identical (serve_mix averages over however many
        # requests the run got through, so it is left out).
        la = a["workloads"][name].get("per_layer")
        lb = b["workloads"][name].get("per_layer")
        if la and lb and a["seed"] == b["seed"] and name != "serve_mix":
            for metric in ("modeled.total_s", "bus.bytes_total"):
                xa = la[0]["metrics"][metric]["value"]
                xb = lb[0]["metrics"][metric]["value"]
                verdict = "ok (identical)" if xa == xb else "worse (differs)"
                worse += xa != xb
                print(f"{name:<13} {metric:<12} {xa:>12.8g} {xb:>12.8g} "
                      f"{'':>7} {'exact':>6}  {verdict}")
    print(f"{worse} worse")
    return 1 if worse else 0


# -- entry -----------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="a tenth of the run length, one set-up; for "
                         "iteration, not for comparison")
    ap.add_argument("--traced-only", action="store_true")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds SEED, SEED+1, ...")
    ap.add_argument("--out", help="write every result as JSON")
    ap.add_argument("--spans-out", help="write the traced pass's spans (.npz)")
    ap.add_argument("--rounds-out",
                    help="write raw round times and probe samples (.json)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--self-test", action="store_true",
                    help="check the span recorder and exit")
    ap.add_argument("--child", choices=("setup", "measure"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--scratch", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--probe0", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # A terminated run unwinds like an interrupted one (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, str(HERE))
    if args.self_test:
        import spans
        print(f"span self-test: worst error {spans.self_test():.4%}")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"the program under test is not at {ROOT / 'src' / 'repro'}")
    if args.child:
        # Set-up is timed in probe-bracketed segments from the moment
        # the parent started this process: (1) interpreter start up to
        # here, (2) importing the harness and the program, (3...) the
        # phases of the workload's own set-up.
        import probe
        probes = probe.Probes()
        setup_clock = probe.SegmentClock(
            probes.sample, first=[float(x) for x in args.probe0.split(",")],
            elapsed=time.monotonic() - args.t0)
        setup_clock.mark()
        sys.path.insert(0, str(ROOT / "src"))
        import harness
        setup_clock.mark()
        return harness.main_child(args, probes, setup_clock)
    if args.quick:
        args.seconds /= 10
    if args.workload and args.trace is not None:
        # The contract: one result object, last on standard output.
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, 0 if args.quick else SETUP_REPEATS,
                              args)
        print(json.dumps(result))
        return 0        # failed ops are in the result, not the exit code
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
