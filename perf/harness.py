"""The measuring process: set a workload up, time it, check it, and
turn rounds (and, in the traced pass, spans) into metrics.

One process measures one workload once.  ``run.py`` starts it and reads
the JSON object it prints last.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import probe
import spans
import workloads
from workloads import Round, Workload

#: Fewest timed rounds, however short ``--seconds`` is.
MIN_ROUNDS = 3

#: Shares of ``--seconds`` in the traced pass: an untraced stretch (the
#: base of ``harness.span_overhead_ratio``), the traced stretch, and the
#: observer miniature on workloads that have one.
TRACED_SPLIT = {"untraced": 0.25, "traced": 0.6, "observer": 0.15}

#: Op id of spans opened while the harness checks or prepares a round.
OUTSIDE_OP = -2

#: name -> unit of every per-layer metric, in report order
#: (``BENCHMARK.json`` is where they are declared).
PER_LAYER: dict[str, str] = {
    m["name"]: m["unit"] for m in json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    )["per_layer"]}

#: Per-layer seconds: the span names whose self times they add up.
SPAN_SECONDS = {
    "frontend.parse_s": ("frontend.parse",),
    "translator.compile_s": ("translator.compile",),
    "kernel.execute_s": ("kernel.execute",),
    "dirty.mark_s": ("dirty.mark",), "dirty.scan_s": ("dirty.scan",),
    "writemiss.record_s": ("writemiss.record",),
    "writemiss.drain_s": ("writemiss.drain",),
    "loader.ensure_s": ("loader.ensure",),
    "loader.region_s": ("loader.region",),
    "comm.after_kernels_s": ("comm.after_kernels",),
    "executor.run_loop_s": ("executor.run_loop",),
    "host.call_s": ("host.call",),
    "bus.price_s": ("bus.price", "bus.sync"),
    "platform.init_s": ("platform.init",),
    "registry.freeze_s": ("registry.freeze",),
    "registry.thaw_s": ("registry.thaw",),
    "registry.load_or_compile_s": ("registry.load_or_compile",),
}
#: Per-layer counts: calls of these span names.
SPAN_CALLS = {
    "kernel.launches": ("kernel.execute",),
    "dirty.marks": ("dirty.mark",),
    "writemiss.records": ("writemiss.record",),
    "loader.calls": ("loader.ensure", "loader.region"),
    "comm.calls": ("comm.after_kernels",),
    "bus.transfers": ("bus.price",),
}


def percentile(values, q: float) -> float:
    """The ``q`` quantile by nearest rank (no interpolation: a p90 is a
    time some op really took)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mib() -> float:
    """Peak resident set of this process.  ``VmHWM`` belongs to this
    process's own address space; ``ru_maxrss`` would start from what
    the parent held when it spawned us."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stretch:
    """A run of timed rounds, each carrying its probe samples."""

    def __init__(self, wl: Workload, probes: probe.Probes,
                 recorder: spans.SpanRecorder | None = None,
                 first_index: int = 0) -> None:
        self.wl = wl
        self.probes = probes
        #: Spans get the round's position in this stretch as op id.
        self.recorder = recorder
        #: The workload's round counter continues across stretches.
        self.first_index = first_index
        self.rounds: list[Round] = []

    def run(self, seconds: float) -> None:
        clock = time.perf_counter
        deadline = clock() + seconds
        index = self.first_index
        rec = self.recorder
        while clock() < deadline or len(self.rounds) < MIN_ROUNDS:
            if rec is not None:
                rec.set_op(index - self.first_index)
            rnd = self.wl.run_round(index, self.probes.sample)
            if rec is not None:
                rec.set_op(OUTSIDE_OP)
            self.wl.verify(rnd)         # outside the timed region
            self.rounds.append(rnd)
            gc.collect()
            index += 1

    # -- numbers -------------------------------------------------------------

    def normalise(self) -> None:
        """Per round: raw seconds, and the slowdown that turns them into
        seconds at nominal speed (each segment scaled by the probes
        around it)."""
        self.seconds = np.array([r.seconds for r in self.rounds])
        self.slowdown = self.seconds / np.array(
            [r.clock.nominal_seconds() for r in self.rounds])

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    def latencies(self, normalised: bool = True) -> list[float]:
        return [lat / (s if normalised else 1.0)
                for r, s in zip(self.rounds, self.slowdown)
                for lat in r.latencies]

    def ops_per_second(self) -> float:
        done = sum(len(r.latencies) for r in self.rounds)
        return done / float((self.seconds / self.slowdown).sum())

    def raw(self) -> dict:
        """What was measured, before any normalisation."""
        return {"probes": list(probe.PROBES),
                "samples": [r.clock.samples for r in self.rounds],
                "segments": [r.clock.segments for r in self.rounds],
                "latencies": [r.latencies for r in self.rounds]}


def end_to_end(stretch: Stretch, setup_s: float) -> dict:
    stretch.normalise()
    lat = stretch.latencies()
    if not lat:
        raise RuntimeError("no op completed; nothing to report")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_ms_p90": {"value": percentile(lat, 0.9) * 1e3, "unit": "ms"},
        "ops_per_s": {"value": stretch.ops_per_second(), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mib(), "unit": "MiB"},
    }


def serve_thread_op(first_index: int):
    """Op id of a service thread: ProgramService names a request's
    thread ``serve-<label>`` and the workload labels requests
    ``r<round>-<k>``.  Any other thread but the main one is not an op,
    which the ledger refuses."""
    def thread_op(thread_name: str) -> int:
        if thread_name.startswith("serve-r"):
            return int(thread_name[len("serve-r"):].split("-")[0]) \
                - first_index
        return OUTSIDE_OP if thread_name == "MainThread" else -1
    return thread_op


def ledger(wl: Workload, plain: Stretch, traced: Stretch,
           recorder: spans.SpanRecorder) -> dict[str, float]:
    """Per-layer numbers of one traced pass, per op."""
    plain.normalise()
    traced.normalise()
    out = dict.fromkeys(PER_LAYER, 0.0)
    table = recorder.table()
    if (table.op == -1).any():
        stray = sorted({table.names[i] for i in table.name[table.op == -1]})
        raise RuntimeError(f"spans recorded outside any op: {stray}")
    n_rounds = len(traced.rounds)
    units = sum(len(r.latencies) for r in traced.rounds)    # ops completed
    if not units:
        raise RuntimeError("no traced op completed; nothing to attribute")
    slow = traced.slowdown
    self_by = table.per_op(table.self_time, n_rounds)
    calls_by = table.per_op(np.ones(len(table.t0)), n_rounds)
    for metric, names in SPAN_SECONDS.items():
        out[metric] = sum(float((self_by[n] / slow).sum())
                          for n in names if n in self_by) / units
    for metric, names in SPAN_CALLS.items():
        out[metric] = sum(float(calls_by[n].sum())
                          for n in names if n in calls_by) / units
    out.update(wl.facts())

    # What the spans were measured against: the time an op spent where
    # spans can be -- the timed round, or, when served, admission to
    # completion on the request's own thread.
    if isinstance(wl, workloads.ServeMixWorkload):
        served = [r for r in wl.records if r[0] >= traced.first_index]
        wall_raw = sum(r[2] for r in served)
        wall = sum(r[2] / slow[r[0] - traced.first_index] for r in served)
    else:
        wall_raw = float(traced.seconds.sum())
        wall = float((traced.seconds / slow).sum())
    in_op = (table.op >= 0) & (table.op < n_rounds)
    roots = in_op & (table.parent < 0)
    out["harness.unattributed_share"] = \
        1.0 - float(table.duration[roots].sum()) / wall_raw
    if out["kernel.launches"]:
        out["executor.host_us_per_launch"] = 1e6 * (
            wall / units - out["kernel.execute_s"]) / out["kernel.launches"]

    p50_plain = statistics.median(plain.latencies())
    p50_traced = statistics.median(traced.latencies())
    out["harness.span_overhead_ratio"] = p50_traced / p50_plain
    out["harness.op_ms_p50_traced"] = p50_traced * 1e3
    out["harness.op_ms_p50_raw"] = statistics.median(
        plain.latencies(normalised=False)) * 1e3
    out["harness.machine_slowdown"] = float(np.median(plain.slowdown))
    out["harness.ops_traced"] = float(units)

    if isinstance(wl, workloads.ServeMixWorkload):
        def factor(round_index: int) -> float:
            k = round_index - traced.first_index
            return slow[k] if k >= 0 else plain.slowdown[round_index]
        waits = [r[1] / factor(r[0]) for r in wl.records]
        runs = [r[2] / factor(r[0]) for r in wl.records]
        out["scheduler.queue_wait_ms_p50"] = statistics.median(waits) * 1e3
        out["scheduler.queue_wait_ms_p90"] = percentile(waits, 0.9) * 1e3
        out["service.run_ms_p50"] = statistics.median(runs) * 1e3
        out["scheduler.rejected"] = float(sum(r.rejected
                                              for r in wl.reports))
        out["service.utilization"] = statistics.fmean(
            r.utilization for r in wl.reports)
        out["service.peak_concurrency"] = float(max(
            r.peak_concurrency for r in wl.reports))
        done = sum(r.completed for r in wl.reports)
        for metric, stat in (("registry.compiled", "compiles"),
                             ("registry.hit_memory", "memory_hits"),
                             ("registry.hit_disk", "disk_hits")):
            out[metric] = sum(r.registry_stats[stat]
                              for r in wl.reports) / done
    return out


def observer_costs(wl: Workload, seconds: float) -> dict[str, float]:
    """``trace=True`` and ``sanitize=True`` against plain runs of the
    workload's miniature, interleaved so that drift hits all three."""
    mini = wl.observer
    variants = {"plain": {}, "trace": {"trace": True},
                "sanitize": {"sanitize": True}}
    times: dict[str, list[float]] = {k: [] for k in variants}
    events = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times["plain"]) < 2:
        for key, flags in variants.items():
            rnd = mini.run_round(0, **flags)
            if rnd.failed:
                raise RuntimeError(f"observer run failed: {rnd.payload}")
            if key == "trace":
                events = sum(len(run.tracer.events)
                             for run in rnd.payload[1])
            mini.verify(rnd)
            if rnd.failed:
                raise RuntimeError(f"{key}=True changed the outputs")
            times[key].append(rnd.seconds)
    plain = statistics.median(times["plain"])
    return {"trace.on_off_ratio": statistics.median(times["trace"]) / plain,
            "sanitizer.on_off_ratio":
                statistics.median(times["sanitize"]) / plain,
            "trace.events": float(events)}


def untraced_pass(wl: Workload, probes: probe.Probes, seconds: float,
                  setup_s: float) -> tuple[dict, Stretch, dict, dict]:
    """End-to-end metrics: (metrics, stretch, notes for stderr, raw)."""
    stretch = Stretch(wl, probes)
    stretch.run(seconds)
    metrics = end_to_end(stretch, setup_s)
    ops = len(stretch.latencies())
    speeds = np.median([s for r in stretch.rounds for s in r.clock.samples],
                       axis=0) * 1e3
    notes = {
        "op_ms_p90": f"over {ops} ops, {ops - int(0.9 * ops)} at or "
                     f"beyond it",
        "machine_slowdown":
            f"median {np.median(stretch.slowdown):.3f}; probes "
            + " ".join(f"{p}={ms:.3f}ms"
                       for p, ms in zip(probe.PROBES, speeds)),
    }
    return metrics, stretch, notes, stretch.raw()


def traced_pass(wl: Workload, probes: probe.Probes, seconds: float,
                seed: int, scratch: Path,
                spans_out: str | None) -> tuple[dict, Stretch, Stretch, dict]:
    """Per-layer metrics: (metrics, untraced stretch, traced stretch,
    raw)."""
    split = dict(TRACED_SPLIT)
    if getattr(wl, "observer", None) is None:
        split["traced"] += split.pop("observer")
    plain = Stretch(wl, probes)
    plain.run(seconds * split["untraced"])
    recorder = spans.SpanRecorder()
    traced = Stretch(wl, probes, recorder, first_index=len(plain.rounds))
    if isinstance(wl, workloads.ServeMixWorkload):
        recorder.thread_op = serve_thread_op(traced.first_index)
    recorder.set_op(OUTSIDE_OP)
    recorder.install()
    try:
        traced.run(seconds * split["traced"])
    finally:
        recorder.uninstall()
    layers = ledger(wl, plain, traced, recorder)
    if "observer" in split:
        wl.observer.setup(seed, scratch)
        layers.update(observer_costs(wl, seconds * split["observer"]))
    if spans_out:
        recorder.save(spans_out)
    metrics = {k: {"value": float(layers[k]), "unit": unit}
               for k, unit in PER_LAYER.items()}
    return metrics, plain, traced, {"untraced": plain.raw(),
                                    "traced": traced.raw()}


def measure(name: str, seed: int, seconds: float, trace: bool,
            probes: probe.Probes, setup_clock: probe.SegmentClock,
            scratch: Path, setup_only: bool = False,
            spans_out: str | None = None,
            rounds_out: str | None = None) -> dict:
    """Set ``name`` up, time it for ``seconds``, return the result
    object of the contract (plus ``setup_s`` for the parent).

    ``setup_clock`` has been running since the parent started this
    process; its first segments are interpreter start and imports."""
    wl = workloads.WORKLOADS[name]()
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(seed, scratch, setup_clock.mark)
        setup_s = setup_clock.nominal_seconds()
        if setup_only:
            return {"setup_s": setup_s, "setup_raw_s": setup_clock.seconds}
        if trace:
            metrics, *stretches, raw = traced_pass(
                wl, probes, seconds, seed, scratch, spans_out)
            notes = {}
        else:
            metrics, *stretches, notes, raw = untraced_pass(
                wl, probes, seconds, setup_s)
        if rounds_out:
            Path(rounds_out).write_text(json.dumps(raw))
        failed = sum(s.failed for s in stretches)
        return {"correct": failed == 0,
                "attempted": sum(s.attempted for s in stretches),
                "failed": failed, "metrics": metrics, "setup_s": setup_s,
                "notes": notes}
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)


def main_child(args, probes: probe.Probes,
               setup_clock: probe.SegmentClock) -> int:
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), probes, setup_clock,
                     Path(args.scratch), setup_only=args.child == "setup",
                     spans_out=args.spans_out, rounds_out=args.rounds_out)
    print(json.dumps(result))
    return 0
