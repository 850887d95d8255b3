"""Trace exporters: Chrome-trace JSON, flat JSONL, ASCII Gantt chart,
summary table.

* :func:`chrome_trace` renders the event log in the Chrome Trace Event
  format (the JSON object form with ``traceEvents``), loadable in
  ``chrome://tracing`` and Perfetto.  Lanes: one row per GPU for kernel
  launches, one ``loader`` row for host-device traffic and loader
  decisions, one ``comm`` row for inter-GPU traffic and scheduler
  decisions.  Timestamps are virtual microseconds.

* :func:`jsonl` emits one JSON object per event -- the flat log for
  ad-hoc ``jq``/pandas analysis and the golden-trace normalizer.

* :func:`gantt` draws the scheduled operations as an ASCII chart, one
  row per device or link -- the quickest way to *see* overlap.

* :func:`loop_summary_table` renders the tracer's per-loop category
  seconds next to a :class:`~repro.vcuda.profiler.TimeBreakdown` and
  shows the reconciliation residual per Fig. 8 bucket (zero by
  construction; the accounting tests assert it).
"""

from __future__ import annotations

import json
from typing import Any

from ..vcuda.bus import (
    CATEGORY_CPU_GPU,
    CATEGORY_GPU_GPU,
    CATEGORY_KERNELS,
    CATEGORY_NET,
    CATEGORY_NET_OVERLAPPED,
)
from ..vcuda.profiler import TimeBreakdown
from .events import (
    EVENT_D2H,
    EVENT_H2D,
    EVENT_KERNEL,
    EVENT_NET,
    EVENT_P2P,
    SPAN_KINDS,
    TraceEvent,
)
from .tracer import Tracer

_US = 1e6  # chrome-trace timestamps are microseconds

#: Lane (tid) layout: GPUs first, then the runtime lanes.
LANE_LOADER = "loader"
LANE_COMM = "comm"
LANE_NET = "net"


def _lane(ev: TraceEvent, ngpus: int) -> int:
    if ev.kind == EVENT_KERNEL:
        return ev.gpu if ev.gpu is not None else 0
    if ev.kind == EVENT_NET:  # inter-node NIC traffic: its own lane
        return ngpus + 2
    if ev.kind in SPAN_KINDS:  # a transfer
        if ev.attrs.get("category") == CATEGORY_GPU_GPU or ev.kind == "p2p":
            return ngpus + 1
        return ngpus
    # Decision instants: loader decisions on the loader lane, scheduler
    # decisions (resplit / placement switch / loop markers) on comm.
    if ev.kind in ("reload_skip", "load", "migration", "writeback"):
        return ngpus
    return ngpus + 1


def lane_names(ngpus: int, with_net: bool = False) -> dict[int, str]:
    names = {g: f"gpu{g}" for g in range(ngpus)}
    names[ngpus] = LANE_LOADER
    names[ngpus + 1] = LANE_COMM
    if with_net:
        names[ngpus + 2] = LANE_NET
    return names


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The run as a Chrome Trace Event JSON object (Perfetto-loadable)."""
    events: list[dict[str, Any]] = []
    with_net = any(ev.kind == EVENT_NET for ev in tracer.events)
    for tid, name in lane_names(tracer.ngpus, with_net=with_net).items():
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": name}})
        events.append({"name": "thread_sort_index", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"sort_index": tid}})
    for ev in tracer.events:
        tid = _lane(ev, tracer.ngpus)
        args: dict[str, Any] = {"seq": ev.seq}
        if ev.loop is not None:
            args["loop"] = ev.loop
            args["loop_call"] = ev.loop_call
        for k, v in (("array", ev.array), ("mechanism", ev.mechanism),
                     ("src_gpu", ev.src_gpu), ("dst_gpu", ev.dst_gpu)):
            if v is not None:
                args[k] = v
        if ev.nbytes:
            args["nbytes"] = ev.nbytes
        args.update(ev.attrs)
        if ev.kind in SPAN_KINDS:
            events.append({
                "name": ev.label, "cat": ev.kind, "ph": "X", "pid": 0,
                "tid": tid, "ts": ev.start * _US,
                "dur": ev.duration * _US, "args": args,
            })
        else:
            events.append({
                "name": ev.label, "cat": ev.kind, "ph": "i", "pid": 0,
                "tid": tid, "ts": ev.start * _US, "s": "t", "args": args,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "machine": tracer.machine,
            "ngpus": tracer.ngpus,
            "clock": "virtual (modeled seconds)",
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer), f)


def jsonl(tracer: Tracer) -> str:
    """One JSON object per trace event, in emission order."""
    lines = []
    for ev in tracer.events:
        rec: dict[str, Any] = {
            "seq": ev.seq, "kind": ev.kind, "label": ev.label,
            "start": ev.start, "duration": ev.duration,
        }
        for k in ("loop", "loop_call", "gpu", "src_gpu", "dst_gpu",
                  "array", "mechanism"):
            v = getattr(ev, k)
            if v is not None:
                rec[k] = v
        if ev.nbytes:
            rec["nbytes"] = ev.nbytes
        if ev.attrs:
            rec["attrs"] = ev.attrs
        lines.append(json.dumps(rec))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        f.write(jsonl(tracer))


# -- ASCII Gantt chart ------------------------------------------------------

_GANTT_MARKS = {EVENT_KERNEL: "#", EVENT_H2D: ">", EVENT_D2H: "<",
                EVENT_P2P: "=", EVENT_NET: "~"}


def _resource_of(ev: TraceEvent) -> str:
    """The device or link a scheduled operation occupied."""
    if ev.kind == EVENT_KERNEL:
        return f"gpu{ev.gpu}"
    if ev.kind == EVENT_H2D:
        return f"pcie->gpu{ev.dst_gpu}"
    if ev.kind == EVENT_D2H:
        return f"pcie<-gpu{ev.src_gpu}"
    if ev.kind == EVENT_NET:
        return f"nic node{ev.attrs['src_node']}->node{ev.attrs['dst_node']}"
    return f"p2p gpu{ev.src_gpu}->gpu{ev.dst_gpu}"


def gantt(tracer: Tracer, width: int = 60) -> str:
    """ASCII Gantt chart of the traced run, one row per resource.

    Each row shows when its device or link was busy; overlap between
    rows is the concurrency the virtual scheduler found.
    """
    spans = [ev for ev in tracer.events if ev.kind in SPAN_KINDS]
    t1 = max((ev.end for ev in spans), default=0.0)
    if t1 <= 0:
        return "(empty timeline)"
    rows: dict[str, list[str]] = {}
    for ev in spans:
        row = rows.setdefault(_resource_of(ev), [" "] * width)
        a = int(ev.start / t1 * (width - 1))
        b = max(a + 1, int(ev.end / t1 * (width - 1)) + 1)
        row[a:b] = _GANTT_MARKS[ev.kind] * (b - a)  # end <= t1: b <= width
    label_w = max(len(r) for r in rows)
    lines = [f"{'':{label_w}}  0{'.' * (width - 8)}{t1 * 1e3:.3f}ms"]
    lines += [f"{r:{label_w}}  {''.join(rows[r])}" for r in sorted(rows)]
    lines.append(
        f"{'':{label_w}}  # kernel   > h2d   < d2h   = p2p   ~ net")
    return "\n".join(lines)


# -- per-loop summary / Fig. 8 reconciliation -------------------------------

_BUCKETS = ((CATEGORY_KERNELS, "kernels"), (CATEGORY_CPU_GPU, "cpu_gpu"),
            (CATEGORY_GPU_GPU, "gpu_gpu"), (CATEGORY_NET, "net"))


def reconcile(tracer: Tracer, breakdown: TimeBreakdown) -> dict[str, Any]:
    """Traced vs reported seconds per Fig. 8 bucket.

    The three categorized buckets and the hidden-comm bucket must match
    *exactly* (the tracer accumulates the same deltas in the same
    order as the clock); ``other`` is reported by the profiler as a
    subtraction, so its residual is float-rounding only.
    """
    totals = tracer.category_totals()
    rows = {}
    for cat, attr in _BUCKETS:
        traced = totals.get(cat, 0.0)
        reported = getattr(breakdown, attr)
        rows[attr] = {"traced": traced, "reported": reported,
                      "residual": traced - reported}
    rows["gpu_gpu_overlapped"] = {
        "traced": tracer.hidden_comm_seconds,
        "reported": breakdown.gpu_gpu_overlapped,
        "residual": tracer.hidden_comm_seconds - breakdown.gpu_gpu_overlapped,
    }
    hidden_net = tracer.category_totals().get(CATEGORY_NET_OVERLAPPED, 0.0)
    rows["net_overlapped"] = {
        "traced": hidden_net,
        "reported": breakdown.net_overlapped,
        "residual": hidden_net - breakdown.net_overlapped,
    }
    rows["other"] = {
        "traced": totals.get(None, 0.0),
        "reported": breakdown.other,
        "residual": totals.get(None, 0.0) - breakdown.other,
    }
    return rows


def loop_summary_table(tracer: Tracer,
                       breakdown: TimeBreakdown | None = None) -> str:
    """Text table: per-loop Fig. 8 buckets, totals, reconciliation."""
    rows = tracer.loop_summary()
    header = (f"{'loop':24} {'calls':>5} {'kernels':>12} {'cpu-gpu':>12} "
              f"{'gpu-gpu':>12} {'launches':>8} {'bytes':>12}")
    lines = [header, "-" * len(header)]
    sums = {CATEGORY_KERNELS: 0.0, CATEGORY_CPU_GPU: 0.0,
            CATEGORY_GPU_GPU: 0.0}
    for row in rows:
        cats = row["categories"]
        for c in sums:
            sums[c] += cats.get(c, 0.0)
        lines.append(
            f"{row['loop'][:24]:24} {row['calls']:>5} "
            f"{cats.get(CATEGORY_KERNELS, 0.0):>12.6f} "
            f"{cats.get(CATEGORY_CPU_GPU, 0.0):>12.6f} "
            f"{cats.get(CATEGORY_GPU_GPU, 0.0):>12.6f} "
            f"{int(row['kernel_launches']):>8} "
            f"{int(row['transfer_bytes']):>12}")
    lines.append("-" * len(header))
    lines.append(
        f"{'(sum)':24} {'':>5} {sums[CATEGORY_KERNELS]:>12.6f} "
        f"{sums[CATEGORY_CPU_GPU]:>12.6f} {sums[CATEGORY_GPU_GPU]:>12.6f}")
    if breakdown is not None:
        lines.append(
            f"{'(reported)':24} {'':>5} {breakdown.kernels:>12.6f} "
            f"{breakdown.cpu_gpu:>12.6f} {breakdown.gpu_gpu:>12.6f}")
    return "\n".join(lines)
