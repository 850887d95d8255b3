"""Structured tracing & metrics for the multi-GPU runtime (opt-in).

The runtime makes many invisible decisions per parallel loop --
balancer splits, loader migrations, overlap scheduling, dirty-chunk
coalescing.  With ``AccProgram.run(..., trace=True)`` (or
``REPRO_TRACE=1``) every kernel launch, DMA transfer (tagged with the
coherence mechanism that issued it: replica broadcast, halo exchange,
write-miss replay, reduction merge ...), reload-skip hit, balancer
resplit and placement switch is recorded as a typed event with modeled
start/duration, GPU, loop, array and byte count; a metrics registry
aggregates counters and histograms per loop and per GPU.

Exporters: Chrome-trace/Perfetto JSON (one lane per GPU plus loader and
comm lanes), flat JSONL, an ASCII Gantt chart (one row per device or
link), and a per-loop summary table whose category
sums reconcile *exactly* with the profiler's Fig. 8 breakdown.

Like the sanitizer, the tracer is a pure observer: it never touches the
virtual clock, the bus schedule, or any device buffer, so modeled times
and result arrays are bit-identical with tracing on or off.
"""

from .events import (
    ALL_MECHANISMS,
    EVENT_D2H,
    EVENT_H2D,
    EVENT_KERNEL,
    EVENT_LOAD,
    EVENT_LOOP_BEGIN,
    EVENT_LOOP_END,
    EVENT_MIGRATION,
    EVENT_P2P,
    EVENT_PLACEMENT_SWITCH,
    EVENT_RELOAD_SKIP,
    EVENT_REQ_ADMITTED,
    EVENT_REQ_COMPLETED,
    EVENT_REQ_ENQUEUED,
    EVENT_REQ_FAILED,
    EVENT_REQ_PLACED,
    EVENT_REQ_REJECTED,
    EVENT_RESPLIT,
    EVENT_WRITEBACK,
    INSTANT_KINDS,
    REQUEST_KINDS,
    MECH_HALO,
    MECH_LOAD,
    MECH_MIGRATION,
    MECH_MISS_REPLAY,
    MECH_REDUCTION_BCAST,
    MECH_REDUCTION_MERGE,
    MECH_REPLICA,
    MECH_REPLICA_STAGED,
    MECH_UPDATE,
    MECH_WINDOWED,
    MECH_WRITEBACK,
    SPAN_KINDS,
    AttributionSpan,
    TraceEvent,
)
from .export import (
    chrome_trace,
    gantt,
    jsonl,
    lane_names,
    loop_summary_table,
    reconcile,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Histogram, MetricsRegistry
from .tracer import Tracer

__all__ = [
    "ALL_MECHANISMS",
    "AttributionSpan",
    "EVENT_D2H",
    "EVENT_H2D",
    "EVENT_KERNEL",
    "EVENT_LOAD",
    "EVENT_LOOP_BEGIN",
    "EVENT_LOOP_END",
    "EVENT_MIGRATION",
    "EVENT_P2P",
    "EVENT_PLACEMENT_SWITCH",
    "EVENT_RELOAD_SKIP",
    "EVENT_REQ_ADMITTED",
    "EVENT_REQ_COMPLETED",
    "EVENT_REQ_ENQUEUED",
    "EVENT_REQ_FAILED",
    "EVENT_REQ_PLACED",
    "EVENT_REQ_REJECTED",
    "EVENT_RESPLIT",
    "EVENT_WRITEBACK",
    "REQUEST_KINDS",
    "Histogram",
    "INSTANT_KINDS",
    "MECH_HALO",
    "MECH_LOAD",
    "MECH_MIGRATION",
    "MECH_MISS_REPLAY",
    "MECH_REDUCTION_BCAST",
    "MECH_REDUCTION_MERGE",
    "MECH_REPLICA",
    "MECH_REPLICA_STAGED",
    "MECH_UPDATE",
    "MECH_WINDOWED",
    "MECH_WRITEBACK",
    "MetricsRegistry",
    "SPAN_KINDS",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "gantt",
    "jsonl",
    "lane_names",
    "loop_summary_table",
    "reconcile",
    "write_chrome_trace",
    "write_jsonl",
]
