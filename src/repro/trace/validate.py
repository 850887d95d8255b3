"""Trace self-check: run every example app traced, validate the output.

``python -m repro.trace.validate [outdir]`` runs each app in
:data:`repro.apps.ALL_APPS` and :data:`repro.apps.EXTRA_APPS` on 1, 2
and 4 GPUs with tracing enabled, then checks that:

* the Chrome-trace export is valid JSON that round-trips through
  ``json.loads`` and carries the expected lane metadata;
* every span/instant event has a finite, non-negative timestamp and
  duration and a known kind;
* the tracer's per-category second totals reconcile with the
  profiler's Fig. 8 breakdown (exactly for the categorized buckets,
  to float tolerance for the subtracted ``other``);
* the traced run's modeled time and result arrays are identical to an
  untraced run (the pure-observer guarantee).

With ``outdir`` given, the Chrome traces are also written there as
``<app>-<ngpus>gpu.trace.json`` for loading in Perfetto.  Exits
non-zero on the first violation; CI runs this as the trace job.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from ..api import compile as compile_acc
from ..apps import ALL_APPS, EXTRA_APPS
from ..bench.machines import machine_for
from .events import INSTANT_KINDS, SPAN_KINDS
from .export import chrome_trace, jsonl, reconcile

GPU_COUNTS = (1, 2, 4)
#: ``other`` is a subtraction in the profiler; everything else exact.
OTHER_TOL = 1e-9


class ValidationError(AssertionError):
    pass


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def validate_chrome_json(doc: dict, ngpus: int) -> None:
    """Structural checks on one Chrome-trace JSON object."""
    text = json.dumps(doc)
    doc = json.loads(text)  # must round-trip
    _check(isinstance(doc.get("traceEvents"), list), "traceEvents missing")
    names = {}
    for ev in doc["traceEvents"]:
        _check(ev.get("ph") in ("X", "i", "M"),
               f"unknown phase {ev.get('ph')!r}")
        if ev["ph"] == "M":
            if ev.get("name") == "thread_name":
                names[ev["tid"]] = ev["args"]["name"]
            continue
        ts = ev.get("ts")
        _check(isinstance(ts, (int, float)) and math.isfinite(ts)
               and ts >= 0, f"bad ts {ts!r} on {ev.get('name')!r}")
        if ev["ph"] == "X":
            dur = ev.get("dur")
            _check(isinstance(dur, (int, float)) and math.isfinite(dur)
                   and dur >= 0, f"bad dur {dur!r} on {ev.get('name')!r}")
        _check(ev.get("tid") in names,
               f"event on unnamed lane {ev.get('tid')!r}")
    expected = {f"gpu{g}" for g in range(ngpus)} | {"loader", "comm"}
    _check(set(names.values()) == expected,
           f"lane names {sorted(names.values())} != {sorted(expected)}")


def validate_events(tracer) -> None:
    """Every recorded event is well-formed."""
    known = set(SPAN_KINDS) | set(INSTANT_KINDS)
    for ev in tracer.events:
        _check(ev.kind in known, f"unknown event kind {ev.kind!r}")
        _check(math.isfinite(ev.start) and ev.start >= 0,
               f"bad start on {ev.label!r}")
        _check(math.isfinite(ev.duration) and ev.duration >= 0,
               f"bad duration on {ev.label!r}")
        if ev.kind in INSTANT_KINDS:
            _check(ev.duration == 0,
                   f"instant {ev.kind!r} has nonzero duration")
    seqs = [ev.seq for ev in tracer.events]
    _check(seqs == sorted(seqs), "event seq numbers not monotone")


def validate_reconciliation(tracer, breakdown) -> None:
    rows = reconcile(tracer, breakdown)
    for bucket, row in rows.items():
        tol = OTHER_TOL if bucket == "other" else 0.0
        _check(abs(row["residual"]) <= tol,
               f"bucket {bucket}: traced {row['traced']!r} != reported "
               f"{row['reported']!r}")


def _run(app, ngpus: int, trace: bool):
    spec = machine_for(ngpus)
    args = app.args_for("tiny")
    prog = compile_acc(app.source)
    run = prog.run(app.entry, args, machine=spec, ngpus=ngpus, trace=trace)
    return run, args


def validate_app(name: str, app, ngpus: int, outdir: str | None) -> None:
    traced, targs = _run(app, ngpus, trace=True)
    _check(traced.tracer is not None, "trace=True produced no tracer")
    validate_events(traced.tracer)
    validate_reconciliation(traced.tracer, traced.breakdown)
    doc = chrome_trace(traced.tracer)
    validate_chrome_json(doc, ngpus)
    _check(jsonl(traced.tracer).count("\n") == len(traced.tracer.events),
           "jsonl line count != event count")
    # Pure observer: identical modeled time and identical results.
    plain, pargs = _run(app, ngpus, trace=False)
    _check(plain.elapsed == traced.elapsed,
           f"tracing changed modeled time: {plain.elapsed!r} -> "
           f"{traced.elapsed!r}")
    for key, val in pargs.items():
        if isinstance(val, np.ndarray):
            _check(np.array_equal(val, targs[key]),
                   f"tracing changed result array {key!r}")
    if outdir:
        path = os.path.join(outdir, f"{name}-{ngpus}gpu.trace.json")
        with open(path, "w") as f:
            json.dump(doc, f)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    outdir = argv[0] if argv else None
    if outdir:
        os.makedirs(outdir, exist_ok=True)
    apps = dict(ALL_APPS) | dict(EXTRA_APPS)
    failures = 0
    for name, app in apps.items():
        for ngpus in GPU_COUNTS:
            try:
                validate_app(name, app, ngpus, outdir)
                print(f"ok   {name} ngpus={ngpus}")
            except ValidationError as e:
                failures += 1
                print(f"FAIL {name} ngpus={ngpus}: {e}")
    if failures:
        print(f"{failures} validation failure(s)")
        return 1
    print(f"validated {len(apps)} apps x {len(GPU_COUNTS)} GPU counts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
