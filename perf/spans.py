"""Span recorder: ``perf_counter`` wrappers around each layer's public
entry points, installed from ``perf/`` only.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces class and module attributes named in :data:`ENTRY_POINTS` by
timing wrappers; :func:`uninstall` puts the originals back.  Every
wrapped call appends one span -- name, op id, parent span, start, end --
to a per-thread log (the served workload runs requests on their own
threads).  Spans stay in memory; :meth:`SpanRecorder.table` turns them
into arrays when the pass ends and :meth:`SpanRecorder.save` writes
them out.

A span's *self time* is its duration minus the durations of its direct
children, so self times of all spans in one thread add up to the time
covered by that thread's root spans.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: (span name, module, attribute path).  A span name is
#: ``<layer>.<entry point group>``; several entry points may share one
#: name (the ledger reports per name).  Attribute paths with a dot are
#: class attributes; a bare name is a module-level function, which is
#: also replaced in every loaded ``repro`` module that imported it by
#: name.
ENTRY_POINTS: list[tuple[str, str, str]] = [
    ("frontend.parse", "repro.frontend.parser", "parse"),
    ("translator.compile", "repro.translator.compiler", "compile_program"),
    ("kernel.execute", "repro.translator.compiler", "KernelPlan.execute"),
    ("dirty.mark", "repro.runtime.dirty", "TwoLevelDirty.mark"),
    ("dirty.mark", "repro.runtime.dirty", "TwoLevelDirty.mark_span"),
    ("dirty.scan", "repro.runtime.dirty", "TwoLevelDirty.any_dirty"),
    ("dirty.scan", "repro.runtime.dirty", "TwoLevelDirty.dirty_slice"),
    ("dirty.scan", "repro.runtime.dirty", "TwoLevelDirty.dirty_chunks"),
    ("dirty.scan", "repro.runtime.dirty", "TwoLevelDirty.dirty_elements"),
    ("dirty.scan", "repro.runtime.dirty", "TwoLevelDirty.dirty_chunk_runs"),
    ("dirty.scan", "repro.runtime.dirty", "TwoLevelDirty.transfer_bytes"),
    ("dirty.scan", "repro.runtime.dirty", "TwoLevelDirty.clear"),
    ("writemiss.record", "repro.runtime.writemiss", "WriteMissBuffer.record"),
    ("writemiss.drain", "repro.runtime.writemiss", "WriteMissBuffer.drain"),
    ("writemiss.drain", "repro.runtime.writemiss",
     "WriteMissBuffer.drain_batched"),
    ("loader.ensure", "repro.runtime.data_loader",
     "DataLoader.ensure_for_loop"),
    ("loader.region", "repro.runtime.data_loader", "DataLoader.enter_region"),
    ("loader.region", "repro.runtime.data_loader", "DataLoader.exit_region"),
    ("loader.region", "repro.runtime.data_loader", "DataLoader.update_host"),
    ("loader.region", "repro.runtime.data_loader", "DataLoader.update_device"),
    ("comm.after_kernels", "repro.runtime.comm",
     "CommunicationManager.after_kernels"),
    ("comm.after_kernels", "repro.runtime.comm", "CommunicationManager.drain"),
    ("executor.run_loop", "repro.runtime.context", "AccExecutor.run_loop"),
    ("host.call", "repro.translator.host", "HostExecutor.call"),
    ("bus.price", "repro.vcuda.bus", "Bus.h2d"),
    ("bus.price", "repro.vcuda.bus", "Bus.d2h"),
    ("bus.price", "repro.vcuda.bus", "Bus.p2p"),
    ("bus.price", "repro.vcuda.bus", "Bus.net"),
    ("bus.price", "repro.vcuda.bus", "Bus.net_pipeline"),
    ("bus.sync", "repro.vcuda.bus", "Bus.sync"),
    ("bus.sync", "repro.vcuda.bus", "Bus.sync_split"),
    ("bus.sync", "repro.vcuda.bus", "Bus.sync_category"),
    ("platform.init", "repro.vcuda.api", "Platform.__init__"),
    ("registry.freeze", "repro.serve.registry", "freeze_program"),
    ("registry.thaw", "repro.serve.registry", "thaw_program"),
    ("registry.load_or_compile", "repro.serve.registry",
     "ProgramRegistry.load_or_compile"),
]


class MissingEntryPoint(RuntimeError):
    """A wrapped attribute no longer exists: a rename must not silently
    zero a layer, so the traced pass refuses to run."""


class _ThreadLog:
    """Spans of one thread, as flat arrays (28 bytes a span)."""

    __slots__ = ("thread_name", "op", "names", "parents", "ops", "t0", "t1",
                 "stack")

    def __init__(self, thread_name: str, op: int) -> None:
        self.thread_name = thread_name
        self.op = op
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []


@dataclass
class SpanTable:
    """Every recorded span, one row each."""

    names: list[str]        # span name per name id
    name: np.ndarray        # name id
    thread: np.ndarray      # thread-log index
    op: np.ndarray          # op id (-1: outside any op)
    parent: np.ndarray      # row of the parent span, -1 for a root
    t0: np.ndarray
    t1: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.t1 - self.t0

    @property
    def self_time(self) -> np.ndarray:
        dur = self.duration
        kids = np.bincount(self.parent[self.parent >= 0],
                           weights=dur[self.parent >= 0],
                           minlength=len(dur))
        return dur - kids

    def per_op(self, values: np.ndarray, n_ops: int) -> dict[str, np.ndarray]:
        """Sum ``values`` per (span name, op id); ops outside
        ``range(n_ops)`` are dropped."""
        keep = (self.op >= 0) & (self.op < n_ops)
        out = {}
        for nid, name in enumerate(self.names):
            m = keep & (self.name == nid)
            out[name] = np.bincount(self.op[m], weights=values[m],
                                    minlength=n_ops)
        return out


class SpanRecorder:
    """Collects spans; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Op id given to spans of the thread that called :meth:`set_op`.
        #: Threads that never call it (the service's per-request worker
        #: threads) get their op id from ``thread_op(thread name)``.
        self.thread_op: Callable[[str], int] = lambda name: -1
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            name = threading.current_thread().name
            log = _ThreadLog(name, self.thread_op(name))
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def set_op(self, op: int) -> None:
        """Spans opened by this thread from now on belong to ``op``."""
        self._log().op = op

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span called ``name``."""
        nid = self.name_id(name)
        get_log = self._log
        clock = time.perf_counter

        def traced(*args, **kwargs):
            log = get_log()
            stack = log.stack
            row = len(log.t0)
            log.names.append(nid)
            log.parents.append(stack[-1] if stack else -1)
            log.ops.append(log.op)
            log.t1.append(0.0)
            stack.append(row)
            log.t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.t1[row] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self, entry_points=None) -> None:
        """Wrap every entry point; raise if one of them is gone."""
        if self._installed:
            raise RuntimeError("span wrappers are already installed")
        for name, modname, path in (ENTRY_POINTS if entry_points is None
                                    else entry_points):
            try:
                module = importlib.import_module(modname)
                owner: Any = module
                *heads, attr = path.split(".")
                for head in heads:
                    owner = getattr(owner, head)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                self.uninstall()
                raise MissingEntryPoint(
                    f"{modname}:{path} (span {name!r}) no longer exists: "
                    f"{exc!r}; update perf/spans.py ENTRY_POINTS") from exc
            if isinstance(original, property):
                wrapped: Any = property(self.wrap(name, original.fget),
                                        original.fset, original.fdel)
            elif isinstance(original, (staticmethod, classmethod)):
                self.uninstall()
                raise MissingEntryPoint(
                    f"{modname}:{path} became a {type(original).__name__}; "
                    "perf/spans.py wraps plain functions and properties")
            else:
                wrapped = self.wrap(name, original)
            holders = [owner]
            if owner is module:
                # ``from .parser import parse`` copies the function into
                # the importer's namespace; replace those copies too.
                holders += [m for n, m in list(sys.modules.items())
                            if n.startswith("repro") and m is not module
                            and getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._installed.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    # -- reading -------------------------------------------------------------

    def table(self) -> SpanTable:
        with self._lock:
            logs = list(self._logs)
        cols: dict[str, list[np.ndarray]] = {k: [] for k in (
            "name", "thread", "op", "parent", "t0", "t1")}
        base = 0
        for ti, log in enumerate(logs):
            n = len(log.t0)
            parent = np.array(log.parents, dtype=np.int64)
            cols["name"].append(np.array(log.names, dtype=np.int64))
            cols["thread"].append(np.full(n, ti, dtype=np.int64))
            cols["op"].append(np.array(log.ops, dtype=np.int64))
            cols["parent"].append(np.where(parent >= 0, parent + base, -1))
            cols["t0"].append(np.array(log.t0, dtype=np.float64))
            cols["t1"].append(np.array(log.t1, dtype=np.float64))
            base += n
        return SpanTable(names=list(self.names), **{
            k: np.concatenate(v) if v else np.empty(
                0, np.float64 if k in ("t0", "t1") else np.int64)
            for k, v in cols.items()})

    def save(self, path) -> None:
        """Write every span to ``path`` (``.npz``)."""
        t = self.table()
        np.savez_compressed(path, names=np.array(t.names), name=t.name,
                            thread=t.thread, op=t.op, parent=t.parent,
                            t0=t.t0, t1=t.t1)


def self_test(depth: int = 3, fanout: int = 3, leaf_sleep: float = 0.004,
              threads: int = 2, tolerance: float = 0.02) -> float:
    """Synthetic nest of sleeps, run from ``threads`` threads at once.

    Each thread opens one root span over a ``fanout``-ary tree of spans
    of ``depth`` levels whose leaves sleep.  Self times of all spans of
    a thread must add up to its root span within ``tolerance``; returns
    the worst relative error seen, raises AssertionError beyond it.
    """
    rec = SpanRecorder()

    def node(level: int) -> None:
        if level == depth:
            time.sleep(leaf_sleep)
            return
        time.sleep(leaf_sleep / 4)
        for _ in range(fanout):
            levels[level + 1](level + 1)

    levels = [rec.wrap(f"level{i}", node) for i in range(depth + 1)]
    barrier = threading.Barrier(threads)

    def body(k: int) -> None:
        rec.set_op(k)
        barrier.wait()
        levels[0](0)

    workers = [threading.Thread(target=body, args=(k,), name=f"selftest-{k}")
               for k in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
        assert not w.is_alive(), "span self-test thread did not finish"
    t = rec.table()
    expected = sum(fanout ** i for i in range(depth + 1))
    worst = 0.0
    for k in range(threads):
        rows = t.op == k
        assert int(rows.sum()) == expected, (
            f"thread {k}: {int(rows.sum())} spans, expected {expected}")
        roots = rows & (t.parent < 0)
        assert int(roots.sum()) == 1, f"thread {k}: not exactly one root"
        root = float(t.duration[roots][0])
        total_self = float(t.self_time[rows].sum())
        err = abs(total_self - root) / root
        worst = max(worst, err)
        assert err <= tolerance, (
            f"thread {k}: self times sum to {total_self:.6f}s, root span is "
            f"{root:.6f}s (off by {err:.2%})")
        assert (t.self_time[rows] >= -1e-9).all(), "negative self time"
    return worst
