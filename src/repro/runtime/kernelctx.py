"""Per-launch kernel execution context.

One :class:`KernelContext` is built per (kernel, GPU) launch.  It gives
the kernel its iteration slice, buffer-local array views with their
global base offsets (the translator's index rewriting target), host
scalar values, and the instrumentation endpoints the generated code
calls: dirty-bit marking, checked distributed writes with miss
buffering, reduction-to-array accumulation, scalar-reduction partials,
and dynamic trip-count reporting for the cost model.

The generated kernels reach NumPy and the kernel-support helpers only
through ``ctx.np`` / ``ctx.ks``, so a context can substitute recording
versions of both (the sanitizer's window audit does), and the scalar
interpreter the tests keep as the translator's oracle runs against this
same interface.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..translator import kernel_support as ks
from ..vcuda import memory as vmem
from .dirty import TwoLevelDirty
from .partition import Block
from .writemiss import WriteMissBuffer


#: The storage of a slot not taken yet.
_NO_STORAGE = np.empty(0, dtype=np.uint8)


@functools.lru_cache(maxsize=None)
def _itemsize(dtype: type) -> int:
    return np.dtype(dtype).itemsize


class ScratchArena:
    """Reusable lane-vector scratch for the kernels of one device.

    Generated kernels keep float temporaries, float locals and fusion's
    demoted intermediates in numbered *slots* instead of allocating a
    fresh lane-length array per operation.  A slot is a raw byte buffer
    that only ever grows, so a steady-state launch allocates nothing
    (``misses`` counts the growths).  The arena is simulator memory --
    it stands for registers and shared memory, not for device DRAM --
    so it never goes through the device's ``MemoryAccountant``.

    The executor owns one arena per device for the length of a run and
    releases it when the run finishes: large slots go back to
    ``vcuda.memory.RECYCLER``, where the next run's arenas find them
    already paged in.  A context built without an arena (the sanitizer's
    shadow runs, the OpenMP baseline) gets a private one, so a shadow
    run can never share scratch with the run it shadows.
    """

    __slots__ = ("_raw", "_views", "misses")

    def __init__(self) -> None:
        self._raw: list[np.ndarray] = []
        #: Latest ``(n, dtype, view)`` handed out per slot.
        self._views: list[tuple] = []
        self.misses = 0

    def slot(self, k: int, n: int | tuple, dtype: type = np.float32
             ) -> np.ndarray:
        """Slot ``k`` as a length-``n`` vector of ``dtype`` -- or, for a
        shape tuple ``n``, a C-ordered block of that shape (contents
        unspecified)."""
        if k < len(self._views):
            ent = self._views[k]
            if ent[0] == n and ent[1] is dtype:
                return ent[2]
        if len(self._raw) <= k:
            grow = k + 1 - len(self._raw)
            self._raw += [_NO_STORAGE] * grow
            self._views += [(-1, None, None)] * grow
        size = math.prod(n) if isinstance(n, tuple) else n
        nbytes = max(0, size) * _itemsize(dtype)
        raw = self._raw[k]
        if raw.shape[0] < nbytes:
            if raw.shape[0] >= vmem.RECYCLE_FLOOR:
                vmem.RECYCLER.give(raw)
            raw = self._raw[k] = np.empty(nbytes, dtype=np.uint8) \
                if nbytes < vmem.RECYCLE_FLOOR else vmem.RECYCLER.take(nbytes)
            self.misses += 1
        view = raw[:nbytes].view(dtype)
        if isinstance(n, tuple):
            view = view.reshape(n)
        self._views[k] = (n, dtype, view)
        return view

    @property
    def nbytes(self) -> int:
        return sum(raw.shape[0] for raw in self._raw)

    def release(self) -> None:
        for raw in self._raw:
            vmem.RECYCLER.give(raw)
        self._raw.clear()
        self._views.clear()


@dataclass
class KernelContext:
    """Execution context of one kernel launch on one GPU."""

    device_index: int
    i0: int
    i1: int
    #: Buffer-local views of each array's loaded block.
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: Global index of element 0 of each local view.
    base: dict[str, int] = field(default_factory=dict)
    scalars: dict[str, Any] = field(default_factory=dict)
    #: Dirty trackers for written replicated arrays.
    dirty: dict[str, TwoLevelDirty] = field(default_factory=dict)
    #: Local windows of distributed arrays needing write checks.
    windows: dict[str, Block] = field(default_factory=dict)
    miss: dict[str, WriteMissBuffer] = field(default_factory=dict)
    #: Private reduction destinations (initialized to the op identity).
    reduction_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: Scalar-reduction partial results, set once per kernel run.
    scalar_results: dict[str, Any] = field(default_factory=dict)
    scalar_ops: dict[str, str] = field(default_factory=dict)
    #: Dynamic inner-loop trip totals, keyed by the codegen's labels.
    dyn_counts: dict[str, int] = field(default_factory=dict)
    #: Permissive mode (single-address-space executors, e.g. the OpenMP
    #: baseline): missing dirty trackers / windows / reduction copies are
    #: not errors -- writes go straight to the full arrays.
    permissive: bool = False
    #: Tracing instrumentation (:class:`repro.trace.Tracer`): write-miss
    #: and dirty-mark volumes are counted per (loop, GPU, array).  None
    #: (the default) costs one branch per instrumentation call.
    trace: Any = None
    #: Scratch slots of the span-native statements.
    arena: ScratchArena = field(default_factory=ScratchArena)
    #: Memoized lane-index vector (``_iota_key`` is its (i0, i1)).
    _iota: np.ndarray | None = None
    _iota_key: tuple[int, int] | None = None

    #: Modules exposed to generated code (an instance may override them).
    np = np
    ks = ks

    def iota(self) -> np.ndarray:
        """The launch's global lane indices ``arange(i0, i1)``, memoized
        across launches with the same geometry (the dominant case, as
        contexts are cached) and returned read-only so a stale launch
        can never corrupt it."""
        key = (self.i0, self.i1)
        if self._iota is None or self._iota_key != key:
            v = np.arange(self.i0, self.i1, dtype=np.int64)
            v.setflags(write=False)
            self._iota = v
            self._iota_key = key
        return self._iota

    # -- instrumentation endpoints -------------------------------------------------

    def mark_dirty(self, name: str, global_indices: np.ndarray) -> None:
        """Record writes to a replicated array (two-level dirty bits)."""
        tracker = self.dirty.get(name)
        if tracker is None:
            if self.permissive:
                return
            raise RuntimeError(
                f"kernel marked {name!r} dirty but no tracker was configured")
        gi = np.asarray(global_indices, dtype=np.int64)
        tracker.mark(gi)
        if self.trace is not None:
            self.trace.count_dirty(name, self.device_index, int(gi.size))

    def mark_dirty_span(self, name: str, lo: int, n: int) -> None:
        """Span form of :meth:`mark_dirty`: the writes covered global
        indices [lo, lo+n) contiguously, so the tracker sets whole
        bitset words instead of scattering an index array."""
        tracker = self.dirty.get(name)
        if tracker is None:
            if self.permissive:
                return
            raise RuntimeError(
                f"kernel marked {name!r} dirty but no tracker was configured")
        tracker.mark_span(lo, lo + n)
        if self.trace is not None:
            self.trace.count_dirty(name, self.device_index, int(n))

    def write_checked(self, name: str, global_indices: np.ndarray,
                      values: Any, op: str = "") -> None:
        """Distributed-array store with per-write window check.

        In-window writes land in the local view; misses are buffered as
        (address, value) records for the communication manager
        (section IV-D2).
        """
        win = self.windows.get(name)
        if win is None:
            if self.permissive:
                gi = np.asarray(global_indices, dtype=np.int64)
                ks.store(self.arrays[name], gi - self.base[name], values, op)
                return
            raise RuntimeError(
                f"kernel issued checked write to {name!r} without a window")
        gi = np.asarray(global_indices, dtype=np.int64)
        if gi.size == 0:
            return
        vals = values
        hit = (gi >= win.lo) & (gi < win.hi)
        local = gi[hit] - self.base[name]
        hit_vals = vals[hit] if isinstance(vals, np.ndarray) and vals.shape else vals
        if local.size:
            ks.store(self.arrays[name], local, hit_vals, op)
        if not hit.all():
            missed = ~hit
            miss_vals = (vals[missed] if isinstance(vals, np.ndarray) and vals.shape
                         else np.broadcast_to(vals, (int(missed.sum()),)))
            buf = self.miss.get(name)
            if buf is None:
                raise RuntimeError(
                    f"write miss on {name!r} but no miss buffer configured")
            buf.record(gi[missed], np.asarray(miss_vals), op)
            if self.trace is not None:
                self.trace.count_miss(name, self.device_index,
                                      int(missed.sum()))

    def write_checked_span(self, name: str, s0: int, s1: int,
                           values: Any, op: str = "") -> None:
        """Span form of :meth:`write_checked` for a contiguous global
        index range [s0, s1).

        The window intersection becomes interval arithmetic: the hit
        part is one slice store, and the out-of-window edges (left
        and/or right) are buffered as one ascending miss record --
        exactly the addresses, values and record grouping the
        index-vector path would produce for ``arange(s0, s1)``.
        """
        s0 = int(s0)
        s1 = int(s1)
        n = s1 - s0
        if n <= 0:
            return
        win = self.windows.get(name)
        is_vec = isinstance(values, np.ndarray) and values.shape
        if win is None:
            if self.permissive:
                ks.store_span(self.arrays[name], s0 - self.base[name], n,
                              values, op)
                return
            raise RuntimeError(
                f"kernel issued checked write to {name!r} without a window")
        lo_hit = min(max(s0, win.lo), s1)
        hi_hit = max(min(s1, win.hi), lo_hit)
        if hi_hit > lo_hit:
            hit_vals = values[lo_hit - s0:hi_hit - s0] if is_vec else values
            ks.store_span(self.arrays[name], lo_hit - self.base[name],
                          hi_hit - lo_hit, hit_vals, op)
        n_miss = n - (hi_hit - lo_hit)
        if n_miss:
            addrs = np.concatenate([
                np.arange(s0, lo_hit, dtype=np.int64),
                np.arange(hi_hit, s1, dtype=np.int64)])
            if is_vec:
                miss_vals = np.concatenate([
                    values[:lo_hit - s0], values[hi_hit - s0:]])
            else:
                miss_vals = np.broadcast_to(values, (n_miss,))
            buf = self.miss.get(name)
            if buf is None:
                raise RuntimeError(
                    f"write miss on {name!r} but no miss buffer configured")
            buf.record(addrs, np.asarray(miss_vals), op)
            if self.trace is not None:
                self.trace.count_miss(name, self.device_index, n_miss)

    def reduce_to_array(self, name: str, global_indices: np.ndarray,
                        values: Any, op: str) -> None:
        """Accumulate into this GPU's private reduction copy."""
        dest = self.reduction_arrays.get(name)
        if dest is None:
            if self.permissive:
                dest = self.arrays[name]
            else:
                raise RuntimeError(
                    f"reduce_to_array on {name!r} without a private copy")
        # ks.store refuses an index outside the copy before any write.
        ks.store(dest, np.asarray(global_indices, dtype=np.int64), values,
                 op if op else "+")

    def reduce_scalar(self, op: str, name: str, value: Any) -> None:
        """Report a scalar-reduction partial (folded if called twice)."""
        if name in self.scalar_results:
            value = ks.red_fold(op, self.scalar_results[name],
                                np.asarray(value), None, 1)
        self.scalar_results[name] = value
        self.scalar_ops[name] = op

    def dyn_count(self, label: str, total: int) -> None:
        self.dyn_counts[label] = self.dyn_counts.get(label, 0) + int(total)

    # -- conveniences ----------------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return max(0, self.i1 - self.i0)
