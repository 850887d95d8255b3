"""Runtime helpers imported by generated kernel code.

The vectorizer emits NumPy source that calls these small utilities for
the operations that are awkward to inline: guarded gathers (predicated
lanes may carry garbage indices), bounds-checked stores, segmented range
flattening for CSR inner loops, and reduction folding.

Everything here is vectorized per the hpc-parallel guides: no
per-element Python loops.
"""

from __future__ import annotations

import math

import numpy as np


def ld(arr: np.ndarray, idx):
    """Guarded gather ``arr[idx]``.

    Under predication every lane evaluates the index expression, so
    inactive lanes may hold out-of-range indices; their values are
    discarded by the enclosing mask.  ``take``'s clip mode clamps every
    index to ``[0, size - 1]`` (negative ones too) without branching,
    like a GPU's guarded load; the plain-axis lowering emits the same
    ``np.take(..., mode="clip", out=slot)`` inline.
    """
    if isinstance(idx, np.ndarray):
        return arr.take(idx, mode="clip")
    return arr[min(max(int(idx), 0), arr.shape[0] - 1)]


def ld_span(arr: np.ndarray, lo: int, n: int, step: int = 1,
            copy: bool = False):
    """Strided gather ``arr[lo], arr[lo+step], ...`` (``n`` lanes) -- the
    :func:`ld` fast path.

    Value-identical to ``ld(arr, lo + step*arange(n))``: when ``step >=
    1`` and the span lies in the buffer it is one slice (a view;
    ``copy`` when the value may outlive a later store to the array);
    otherwise it falls back to the exact clipped gather, preserving
    guarded-load semantics for predicated lanes.
    """
    if n <= 0:
        return arr[:0]
    size = arr.shape[0]
    last = lo + (n - 1) * step
    if step >= 1 and 0 <= lo and last < size:
        sl = arr[lo:last + 1:step]
        return sl.copy() if copy else sl
    if step != 1 or size == 0:
        return arr[np.clip(lo + step * np.arange(n, dtype=np.int64), 0,
                           size - 1)]
    # Unit stride, partially out of bounds (halo loads at block edges):
    # clipping maps every underflowing index to 0 and every overflowing
    # one to the last element, so the gather is edge-padding -- two
    # fills and one slice, no index vector.
    head = min(max(-lo, 0), n)
    tail = min(max(lo + n - size, 0), n - head)
    core_lo = min(max(lo, 0), size)
    core = arr[core_lo:core_lo + n - head - tail]
    out = np.empty(n, dtype=arr.dtype)
    out[:head] = arr[0]
    out[head:head + core.shape[0]] = core
    out[head + core.shape[0]:] = arr[-1]
    return out


#: Elements the slots of one trip-axis block hold together.  A block
#: costs a fixed number of calls whatever its trips (``md_L0``: about 30
#: NumPy and ``ks`` calls and 22 slot binds), more than one trip of a
#: per-trip loop (29 calls), so it pays when it holds several trips;
#: but every trip it holds grows the scratch of a launch by ``slots``
#: elements per lane.  2**14 is the largest power of two that keeps
#: ``md_L0``'s 16 block slots at one trip per block from 1,024 lanes on,
#: within the 40 bytes per lane a launch may allocate there
#: (``tests/test_span_lowering.py``; two trips take 44).  So a block of
#: ``md_L0`` holds ``1024 // lanes`` trips -- 8 at 125 lanes, 2 at 500 --
#: and one from 513 lanes on (docs/PERFORMANCE.md, "Trip-axis lowering",
#: measures what each costs).
BLOCK_ELEMS = 16384

#: Lanes of one strip.  A GPU runs its slice as a grid of thread blocks,
#: never as one vector, and :meth:`KernelPlan.execute` runs it as
#: consecutive strips of this many lanes, so a kernel's temporaries stay
#: in cache instead of going out to memory between two operations.  A
#: strip is a cut of the slice that moves no data; a plan whose result
#: would regroup under the cut runs as one strip.  2**15 is the fastest
#: size measured on ``stream`` (docs/PERFORMANCE.md, "Lane strips").
LANE_STRIP = 32768


def tiles(lo, hi, shape: tuple, slots: int):
    """The blocks of a constant-trip loop over ``[lo, hi)`` entered on
    lanes of ``shape``: ``(first trip, trips, block shape)`` each, the
    trip axis leading (a row of the block is then contiguous, and a
    value of the lanes it was entered on broadcasts against it).  A
    block takes every trip when its ``slots`` scratch slots fit
    :data:`BLOCK_ELEMS`, one at least."""
    lo, hi = int(lo), int(hi)
    row = math.prod(shape) * max(slots, 1)
    step = max(1, min(hi - lo, BLOCK_ELEMS // max(row, 1)))
    for t in range(lo, hi, step):
        k = min(step, hi - t)
        yield t, k, (k,) + shape


def trips(first: int, k: int) -> np.ndarray:
    """The trip indices of a block as an ``int64`` column."""
    return np.arange(first, first + k, dtype=np.int64).reshape(k, 1)


def ld_block(arr: np.ndarray, lo: int, shape: tuple, steps: tuple,
             copy: bool = False, out: np.ndarray | None = None
             ) -> np.ndarray:
    """Block gather ``arr[lo + sum(steps[a] * k_a)]`` over the index
    grid of ``shape`` -- the :func:`ld_span` of a trip-axis block.

    When every element lies in the buffer it is a strided view (a step
    of 0 repeats along its axis; ``copy`` when the value may outlive a
    later store to the array); otherwise it is the exact clipped gather
    :func:`ld` performs on the same index grid.  With ``out`` the block
    is written there, and ``out`` returned.
    """
    if out is not None:
        out[...] = ld_block(arr, lo, shape, steps)
        return out
    if 0 in shape:
        return np.empty(shape, dtype=arr.dtype)
    lo = first = last = int(lo)
    item = arr.strides[0]
    # Lists, not tuples: NumPy 2.4's constructor of a buffer-backed
    # array keeps memory for tuple shape and strides on every call.
    strides = []
    for s, d in zip(steps, shape):
        s = int(s)
        strides.append(s * item)
        if s < 0:
            first += s * (d - 1)
        else:
            last += s * (d - 1)
    if 0 <= first and last < arr.shape[0]:
        view = np.ndarray(list(shape), arr.dtype, arr, lo * item, strides)
        return view.copy() if copy else view
    idx = np.full(shape, lo, dtype=np.int64)
    for axis, (s, d) in enumerate(zip(steps, shape)):
        if s:
            grid = [1] * len(shape)
            grid[axis] = d
            idx += s * np.arange(d, dtype=np.int64).reshape(grid)
    return arr.take(idx, mode="clip")


def take(arr: np.ndarray, idx: np.ndarray, base: int,
         out: np.ndarray) -> np.ndarray:
    """The clip-gather ``np.take(arr, idx - base, mode='clip', out=out)``
    of a block.

    Flat, through the array method: NumPy 2's ``np.take`` keeps about a
    hundred bytes per call it makes with a multi-dimensional index, and
    the method allocates a buffer for one.  ``out`` is a slot or a row
    of one, so its flat view is never a copy.
    """
    arr.take((idx - base).reshape(-1), mode="clip",
             out=out.reshape(-1, copy=False))
    return out


def span_out(arr: np.ndarray, lo: int, n: int, step: int = 1) -> np.ndarray:
    """Writable view ``arr[lo : lo+(n-1)*step+1 : step]`` -- the
    destination of a span store (``step >= 1``).

    A slice silently truncates where a scatter would fail, so the bounds
    are checked here: an unpredicated store outside the device buffer --
    first or last element -- is a window the compiler or the program got
    wrong, and raises like the indexed store it replaces.
    """
    if n <= 0:
        return arr[0:0]
    last = lo + (n - 1) * step
    if lo < 0 or last >= arr.shape[0]:
        raise IndexError(
            f"span store [{lo}, {last}] (step {step}) outside a buffer of "
            f"{arr.shape[0]} elements")
    return arr[lo:last + 1:step]


def store_span(arr: np.ndarray, lo: int, n: int, values, op: str = "",
               step: int = 1) -> None:
    """Strided store ``arr[lo + k*step] op= values[k]`` -- the
    :func:`store` fast path.

    The indices of a span with ``step >= 1`` are unique, so slice
    assignment equals fancy assignment and in-place ufuncs equal
    unbuffered ``ufunc.at``: results are bit-identical to ``store(arr,
    lo + step*arange(n), ...)``.  A symbolic stride that turns out below
    1 at run time has no such slice (stride 0 repeats one element) and
    takes the scatter.
    """
    if step < 1:
        store(arr, lo + step * np.arange(n, dtype=np.int64), values, op)
        return
    dst = span_out(arr, lo, n, step)
    if op == "":
        dst[...] = values
    elif op == "+":
        dst += values
    elif op == "-":
        dst -= values
    elif op == "*":
        dst *= values
    elif op == "max":
        np.maximum(dst, values, out=dst)
    elif op == "min":
        np.minimum(dst, values, out=dst)
    elif op == "&":
        dst &= values
    elif op == "|":
        dst |= values
    else:
        raise ValueError(f"unsupported store op {op!r}")


def store_span_masked(arr: np.ndarray, lo: int, n: int, values, mask) -> None:
    """Predicated contiguous store: lanes of ``[lo, lo+n)`` where ``mask``.

    Equals ``store(arr, arange(lo, lo+n)[mask], values[mask])`` for plain
    assignment -- span indices are unique, so masked copyto and scatter
    write the same lanes with the same values -- but skips building the
    index and value vectors.  Inactive lanes may legitimately fall
    outside the buffer (a data-dependent predicate guarding the edge);
    only then is the index vector built, and :func:`store` refuses an
    active lane outside it.
    """
    if 0 <= lo and lo + n <= arr.shape[0]:
        np.copyto(arr[lo:lo + n], values, where=mask)
    else:
        store(arr, np.flatnonzero(mask) + lo,
              values[mask] if np.ndim(values) else values)


def flat_ranges(lo: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(lo[k], lo[k]+cnt[k])`` for all k.

    The CSR flattening primitive: one vector holding every (i, e) pair's
    inner index, built with repeat/cumsum instead of a Python loop.
    """
    cnt = np.maximum(cnt, 0)
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(lo.astype(np.int64), cnt)
    # Offset within each segment: global position minus segment start pos.
    seg_start_pos = np.repeat(np.cumsum(cnt) - cnt, cnt)
    offsets = np.arange(total, dtype=np.int64) - seg_start_pos
    return starts + offsets


def store(arr: np.ndarray, idx, values, op: str = "") -> None:
    """Elementwise store ``arr[idx] op= values``.

    For plain assignment duplicate indices resolve last-writer-wins
    (NumPy fancy assignment), matching the benign-race semantics of a
    GPU global-memory store.  Compound ops use unbuffered ``ufunc.at``
    so duplicates accumulate, matching an atomic RMW.

    Every index must lie in the buffer, checked before anything is
    written: a negative one would silently write from the buffer's end,
    so an index outside it is a window the compiler or the program got
    wrong, and raises like :func:`span_out`.

    A trip-axis block is stored flattened in C order, trip-major as when
    the trips ran one by one: ``ufunc.at`` has a fast loop for
    one-dimensional operands only (about six times faster).
    """
    idx = np.asarray(idx)
    if idx.ndim > 1:
        if np.ndim(values):
            values = np.broadcast_to(values, idx.shape).reshape(-1)
        idx = idx.reshape(-1)
    if idx.size:
        low, high = int(idx.min()), int(idx.max())
        if low < 0 or high >= arr.shape[0]:
            raise IndexError(
                f"store index {low if low < 0 else high} outside a buffer "
                f"of {arr.shape[0]} elements")
    if op == "":
        arr[idx] = values
    elif op == "+":
        np.add.at(arr, idx, values)
    elif op == "-":
        np.subtract.at(arr, idx, values)
    elif op == "*":
        np.multiply.at(arr, idx, values)
    elif op == "max":
        np.maximum.at(arr, idx, values)
    elif op == "min":
        np.minimum.at(arr, idx, values)
    elif op == "&":
        np.bitwise_and.at(arr, idx, values)
    elif op == "|":
        np.bitwise_or.at(arr, idx, values)
    else:
        raise ValueError(f"unsupported store op {op!r}")


_RED_IDENTITY = {
    "+": 0,
    "*": 1,
    "max": -np.inf,
    "min": np.inf,
    "&": ~0,
    "|": 0,
    "^": 0,
    "&&": True,
    "||": False,
}


#: The fold of a ``max`` / ``min`` partial, and its NaN-ignoring lane fold.
_NAN_IGNORING = {"max": (max, np.fmax), "min": (min, np.fmin)}


def red_identity(op: str):
    return _RED_IDENTITY[op]


def red_fold(op: str, acc, values, mask, n_lanes: int):
    """Fold ``values`` (vector or scalar) over the lanes of ``mask`` (all
    ``n_lanes`` when None) into ``acc``."""
    v = values
    is_vec = isinstance(v, np.ndarray) and v.shape
    if mask is None:
        lanes = n_lanes
    else:
        lanes = int(np.count_nonzero(mask))
        if is_vec:
            v = v[mask]
    if lanes == 0:
        return acc
    if op == "+":
        return acc + (v.sum() if is_vec else v * lanes)
    if op == "*":
        if is_vec:
            return acc * v.prod()
        return acc * (v**lanes)
    if op in _NAN_IGNORING:
        # C's fmax / fmin: a NaN is missing data, so the number wins and
        # NaN comes out only when every operand is NaN -- at every level
        # (lanes, strips, GPUs, the host's initial value).  ``v.max()``
        # would propagate a NaN lane, and Python's ``max`` keep or drop
        # a NaN by position.
        pick, nan_ignoring = _NAN_IGNORING[op]
        m = nan_ignoring.reduce(v) if is_vec else v
        if m != m:
            return acc
        return m if acc != acc else pick(acc, m)
    if op in ("|", "||"):
        folded = bool(np.any(v)) if is_vec else bool(v)
        return (acc or folded) if op == "||" else (acc | (np.bitwise_or.reduce(v) if is_vec else v))
    if op in ("&", "&&"):
        folded = bool(np.all(v)) if is_vec else bool(v)
        return (acc and folded) if op == "&&" else (acc & (np.bitwise_and.reduce(v) if is_vec else v))
    if op == "^":
        return acc ^ (np.bitwise_xor.reduce(v) if is_vec else (v if lanes % 2 else 0))
    raise ValueError(f"unsupported reduction op {op!r}")


def tdiv(a, b):
    """C's integer ``a / b``, truncated toward zero: the floor quotient
    NumPy and Python compute, plus one where it is negative and inexact.
    A scalar keeps its Python or NumPy type."""
    q = a // b
    return q + ((q < 0) & (q * b != a))


def tmod(a, b):
    """C's integer ``a % b`` of two scalars: the remainder of
    :func:`tdiv`, with the sign of ``a`` (lanes use ``np.fmod``)."""
    return a - b * tdiv(a, b)


def cast_to(v, dtype):
    """C-style cast to a NumPy dtype, scalar- and vector-aware."""
    if isinstance(v, np.ndarray):
        return v.astype(dtype)
    return dtype(v)
