"""Runtime helpers imported by generated kernel code.

The vectorizer emits NumPy source that calls these small utilities for
the operations that are awkward to inline: guarded gathers (predicated
lanes may carry garbage indices), lane selection, segmented range
flattening for CSR inner loops, and reduction folding.

Everything here is vectorized per the hpc-parallel guides: no
per-element Python loops.
"""

from __future__ import annotations

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

    Equals ``store(arr, arange(lo, lo+n)[mask], bcv(values)[mask])`` for
    plain assignment -- span indices are unique, so masked copyto and
    gather/scatter write the same lanes with the same values -- but
    skips building the index and value gather vectors.  Inactive lanes
    may legitimately fall outside the buffer (a data-dependent predicate
    guarding the edge); only then is the index vector built.
    """
    if 0 <= lo and lo + n <= arr.shape[0]:
        np.copyto(arr[lo:lo + n], values, where=mask)
    else:
        store(arr, np.flatnonzero(mask) + lo, msel(bcv(values, n), mask))


def msel(v, mask):
    """Select active lanes of ``v`` (scalar values pass through)."""
    if mask is None:
        return v
    if isinstance(v, np.ndarray) and v.shape:
        return v[mask]
    return v


def bcv(v, n: int, dtype=None):
    """Materialize ``v`` as a length-``n`` lane vector (writable)."""
    arr = np.asarray(v)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if arr.ndim == 0:
        return np.full(n, arr)
    if arr.shape[0] != n:
        raise ValueError(f"lane vector of length {arr.shape[0]} != {n}")
    return np.array(arr) if not arr.flags.writeable else arr


def lanes_of(mask, n: int) -> int:
    """Number of active lanes under ``mask`` (or all ``n``)."""
    return int(mask.sum()) if mask is not None else n


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


def merge(old, new, mask):
    """Masked merge for local-variable assignment under predication."""
    if mask is None:
        if isinstance(old, np.ndarray) and old.shape and not (
            isinstance(new, np.ndarray) and new.shape
        ):
            out = old.copy()
            out[...] = new
            return out
        return np.asarray(new) if isinstance(new, np.ndarray) else new
    return np.where(mask, new, old)


def store(arr: np.ndarray, idx, values, op: str = "") -> None:
    """Elementwise store ``arr[idx] op= values``.

    For plain assignment duplicate indices resolve last-writer-wins
    (NumPy fancy assignment), matching the benign-race semantics of a
    GPU global-memory store.  Compound ops use unbuffered ``ufunc.at``
    so duplicates accumulate, matching an atomic RMW.
    """
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


def red_identity(op: str):
    return _RED_IDENTITY[op]


def red_fold(op: str, acc, values, mask, n_lanes: int):
    """Fold ``values`` (vector or scalar) over active lanes into ``acc``."""
    lanes = lanes_of(mask, n_lanes)
    if lanes == 0:
        return acc
    v = msel(values, mask)
    is_vec = isinstance(v, np.ndarray) and v.shape
    if op == "+":
        return acc + (v.sum() if is_vec else v * lanes)
    if op == "*":
        if is_vec:
            return acc * v.prod()
        return acc * (v**lanes)
    if op == "max":
        m = v.max() if is_vec else v
        return max(acc, m)
    if op == "min":
        m = v.min() if is_vec else v
        return min(acc, m)
    if op in ("|", "||"):
        folded = bool(np.any(v)) if is_vec else bool(v)
        return (acc or folded) if op == "||" else (acc | (np.bitwise_or.reduce(v) if is_vec else v))
    if op in ("&", "&&"):
        folded = bool(np.all(v)) if is_vec else bool(v)
        return (acc and folded) if op == "&&" else (acc & (np.bitwise_and.reduce(v) if is_vec else v))
    if op == "^":
        return acc ^ (np.bitwise_xor.reduce(v) if is_vec else (v if lanes % 2 else 0))
    raise ValueError(f"unsupported reduction op {op!r}")


def cast_to(v, dtype):
    """C-style cast to a NumPy dtype, scalar- and vector-aware."""
    if isinstance(v, np.ndarray):
        return v.astype(dtype)
    return dtype(v)
