"""Retired ``kernel_support`` helpers, kept as oracles.

The clip-gather ``ks.ld`` was until ``701b56d``: ``ks.ld``'s vector
branch is now ``arr.take(idx, mode="clip")`` and the lowering writes
``np.take(..., mode="clip", out=slot)`` inline; ``ld_span(arr, lo, n,
step)`` gives a strided view of the same elements.
``tests/test_gather_oracle.py`` holds all three to it.

``bcv`` / ``msel`` / ``merge`` materialised, selected and merged the
locals of the mask lowering until ``c604189``; every local is now a slot
assigned in place, ``np.copyto(dst, v, casting='unsafe', where=mask)``
under a mask.  The dtype audit of ``tests/test_span_lowering.py`` holds
each such ``copyto`` to the ``merge(dst, bcv(v, n, dtype), mask)`` it
replaced.

The bodies are the retired ones, verbatim.
"""

import numpy as np


def ld(arr: np.ndarray, idx):
    """Guarded gather ``arr[idx]``: every index clamped to
    ``[0, size - 1]`` through a clipped index vector."""
    if isinstance(idx, np.ndarray):
        if idx.size == 0:
            return arr[idx]
        return arr[np.clip(idx, 0, arr.shape[0] - 1)]
    return arr[min(max(int(idx), 0), arr.shape[0] - 1)]


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
