"""The clip-gather ``ks.ld`` was until ``701b56d``, kept as the oracle.

``ks.ld``'s vector branch is now ``arr.take(idx, mode="clip")`` and the
plain-axis lowering writes ``np.take(..., mode="clip", out=slot)``
inline; ``ld_span(arr, lo, n, step)`` gives a strided view of the same
elements.  This is the body they replaced, verbatim:
``tests/test_gather_oracle.py`` holds all three to it.
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
