"""Multi-GPU finalization of scalar reductions.

The generated kernels fold their lanes into one partial per GPU (the
first two levels of the paper's hierarchical reduction: shared-memory
within a block, then across blocks of one GPU -- both subsumed by the
vectorized lane fold).  This module performs the final level: combine
the per-GPU partials with the host's initial value and charge the tiny
device-to-host readbacks.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..translator.kernel_support import red_fold, red_identity
from ..vcuda.api import Platform
from ..vcuda.bus import CATEGORY_CPU_GPU


def finalize_scalar_reductions(
    platform: Platform,
    per_gpu_results: list[dict[str, Any]],
    per_gpu_ops: list[dict[str, str]],
    host_env: dict[str, Any],
) -> dict[str, Any]:
    """Combine partials across GPUs into the host variables.

    ``host_env`` is updated in place (OpenACC reduction semantics: the
    final value is the host's initial value combined with every
    iteration's contribution).  Returns the finalized values.
    """
    names: dict[str, str] = {}
    for ops in per_gpu_ops:
        names.update(ops)
    finalized: dict[str, Any] = {}
    for name, op in names.items():
        acc = red_identity(op)
        for g, results in enumerate(per_gpu_results):
            if name not in results:
                continue
            acc = red_fold(op, acc, np.asarray(results[name]), None, 1)
            platform.bus.d2h(g, 8)  # one scalar per GPU
        initial = host_env.get(name)
        if initial is None:
            raise KeyError(
                f"reduction variable {name!r} is not a live host variable")
        final = red_fold(op, acc, np.asarray(initial), None, 1)
        # A host scalar is a Python scalar of its C type, always: a
        # later kernel's ``out=`` proofs and NEP 50 promotion see it.
        final = int(final) if isinstance(initial, (int, np.integer)) \
            else float(final)
        host_env[name] = final
        finalized[name] = final
    if platform.bus.pending_count():
        # Only the scalar readbacks queued above belong to this step;
        # in-flight GPU-GPU traffic from the async communication layer
        # stays pending.
        platform.bus.sync_category(CATEGORY_CPU_GPU)
    return finalized
