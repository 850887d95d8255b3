"""``localaccess`` window auditor.

The paper's distribution-based placement trusts the programmer's
``localaccess`` declaration: each GPU loads only the declared
per-iteration read window (plus halo) of a distributed array.  An
*under-declared* window is a user-level race the model cannot express
-- iteration ``i`` reads an element its GPU never loaded, and on real
hardware gets stale or unmapped memory.

The auditor rides on the shadow oracle's audit pass, which launches the
loop's generated kernel one iteration at a time with recording ``np`` /
``ks`` modules (:class:`AuditedModules`): every buffer access is mapped
back to its array and reported to a hook that keeps the actual
per-iteration index span, and :meth:`LocalAccessAuditor.verify`
evaluates the declared bounds
(``stride(s, l, r)`` -> ``s*i - l .. s*(i+1) - 1 + r``, plus the
range/bounds forms) for each recorded iteration.  Any access outside
the declared window raises :class:`CoherenceViolation` naming the
loop, array, and offending index range.
"""

from __future__ import annotations

import types
from typing import Any, Callable

import numpy as np

from ..runtime.data_loader import DataLoader
from ..runtime.partition import window_bounds
from ..translator import kernel_support
from ..translator.array_config import ArrayConfig, Placement, WriteHandling
from .violations import CoherenceViolation

#: spans: array name -> iteration -> [min index, max index] accessed.
Spans = dict[str, dict[int, list[int]]]


def audited_windows(configs: dict[str, ArrayConfig]) -> dict[str, str]:
    """Arrays the auditor checks in one loop: name -> window origin.

    Two kinds of active window are audited, with distinct violation
    kinds so the report names the right culprit:

    * ``"declared"`` -- a user ``localaccess`` directive (other than
      ``all``, which keeps replica placement and cannot race).  A
      violation is a *user error* (``localaccess-underdeclared``).
    * ``"inferred"`` -- a window the inference pass adopted.  A
      violation is a *compiler bug* (``localaccess-inference-unsound``):
      inference promised the window covers every access.

    The adaptive advisor's replica demotion candidates
    (``cfg.inferred_window`` on REPLICA arrays) are not audited: the
    array is replicated, every GPU holds all of it, and no read can
    miss.  ``repro.explain`` uses this same predicate to report which
    placements a sanitized run cross-checks.
    """
    out: dict[str, str] = {}
    for name, cfg in configs.items():
        if cfg.placement != Placement.DISTRIBUTED or cfg.window is None:
            continue
        if cfg.window.spec is not None and cfg.window.spec.kind == "all":
            continue
        out[name] = cfg.window.origin
    return out


class LocalAccessAuditor:
    """Records and validates actual access spans per iteration."""

    def __init__(self, loader: DataLoader) -> None:
        self.loader = loader
        #: Telemetry: (loop, array) pairs audited.
        self.audited = 0

    def recorder(self, configs: dict[str, ArrayConfig],
                 ) -> tuple[Callable[..., None] | None, Spans]:
        """Build the access hook for one loop's shadow run.

        Every active distribution window is audited -- user-declared
        *and* compiler-inferred (see :func:`audited_windows`); a
        too-narrow inferred window is an inference-pass bug and must
        surface in sanitized runs, not silently read stale halo.  Write
        misses on miss-checked arrays are legal (the runtime replays
        them), so their writes are exempt; reads never are.
        """
        targets = set(audited_windows(configs))
        if not targets:
            return None, {}
        miss_exempt = {
            name for name in targets
            if configs[name].write_handling == WriteHandling.MISS_CHECK
        }
        spans: Spans = {name: {} for name in targets}

        def hook(name: str, iteration: int | None, idx: int,
                 kind: str) -> None:
            if name not in spans or iteration is None:
                return
            if kind == "w" and name in miss_exempt:
                return
            per_iter = spans[name]
            cur = per_iter.get(iteration)
            if cur is None:
                per_iter[iteration] = [idx, idx]
            elif idx < cur[0]:
                cur[0] = idx
            elif idx > cur[1]:
                cur[1] = idx

        return hook, spans

    def verify(self, plan: Any, configs: dict[str, ArrayConfig],
               spans: Spans, host_env: dict[str, Any]) -> None:
        """Check every recorded span against the declared window."""
        if not any(spans.values()):
            return
        env = self.loader.bound_env(host_env)
        for name, per_iter in spans.items():
            if not per_iter:
                continue
            window = configs[name].window
            assert window is not None
            lower, upper = window_bounds(window, plan.loop_var)
            self.audited += 1
            for it in sorted(per_iter):
                mn, mx = per_iter[it]
                lo = lower(it, env)
                hi = upper(it, env)
                if mn < lo or mx > hi:
                    if window.origin == "inferred":
                        raise CoherenceViolation(
                            "localaccess-inference-unsound", loop=plan.name,
                            array=name, lo=mn, hi=mx,
                            detail=(f"iteration {it} accessed [{mn}, {mx}] "
                                    f"but the compiler-inferred localaccess "
                                    f"window is [{lo}, {hi}]; this is an "
                                    "inference-pass bug, not a user error "
                                    "-- please report it"))
                    raise CoherenceViolation(
                        "localaccess-underdeclared", loop=plan.name,
                        array=name, lo=mn, hi=mx,
                        detail=(f"iteration {it} accessed [{mn}, {mx}] but "
                                f"the declared localaccess window is "
                                f"[{lo}, {hi}]; under-declared windows are "
                                "a race under distribution-based "
                                "placement"))


class AuditedModules:
    """Recording ``np`` / ``ks`` modules, set on one kernel context.

    Generated kernels touch device buffers only through
    ``ks.ld`` / ``ks.ld_span`` / ``ks.ld_block`` (loads), ``np.take`` on
    an array binding and ``ks.take`` (gathers), ``ks.span_out`` /
    ``ks.store`` / ``ks.store_span`` /
    ``ks.store_span_masked`` (stores) and the ``ctx`` endpoints.  The
    recording versions map each buffer back to its array name and report
    the lowest and highest global index of every access to
    ``hook(name, iteration, index, kind)`` -- ``kind`` ``"r"`` or
    ``"w"`` -- before doing what the originals do.  Stores through the
    ``ctx`` endpoints are write-miss checks and reduction contributions,
    which the auditor exempts.  :attr:`iteration` is what the caller
    launched.
    """

    def __init__(self, ctx: Any, hook: Callable[..., None]) -> None:
        self.iteration = 0
        self.hook = hook
        self.base = ctx.base
        self.names = {id(arr): name for name, arr in ctx.arrays.items()}
        ks = kernel_support
        ctx.np = types.SimpleNamespace(**vars(np))
        ctx.ks = types.SimpleNamespace(**vars(ks))

        def take(arr, idx, *args, **kwargs):
            self.report(arr, idx, "r")
            return np.take(arr, idx, *args, **kwargs)

        def ld(arr, idx):
            self.report(arr, idx, "r")
            return ks.ld(arr, idx)

        def ld_span(arr, lo, n, step=1):
            self.report_span(arr, lo, n, step, "r")
            return ks.ld_span(arr, lo, n, step)

        def ld_block(arr, lo, shape, steps, out=None):
            self.report_block(arr, lo, shape, steps, "r")
            return ks.ld_block(arr, lo, shape, steps, out)

        def block_take(arr, idx, base, out):
            self.report(arr, idx - base, "r")
            return ks.take(arr, idx, base, out)

        def span_out(arr, lo, n, step=1):
            self.report_span(arr, lo, n, step, "w")
            return ks.span_out(arr, lo, n, step)

        def store(arr, idx, values, op=""):
            self.report(arr, idx, "w")
            ks.store(arr, idx, values, op)

        def store_span(arr, lo, n, values, op="", step=1):
            self.report_span(arr, lo, n, step, "w")
            ks.store_span(arr, lo, n, values, op, step)

        def store_span_masked(arr, lo, n, values, mask):
            self.report(arr, np.flatnonzero(mask) + lo, "w")
            ks.store_span_masked(arr, lo, n, values, mask)

        ctx.np.take = take
        ctx.ks.take = block_take
        for fn in (ld, ld_span, ld_block, span_out, store, store_span,
                   store_span_masked):
            setattr(ctx.ks, fn.__name__, fn)

    def report(self, arr: np.ndarray, idx: Any, kind: str) -> None:
        """Buffer-local indices ``idx`` of ``arr`` were accessed."""
        if isinstance(idx, np.ndarray):
            if idx.size:
                self.report_range(arr, int(idx.min()), int(idx.max()), kind)
        else:
            self.report_range(arr, int(idx), int(idx), kind)

    def report_span(self, arr: np.ndarray, lo: int, n: int, step: int,
                    kind: str) -> None:
        """``arr[lo], arr[lo + step], ...`` (``n`` of them) were accessed."""
        if n > 0:
            last = lo + (n - 1) * step
            self.report_range(arr, min(lo, last), max(lo, last), kind)

    def report_block(self, arr: np.ndarray, lo: int, shape: tuple,
                     steps: tuple, kind: str) -> None:
        """The index grid ``lo + sum(steps[a] * k_a)`` over ``shape``
        was accessed."""
        if 0 not in shape:
            reach = [int(s) * (d - 1) for s, d in zip(steps, shape)]
            self.report_range(arr, int(lo) + sum(r for r in reach if r < 0),
                              int(lo) + sum(r for r in reach if r > 0), kind)

    def report_range(self, arr: np.ndarray, lo: int, hi: int,
                     kind: str) -> None:
        """The lowest and highest buffer-local index accessed."""
        name = self.names.get(id(arr))
        if name is not None:
            base = self.base[name]
            self.hook(name, self.iteration, lo + base, kind)
            self.hook(name, self.iteration, hi + base, kind)
