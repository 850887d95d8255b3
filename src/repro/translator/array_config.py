"""Array configuration information (paper section IV-B5).

For every parallel loop and every device array it touches, the
translator emits a record that the runtime's data loader and inter-GPU
communication manager consume: read/write classification, the placement
policy implied by ``localaccess`` (replica vs distribution), the
per-iteration read window, and how writes must be instrumented
(dirty bits, write-miss checks, or nothing when the compiler proved
writes stay inside the local window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..frontend import cast as C
from ..frontend.directives import LocalAccessSpec


class Placement(Enum):
    """Data loader policy for one array in one loop (section IV-C)."""

    #: Full copy on every GPU (default; arrays without localaccess).
    REPLICA = "replica"
    #: Block-partitioned with halo, from the localaccess window.
    DISTRIBUTED = "distributed"


class WriteHandling(Enum):
    """Post-kernel communication strategy for written arrays (IV-D)."""

    #: Not written: nothing to do.
    NONE = "none"
    #: Replicated + written: two-level dirty bits, propagate after kernel.
    DIRTY_BITS = "dirty-bits"
    #: Distributed + all writes proven inside the local window: no
    #: instrumentation (the paper's check-code elision), halo refresh only.
    LOCAL_PROVEN = "local-proven"
    #: Distributed + dynamic writes: per-write miss check + miss buffers.
    MISS_CHECK = "miss-check"
    #: Destination of a reductiontoarray: private copy + merge.
    REDUCTION = "reduction"


@dataclass
class ReadWindow:
    """Per-iteration read window ``[lower(i), upper(i)]`` (inclusive).

    ``lower``/``upper`` are C expressions over the parallel loop
    variable, host scalars, and *host-resident* arrays (the BFS
    ``col[row[i] : row[i+1]-1]`` case).  The data loader evaluates them
    on the host at load time; they must be monotone non-decreasing in
    the loop variable, which the runtime validates at the block
    endpoints.
    """

    lower: C.Expr
    upper: C.Expr
    #: Original directive spec, kept for diagnostics / Table II.
    spec: LocalAccessSpec | None = None
    #: Who produced this window: ``"declared"`` (a ``localaccess``
    #: directive) or ``"inferred"`` (the compiler's inference pass,
    #: :mod:`repro.translator.infer`).  The sanitizer's auditor uses
    #: this to tell a user under-declaration from a compiler bug.
    origin: str = "declared"
    #: ``(loop variable, lower, upper)``: the bounds as compiled
    #: callables (:func:`repro.runtime.partition.window_bounds`).  Like
    #: ``KernelPlan.fn``, dropped on pickling and emitted again.
    compiled: Any = field(default=None, init=False, repr=False,
                          compare=False)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "compiled"}


@dataclass
class ArrayConfig:
    """One (parallel loop, array) record."""

    name: str
    #: NumPy-ish dtype string resolved from the C element type.
    ctype: str
    read: bool = False
    written: bool = False
    placement: Placement = Placement.REPLICA
    write_handling: WriteHandling = WriteHandling.NONE
    window: ReadWindow | None = None
    #: True when every write subscript is affine in the loop var with
    #: nonzero coefficient (distinct iterations hit distinct elements).
    writes_affine: bool = False
    #: reductiontoarray operator, when write_handling is REDUCTION.
    reduction_op: str | None = None
    #: Layout transformation applied (section IV-B4): strided reads of
    #: this read-only localaccess array are priced as coalesced.
    coalesced_hint: bool = False
    #: Derived read/write window for replica-placed arrays whose every
    #: access is affine in the loop variable with one shared coefficient
    #: and constant offsets.  The adaptive runtime's placement advisor
    #: may demote such an array to distribution at run time using this
    #: window -- the generated kernel is oblivious (all accesses are
    #: buffer-local against ``ctx.base``), so the switch is a pure data
    #: placement decision.
    inferred_window: "ReadWindow | None" = None
    #: ``(coeff, lo_offset, hi_offset)`` of the inferred window: every
    #: access of iteration ``i`` falls in
    #: ``[coeff*i + lo_offset, coeff*i + hi_offset]``.  Set both for
    #: windows the inference pass *adopted* (placement is then
    #: DISTRIBUTED) and for the advisor's replica demotion candidates.
    inferred_span: tuple[int, int, int] | None = None
    #: Why the inference pass declined this array (None when it adopted
    #: a window, when the programmer declared one, or when the array is
    #: not a candidate).  Surfaced by ``repro.explain``.
    infer_reason: str | None = None

    @property
    def read_only(self) -> bool:
        return self.read and not self.written

    @property
    def write_only(self) -> bool:
        return self.written and not self.read

    @property
    def has_localaccess(self) -> bool:
        return self.window is not None

    @property
    def window_origin(self) -> str | None:
        """``"declared"``, ``"inferred"``, or None (no active window)."""
        return None if self.window is None else self.window.origin


@dataclass
class LoopConfig:
    """All array configs of one parallel loop + loop metadata."""

    kernel_name: str
    loop_var: str
    arrays: dict[str, ArrayConfig] = field(default_factory=dict)
    #: Scalar reductions: list of (op, variable).
    scalar_reductions: list[tuple[str, str]] = field(default_factory=list)


def window_from_spec(spec: LocalAccessSpec, loop_var: str) -> ReadWindow:
    """Lower the directive spec to inclusive lower/upper expressions.

    * ``stride(s, l, r)`` -> ``s*i - l`` .. ``s*(i+1) - 1 + r``
    * ``range(lo, hi)``   -> ``lo`` .. ``hi - 1``  (hi exclusive in source)
    * ``bounds(lb, ub)``  -> as given (inclusive)
    * ``all``             -> handled by the caller (whole array).
    """
    i = C.Ident(loop_var)
    if spec.kind == "stride":
        assert spec.stride is not None and spec.left is not None and spec.right is not None
        lower = C.BinOp("-", C.BinOp("*", spec.stride, i), spec.left)
        upper = C.BinOp(
            "+",
            C.BinOp("-", C.BinOp("*", spec.stride, C.BinOp("+", i, C.IntLit(1))), C.IntLit(1)),
            spec.right,
        )
        return ReadWindow(lower=lower, upper=upper, spec=spec)
    if spec.kind == "range":
        assert spec.lo is not None and spec.hi is not None
        return ReadWindow(lower=spec.lo, upper=C.BinOp("-", spec.hi, C.IntLit(1)), spec=spec)
    if spec.kind == "bounds":
        assert spec.lo is not None and spec.hi is not None
        return ReadWindow(lower=spec.lo, upper=spec.hi, spec=spec)
    raise ValueError(f"localaccess spec kind {spec.kind!r} has no window form")
