"""Vectorizing kernel code generator: C loop bodies -> NumPy source.

This is the multi-GPU analogue of the paper's C-to-CUDA kernel
translation (section IV-B).  A parallel loop body becomes a Python
function ``kernel(ctx)`` operating on one GPU's *slice* ``[i0, i1)`` of
the iteration space, with no per-element Python loop.  One lowering,
:class:`Vectorizer`, handles every body; it lowers statements over a
*lane region*: the slice itself, a contiguous sub-span of it, or the
flattened lanes of a CSR-pattern inner loop.  On the slice (the *plain*
axis, contiguous lanes)

* an access ``S*i + off`` with a lane-invariant stride ``S`` -- ``1``,
  an integer coefficient, or the symbolic factor of a ``localaccess
  stride(S)`` strip (``i*nfeatures + f``) -- is a strided slice of the
  device buffer (a view, never a gather); a store through one checks its
  first and last element, and marks exactly the elements it wrote;
* an ``if`` whose condition only compares the loop variable with
  lane-invariant integers selects a contiguous *sub-span*: the branch
  body is lowered again, unmasked, over ``[a, b)`` (the complement is at
  most two more sub-spans), so no index vector, no compare vectors and
  no merge are ever built.

On every region

* any other lane-varying load is the guarded gather ``np.take(a, idx,
  mode='clip', out=slot)``: the clamp ``ks.ld`` performs, into a slot of
  the array's dtype, with no clipped index vector in between;
* any other condition over lane vectors *is* the mask (a comparison
  lands in a ``bool`` slot), an assignment under it is ``np.copyto(dst,
  v, where=mask)``; a lane-invariant one is broadcast over the lanes;
* every local -- ``int`` and ``float`` alike -- owns one arena slot
  (:class:`repro.runtime.kernelctx.ScratchArena`) of its C type and its
  region's length, float arithmetic is three-address ``np.<ufunc>(x, y,
  out=slot)``, and the last operation of an assignment or store writes
  straight into its destination; slots taken inside a constant-trip loop
  are bound once, ahead of it (a block's, once per block);
* within a straight-line run, an index subexpression or a load that was
  already evaluated is not evaluated again (textual value numbers, ended
  by a store to the array or an assignment to a local they read);
* a constant-trip inner loop (MD's neighbour loop, KMEANS' feature
  loop) runs on the *trip axis*: its body splits into *trip-parallel*
  statements, which read nothing the body carries from one trip to the
  next, and *carried* ones (:class:`TripSplit`).  The trip-parallel
  statements run once per block of ``(trips, lanes)`` -- an affine load
  is a strided block view (``ks.ld_block``), a gather ``ks.take``, the
  rest the same three-address code over block-shaped slots, and stores
  and ``ctx`` endpoints take the block in C order, trip-major, so every
  write keeps its order.  Only the carried statements replay per trip,
  over row views of the block; their trip-parallel subexpressions are
  computed in the block.  The slots of a block hold at most
  :data:`~repro.translator.kernel_support.BLOCK_ELEMS` elements
  together, so a loop over many lanes runs as several blocks
  (``ks.tiles``).  Lane-varying bounds (``for (j = i; ...)``) add a
  block bounds mask.  A loop whose block would compute nothing -- every
  statement carried, bounds every lane shares -- replays its trips
  straight from the range;
* an index every lane shares is broadcast (``np.broadcast_to``) over the
  lanes, so a store keeps its last writer and ``ufunc.at`` its order.

A CSR-pattern inner loop ``for (e = row[i]; e < row[i+1]; e++)`` (BFS,
SpMV) is flattened with the repeat/cumsum transform
(:func:`repro.translator.kernel_support.flat_ranges`): one lane per
(i, e) pair of the active outer lanes, and a position vector mapping
each flat lane to its outer lane.  On that region an outer-lane operand
-- the loop variable or an outer local -- is gathered through the
position vector once per straight-line run, and an outer local's ``+=``
is ``np.add.at`` over it.

Every C expression has one lowering, :meth:`Vectorizer.bx` --
arithmetic, ``%``, shifts and bit operators, comparisons, ``!`` /
``&&`` / ``||`` (bool lanes, or a Python ``not`` / ``and`` / ``or``),
``?:`` (``np.where``), casts, math calls -- and a lane-invariant value is
its own text, which bounds, guards and offsets read as it is.  Every
operation computes in the dtype of its C type
(:mod:`repro.frontend.typer`; ``fabs`` / ``fmax`` / ``fmin`` of
``float`` operands stay float32, which is exact), its operands converted
first by one rule (:meth:`Vectorizer._operands`): a floating, ``long``
or ``unsigned`` operation converts every operand of another dtype (an
``unsigned`` one wraps modulo ``2**bits``, as C's does), an ``int`` one
only a bool or unsigned operand.  A ``float`` / ``double`` host scalar is
bound as a NumPy scalar of its type, and a literal's text is its value
in its own type (NumPy gives it the other operand's dtype).  So the
dtype NumPy computes a ufunc in is the node's, and ``out=`` -- a slot of
that dtype, or a destination of it -- changes where a result lands,
never what it is; a ``double`` operation rounds once, where it is
stored.  Index arithmetic outside a block is evaluated unbuffered.

Array accesses are rewritten from global to buffer-local indices by
subtracting the per-array base offset (section IV-B3); stores are
instrumented per the array's :class:`~repro.translator.array_config.ArrayConfig`
(dirty-bit marking, write-miss checks, reduction-to-array routing, or
nothing when writes are statically proven local).  The emitter only
emits: the kernel's pricing model comes from
:func:`repro.translator.cost.price_body`, which walks the body before
it runs, rejects what is outside the supported statement set, and names
the inner loops whose trip counts the kernel reports.

The emitted source is kept on the compiled kernel object
(``CompiledKernel.source``) so tests and users can inspect it, just as
one would inspect the CUDA the paper's translator writes out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from ..frontend import cast as C
from ..frontend.analysis import (
    InnerLoop,
    LoopAnalysis,
    affine_in,
    const_value,
    expr_mentions,
    strided_in,
)
from ..frontend.directives import AccReductionToArray
from ..frontend.typer import (
    computes_in,
    is_float,
    libm,
    literal_value,
    operand_type,
)
from .array_config import ArrayConfig, LoopConfig, Placement, WriteHandling
from .cscalar import _NP_DTYPES
from .cost import (
    ACCESS_RANDOM,
    classify_access,
    reduction_contrib,
    reduction_directive,
)


class VectorizeError(NotImplementedError):
    """Raised when a body the pricing walk accepted has no lowering."""

    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        NotImplementedError.__init__(
            self, f"cannot vectorize{where}: {message}")
        self.line = line


#: Kernel function of every math call, keyed as ``typer.LIBM``.
_MATH_CALLS = {
    "sqrt": "np.sqrt", "rsqrt": "ks.rsqrt", "fabs": "np.abs", "abs": "np.abs",
    "exp": "np.exp", "log": "np.log", "pow": "np.power", "sin": "np.sin",
    "cos": "np.cos", "floor": "np.floor", "ceil": "np.ceil",
    "min": "np.minimum", "fmin": "np.fmin", "max": "np.maximum",
    "fmax": "np.fmax",
}

#: C type -> the NumPy dtype's source text.
_DTYPES = {c: f"np.{t.__name__}" for c, t in _NP_DTYPES.items()}

_FLOAT_DTYPES = ("np.float32", "np.float64")
#: Integer dtypes in C's conversion rank: signed, then unsigned, per width.
_INT_DTYPES = ("np.int32", "np.uint32", "np.int64", "np.uint64")


def _literal(e: C.IntLit | C.FloatLit, ty: str = "") -> str:
    """A literal's text as an operand of a ``ty`` operation."""
    return repr(literal_value(e, ty))

#: Math calls whose NumPy SIMD and scalar loops need not agree bit for
#: bit: a statement calling one replays per trip, at today's positions.
_IMPRECISE = frozenset({"exp", "expf", "log", "logf", "pow", "powf",
                        "sin", "cos"})
#: The value a carried ``x = x op e`` leaves ``x`` unchanged with.
_IDENTITY = {"+": -0.0, "-": 0.0, "*": 1.0}
_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply",
           "/": "np.divide", "%": "np.fmod", "<<": "np.left_shift",
           ">>": "np.right_shift", "&": "np.bitwise_and",
           "|": "np.bitwise_or", "^": "np.bitwise_xor"}
#: A logical operator: its lane ufunc and its lane-invariant word.
_LOGICAL = {"!": ("np.logical_not", "not"), "&&": ("np.logical_and", "and"),
            "||": ("np.logical_or", "or")}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_COMPARE = {"<": "np.less", "<=": "np.less_equal", ">": "np.greater",
            ">=": "np.greater_equal", "==": "np.equal", "!=": "np.not_equal"}


@dataclass
class KernelSourceInfo:
    """Result of vectorization: the kernel's name and source text."""

    name: str
    source: str


@dataclass
class _Val:
    """A translated operand."""

    src: str
    #: Lane vector (True) or lane-invariant scalar.
    vec: bool
    #: The NumPy dtype (source text) of the value; None for a scalar
    #: that is a Python ``int`` / ``float`` (weak: it takes the dtype of
    #: the array it meets) and for an integer vector of untracked width.
    dtype: str | None = None
    #: Scratch slot this temporary owns (released once consumed).
    slot: int | None = None
    #: ``(array, offset source, step source)`` when the value is a span
    #: view of a device buffer.
    view: tuple[str, str, str] | None = None
    #: The axes a block's lane vector varies along, as bits -- 1 the
    #: lanes, 2 the trips -- or None for every axis of its region.
    axes: int | None = None


@dataclass
class _Region:
    """The lanes statements are currently lowered over: ``n`` of them,
    either the span ``[lo, hi)`` of the slice or -- when ``pos`` is set
    -- the flattened lanes of a CSR loop, ``pos`` mapping each to its
    lane of the slice."""

    n: str
    lo: str | None = None
    hi: str | None = None
    pos: str | None = None
    #: Region-local slices of locals declared in an enclosing region.
    aliases: dict[str, str] = field(default_factory=dict)
    head: list[str] = field(default_factory=list)
    iota: str | None = None
    #: A trip-axis block: the region it was entered from, the name of
    #: its shape tuple, and ``(C loop variable, first trip, trips)``
    #: names.
    parent: "_Region | None" = None
    shape: str | None = None
    trip: tuple[str, str, str] | None = None
    #: The block's trip indices as a column (built on first use).
    col: str | None = None
    #: A CSR region's position vector was read.
    pos_used: bool = False

    @property
    def size(self) -> str:
        """What an arena slot of this region is sized by."""
        return self.shape or self.n

    @property
    def span(self) -> "_Region":
        """The lane region: the one a block was entered on."""
        return self.parent if self.shape is not None else self


@dataclass
class Interval:
    """``if`` condition as a lane interval: the active lanes are those of
    ``[max(lows), min(highs))`` when every guard holds, none otherwise --
    or the complement of that when ``complement`` is set.  Bounds and
    guards are Python source over lane-invariant integers."""

    lows: tuple[str, ...] = ()
    highs: tuple[str, ...] = ()
    guards: tuple[str, ...] = ()
    complement: bool = False

    def negated(self) -> "Interval | None":
        if self.complement:
            return Interval(self.lows, self.highs, self.guards)
        if not self.guards:
            return Interval(self.lows, self.highs, complement=True)
        if not self.lows and not self.highs and len(self.guards) == 1:
            return Interval(guards=(f"not {self.guards[0]}",))
        return None

    def conj(self, other: "Interval") -> "Interval | None":
        if self.complement or other.complement:
            return None
        return Interval(self.lows + other.lows, self.highs + other.highs,
                        self.guards + other.guards)


def _value_names(e: C.Expr):
    """Identifiers ``e`` reads as values: not inside an array subscript."""
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, C.Ident):
            yield x.name
        elif not isinstance(x, C.Index):
            stack.extend(C.child_exprs(x))


class TripSplit:
    """Which statements of a constant-trip loop body are *carried*.

    The body is cut into units -- a declaration, an assignment, a store,
    a reduction, a nested loop -- under the ``if`` statements that hold
    them.  A unit or ``if`` condition is carried when it

    * reads or writes a local the body carries: one declared outside the
      body and assigned in it, or assigned by a carried unit, or one a
      carried unit reads before a trip-parallel unit writes it again;
    * touches an array the body both stores and loads, or stores from
      two units (a block would reorder those accesses);
    * calls ``exp`` / ``log`` / ``pow`` / ``sin`` / ``cos``, reads the
      trip variable as a value (a block has it as an ``int64`` column,
      a trip as a Python ``int``), folds a scalar reduction, or is or
      holds a loop (a nested constant-trip loop replays per trip, and
      runs as blocks of its own there);
    * is, or reads a local read by, an ``if`` the entering lanes lower
      as sub-spans (``intervals``): sub-spans are spans of one trip;
    * sits on the flattened lanes of a CSR loop (``flat``): a block has
      no position vector along its trips.

    Everything else is trip-parallel.  An ``if`` that is not carried
    but holds carried units is *mixed*: its condition is evaluated in
    the block and its row views mask the replayed units.
    """

    def __init__(self, body: C.Stmt, var: str, reductions: set[str],
                 redeclared: set[str], intervals: set[int],
                 flat: bool = False) -> None:
        self.var, self.flat = var, flat
        #: (unit, enclosing ``if`` statements) in program order.
        self.units: list[tuple[C.Stmt, tuple[C.If, ...]]] = []
        self.ifs: list[C.If] = []
        self._collect(body, ())
        facts = {id(u): self._facts(u, reductions) for u, _ in self.units}
        conds = {id(f): self._expr_facts(f.cond, reductions)
                 for f in self.ifs}
        declared = {st.name for st in C.walk(body) if isinstance(st, C.Decl)}
        written = set().union(*(f[1] for f in facts.values()))
        carried = (written - declared) | (redeclared & declared)
        stored: dict[str, int] = {}
        for f in facts.values():
            for a in f[3]:
                stored[a] = stored.get(a, 0) + 1
        loaded = set().union(*(f[2] for f in facts.values()),
                             *(c[2] for c in conds.values()))
        arrays = {a for a, k in stored.items() if k > 1 or a in loaded}
        span_reads = set().union(
            *(conds[i][0] for i in intervals if i in conds),
            *(facts[id(u)][0] for u, path in self.units
              if any(id(f) in intervals for f in path)))
        carried |= span_reads & declared

        def touches(f) -> bool:
            return flat or f[4] or bool((f[0] | f[1]) & carried) \
                or bool((f[2] | f[3]) & arrays)

        while True:
            self.carried_ifs = {id(f) for f in self.ifs
                                if id(f) in intervals or touches(conds[id(f)])}
            self.carried = {
                id(u) for u, path in self.units
                if touches(facts[id(u)])
                or any(id(f) in self.carried_ifs for f in path)}
            grown = carried.union(*(facts[i][1] for i in self.carried))
            # A trip-local a carried unit reads and a later trip-parallel
            # unit writes again: the replay would read the last write.
            first_read: dict[str, int] = {}
            for k, (u, path) in enumerate(self.units):
                reads = set()
                if id(u) in self.carried:
                    reads |= facts[id(u)][0]
                for f in path:
                    if id(f) in self.carried_ifs:
                        reads |= conds[id(f)][0]
                for name in reads:
                    first_read.setdefault(name, k)
            for k, (u, _) in enumerate(self.units):
                if id(u) not in self.carried:
                    grown |= {x for x in facts[id(u)][1]
                              if first_read.get(x, k) < k}
            if grown == carried:
                break
            carried = grown
        #: Locals and arrays the body carries.
        self.names, self.arrays = carried, arrays
        self.mixed = {id(f) for f in self.ifs
                      if id(f) not in self.carried_ifs
                      and any(id(u) in self.carried
                              for u, path in self.units if f in path)}

    def _collect(self, s: C.Stmt, path: tuple) -> None:
        if isinstance(s, C.Compound) and reduction_directive(s) is None:
            for st in s.body:
                self._collect(st, path)
        elif isinstance(s, C.If) and reduction_directive(s) is None:
            self.ifs.append(s)
            self._collect(s.then, path + (s,))
            if s.orelse is not None:
                self._collect(s.orelse, path + (s,))
        else:
            self.units.append((s, path))

    def _expr_facts(self, e: C.Expr | None, reductions: set[str],
                    subscript: bool = False) -> tuple:
        """(locals read, -, arrays loaded, -, tainted) of an expression
        (``subscript``: an array subscript, which may use the trip
        variable)."""
        names, loads, taint = set(), set(), False
        for x in C.walk_expr(e) if e is not None else ():
            if isinstance(x, C.Ident):
                names.add(x.name)
            elif isinstance(x, C.Index):
                loads.add(x.base_name())
            elif isinstance(x, C.Call):
                taint |= x.func in _IMPRECISE
        taint |= bool(names & reductions) or not subscript \
            and self.var in names and self.var in set(_value_names(e))
        return names, set(), loads, set(), taint

    def _facts(self, u: C.Stmt, reductions: set[str]) -> tuple:
        """(locals read, locals written, arrays loaded, arrays stored,
        tainted) of one unit."""
        reads, writes, loads, stores = set(), set(), set(), set()
        taint = False
        for st in C.walk(u):
            if isinstance(st, C.For):
                # A nested loop replays per trip (its own trips may be a
                # block); a block of blocks would make NumPy buffer.
                taint = True
            if isinstance(st, C.Decl):
                writes.add(st.name)
            exprs = [(e, False) for e in C.stmt_exprs(st)]
            if isinstance(st, C.ExprStmt) and isinstance(st.expr, C.Assign):
                a = st.expr
                exprs = [(a.value, False)]
                if isinstance(a.target, C.Ident):
                    writes.add(a.target.name)
                    taint |= a.target.name in reductions
                    if a.op:
                        reads.add(a.target.name)
                else:
                    stores.add(a.target.base_name())
                    exprs += [(e, True) for e in a.target.indices]
            for e, subscript in exprs:
                r, _, ld, _, t = self._expr_facts(e, reductions, subscript)
                reads |= r
                loads |= ld
                taint |= t
        return reads, writes, loads, stores, taint

    def kind(self, s: C.Stmt) -> str:
        """``"carried"``, ``"mixed"`` or ``"parallel"``."""
        if isinstance(s, C.If) and id(s) in self.mixed:
            return "mixed"
        if id(s) in self.carried or id(s) in self.carried_ifs:
            return "carried"
        return "parallel"

    @property
    def parallel(self) -> bool:
        """Some unit is trip-parallel."""
        return len(self.carried) < len(self.units)

    def liftable(self, e: C.Expr, subscript: bool = False) -> bool:
        """Can ``e``, part of a carried unit, be computed in the block?"""
        names, loads, taint = self._expr_facts(e, set(), subscript)[::2]
        return not (self.flat or names & self.names or loads & self.arrays
                    or taint)


class Vectorizer:
    """One-shot emitter for a single parallel loop that
    :func:`~repro.translator.cost.price_body` has priced: ``labels`` is
    its result, the name each inner loop reports its trips under; slots
    are numbered from ``slot_base`` (fusion chains members)."""

    def __init__(
        self,
        analysis: LoopAnalysis,
        config: LoopConfig,
        labels: dict[int, str],
        slot_base: int = 0,
    ) -> None:
        self.an = analysis
        self.config = config
        self.labels = labels
        self.lines: list[str] = []
        self.indent = 1
        self._tmp = 0
        self.mask: str | None = None
        #: Names of declared kernel locals -> python name.
        self.locals: dict[str, str] = {}
        #: Inner loop vars of constant loops -> python scalar name.
        self.scalar_vars: dict[str, str] = {}
        #: csr loop vars -> flat vector name.
        self.csr_vars: dict[str, str] = {}
        self.reduction_vars = {v: op for op, v in analysis.scalar_reductions}
        self._inner_by_id = {id(il.stmt): il for il in analysis.inner_loops}
        #: The body read the lane-index vector ``_i``.
        self.uses_iota = False
        #: Host scalars the body reads (only these are bound), with
        #: their C types.
        self.used_scalars: dict[str, str] = {}
        self.private_names: list[str] = (
            list(analysis.nest.directive.private)
            if analysis.nest.directive is not None else [])
        #: span_start / interval_of per AST node.  Sound for the whole
        #: emission: a local can only make an offset lane-varying, and it
        #: is declared before any use.
        self._spans: dict[int, tuple[str, str] | None] = {}
        self._intervals: dict[int, Interval | None] = {}
        self.top = _Region(n="_n", lo="ctx.i0", hi="ctx.i1")
        self.region = self.top
        #: Region each local was declared in: it owns an arena slot of
        #: that region's length, and is sliced or gathered against it.
        self.local_home: dict[str, _Region] = {}
        self.slot_base = slot_base
        self.slots_used = 0
        self._free: list[int] = []
        #: Inside a constant-trip loop: the region it was entered in and
        #: the slot bindings to put ahead of it.
        self._hoist: tuple[_Region, list[str]] | None = None
        #: Names the body declares more than once (sibling scopes): each
        #: declaration rebinds the name where it stands.
        decls = [st.name for st in C.walk(self.an.nest.body)
                 if isinstance(st, C.Decl)]
        self._redeclared = {n for n in decls if decls.count(n) > 1}
        #: The body's locals: its declarations and ``private`` names.
        self.local_names = {*decls, *self.private_names}
        #: Value numbers of the current straight-line run: source text of
        #: a lane-vector computation -> (the name it is bound to, what it
        #: reads: ``v_<local>`` names and ``@<array>``, the slot it keeps
        #: until the number ends).
        self._numbered: dict[str, tuple[_Val, frozenset, int | None]] = {}
        #: The body loads a span (``_ld`` must be bound).
        self.loads = False
        #: Trip variables of the blocks being lowered -> their block.
        self.block_vars: dict[str, _Region] = {}
        #: The split of the loop body being lowered, and which part of
        #: it (``"block"`` or ``"replay"``) is being emitted.
        self._split: TripSplit | None = None
        self._part = ""
        #: Blocks being replayed: id -> the row index's name.
        self._rows: dict[int, str] = {}
        #: Trip-parallel subexpressions of carried units, by id: the
        #: block value each replay reads a row of, and its block.
        self._lifted: dict[int, tuple[_Val, _Region]] = {}
        #: Mixed ``if`` statements: id -> (then mask, else mask, block).
        self._conds: dict[int, tuple[str, str | None, _Region]] = {}
        #: Carried units replayed unmasked (identity-filled addend).
        self._unmasked: set[int] = set()
        #: The dtype of each block slot.
        self._dtypes: dict[int, str] = {}

    # -- small utilities -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def tmp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def lane_varying(self, e: C.Expr) -> bool:
        """Does ``e`` differ across lanes?"""
        for x in C.walk_expr(e):
            if isinstance(x, C.Ident):
                n = x.name
                if n == self.an.nest.var or n in self.locals \
                        or n in self.csr_vars or n in self.block_vars:
                    return True
        return False

    # -- lane regions --------------------------------------------------------------

    @property
    def plain(self) -> bool:
        """The lanes are a contiguous span of the slice."""
        return self.region.pos is None and self.region.shape is None

    def lane_index(self, r: _Region | None = None) -> str:
        """The global lane indices of span region ``r`` (the current one)."""
        r = r or self.region
        if r.iota is None:
            if r is self.top:
                self.uses_iota = True
                r.iota = "_i"
            else:
                r.iota = self.tmp("_i")
                r.head.append(f"{r.iota} = np.arange({r.lo}, {r.hi}, "
                              "dtype=np.int64)")
        return r.iota

    def local_src(self, name: str) -> str:
        """A local of this region, of the span region enclosing it, or --
        replaying a block -- its row of the block."""
        home = self.local_home[name]
        r = self.region
        if home is r:
            return self.locals[name]
        return self._view_in(self.locals[name], home, lambda: (
            self.local_src(name)))

    def _view_in(self, src: str, home: _Region, resolve) -> str:
        """``src``, a value of region ``home``, as seen from the current
        region (``resolve`` re-resolves it from the current region's
        lanes when ``home`` is a span region enclosing them)."""
        r = self.region
        if home is r:
            return src
        row = self._rows.get(id(home))
        if row is not None:
            # A replayed trip reads its row of the block.
            return f"{src}[{row}]"
        if r.shape is not None:
            # A value of the lanes the block was entered on broadcasts
            # against the block as it is.
            outer, self.region = r, r.parent
            try:
                return resolve()
            finally:
                self.region = outer
        alias = r.aliases.get(src)
        if alias is None:
            alias = r.aliases[src] = self.tmp(f"_r_{src[2:]}")
            r.head.append(f"{alias} = {src}"
                          f"[{r.lo} - {home.lo}:{r.hi} - {home.lo}]")
        return alias

    def span_start(self, idx: C.Expr) -> tuple[str, str] | None:
        """``(offset, step)`` sources of a strided outer-lane access, or
        None.

        Lane ``i`` of an access touches element ``step*i + offset`` when
        the kernel is on the plain outer axis (CSR flattening reshuffles
        lanes) and the index is the loop variable times a lane-invariant
        stride plus a lane-invariant offset: an integer coefficient >= 1
        (``"1"`` is the contiguous span), or a symbolic factor
        (``i*nfeatures + f``) whose sign the ``ks`` helpers check at run
        time.
        """
        if not self.plain:
            return None
        if id(idx) not in self._spans:
            parts = strided_in(idx, self.an.nest.var)
            span = None
            if parts is not None and not self.lane_varying(parts[0]) \
                    and not self.lane_varying(parts[1]):
                coeff = const_value(parts[0])
                if coeff is None or coeff >= 1:
                    span = self.bx(parts[1]).src, self.bx(parts[0]).src
            self._spans[id(idx)] = span
        return self._spans[id(idx)]

    def _at(self, off: str, step: str = "1") -> str:
        """Global index of the region's first lane under ``(off, step)``."""
        lo = self.region.lo if step == "1" else f"{step} * {self.region.lo}"
        if off.lstrip("-").isdigit():
            return lo if off == "0" else \
                f"{lo} - {off[1:]}" if off[0] == "-" else f"{lo} + {off}"
        return f"{off} + {lo}"

    def _shared(self, v: _Val) -> str:
        """``v`` as a lane vector: a lane-invariant value broadcast (a
        read-only view) over the region's lanes."""
        shape = self.region.shape or f"({self.region.n},)"
        return v.src if v.vec else f"np.broadcast_to({v.src}, {shape})"

    # -- value numbers -----------------------------------------------------------------

    def _reads(self, e: C.Expr) -> frozenset:
        """What the value of ``e`` depends on that the body can change."""
        return frozenset(
            f"v_{x.name}" if isinstance(x, C.Ident) else f"@{x.base_name()}"
            for x in C.walk_expr(e)
            if isinstance(x, C.Index)
            or isinstance(x, C.Ident) and x.name in self.locals)

    def _number(self, key: str, e: C.Expr, make) -> _Val:
        """The value numbered ``key`` in this straight-line run, made (and
        bound to a name) by ``make()`` the first time: identical index
        subexpressions and identical loads are emitted once.  Greedy and
        textual -- the key is the computation's source over names that
        are themselves numbered, locals or lane-invariant."""
        hit = self._numbered.get(key)
        if hit is None:
            v = make()
            # Its slot is the table's until the number ends.
            slot, v.slot = v.slot, None
            hit = self._numbered[key] = (v, self._reads(e), slot)
        return hit[0]

    def _forget(self, dep: str | None = None) -> None:
        """End the value numbers that read ``dep`` -- a local being
        assigned, ``@array`` being stored to -- or all of them, where the
        straight-line run ends."""
        for key in [k for k, (_, reads, _) in self._numbered.items()
                    if dep is None or dep in reads]:
            slot = self._numbered.pop(key)[2]
            if slot is not None:
                self._free.append(slot)

    # -- scratch slots -------------------------------------------------------------

    def _alloc(self, dtype: str) -> int:
        if self.region.shape is not None:
            # A block slot keeps one dtype: every block then takes the
            # very view the last one left (no per-block rebinding).
            free = [k for k in self._free if self._dtypes.get(k) == dtype]
            if free:
                self._free.remove(min(free))
                return min(free)
            k = self._new_slot()
            self._dtypes[k] = dtype
            return k
        if self._free:
            self._free.sort()
            return self._free.pop(0)
        return self._new_slot()

    def _new_slot(self) -> int:
        self.slots_used += 1
        return self.slot_base + self.slots_used - 1

    def _release(self, *vals: _Val) -> None:
        for v in vals:
            if v.slot is not None:
                self._free.append(v.slot)
                v.slot = None

    @staticmethod
    def _slot_call(k: int, n: str, dtype: str) -> str:
        return f"_slot({k}, {n})" if dtype == "np.float32" \
            else f"_slot({k}, {n}, {dtype})"

    def _take_slot(self, name: str, dtype: str, hoist: bool = True) -> int:
        """Bind ``name`` to a free slot as a ``dtype`` vector of the
        region's length -- ahead of the enclosing loops when the region
        was entered before them: which slot a name gets is decided here,
        not per trip."""
        k = self._alloc(dtype)
        line = f"{name} = {self._slot_call(k, self.region.size, dtype)}"
        if hoist and self._hoist is not None \
                and self._hoist[0] is self.region:
            self._hoist[1].append(line)
        else:
            self.emit(line)
        return k

    def _temp(self, dtype: str) -> _Val:
        name = self.tmp("_q")
        return _Val(name, True, dtype=dtype, slot=self._take_slot(name, dtype))

    def _into_temp(self, dtype: str, write) -> _Val:
        """A temporary that ``write(dst)`` -- a call returning ``dst`` --
        fills: in a block, named and bound in the one statement."""
        if self.region.shape is None:
            q = self._temp(dtype)
            self.emit(write(q.src))
            return q
        k = self._alloc(dtype)
        q = _Val(self.tmp("_q"), True, dtype=dtype, slot=k)
        slot = self._slot_call(k, self.region.size, dtype)
        self.emit(f"{q.src} = {write(slot)}")
        return q

    # -- loads ---------------------------------------------------------------------------

    def _bx_load(self, e: C.Index, out: tuple | None = None) -> _Val:
        """A load: a span view, a lane-invariant element, or the guarded
        gather ``np.take(..., mode='clip')`` into a slot -- or, as the
        root of an assignment (``out``, see :meth:`bx`) with the
        destination's dtype, straight into the destination."""
        name = e.base_name()
        # One subscript: the pricing walk rejects any other.
        idx = e.indices[0]
        dt = _DTYPES.get(self.config.arrays[name].ctype)
        block = self.block_view(idx)
        if block is not None:
            start, steps = block
            src = (f"ks.ld_block(v_{name}, {start} - _b_{name}, "
                   f"{self.region.shape}, ({steps}))")
            # Used where it stands: a view costs a call, not a copy.
            return _Val(src, True, dtype=dt, view=(name, "", ""))
        span = self.span_start(idx)
        if span is not None:
            off, step = span
            self.loads = True
            # Out-of-buffer spans (halo loads at block edges under a
            # data-dependent predicate) fall back to the clipped gather
            # inside ld_span, so values match ks.ld exactly.
            src = (f"_ld(v_{name}, {self._at(off, step)} - _b_{name}, "
                   f"{self.region.n}{'' if step == '1' else ', ' + step})")
            view = _Val(src, True, dtype=dt, view=(name, off, step))
            if step == "1":
                return view
            return self._number(src, e, lambda: self._bind(view))
        if not self.lane_varying(idx):
            return _Val(f"ks.ld(v_{name}, {self.bx(idx).src} - _b_{name})",
                        False, dtype=dt)
        if self.region.shape is not None and dt is not None:
            return self._block_gather(e, name, idx, dt, out)
        iv = self.bx(idx)
        at = self._eager(f"({iv.src} - _b_{name})", [iv], idx)
        if dt is None:
            # No C type to take the slot's dtype from.
            return self._eager(f"ks.ld(v_{name}, {at.src})", [], e)
        key = f"v_{name}[{at.src}]"
        if self._partial(at):
            # An index that lacks some of the block's axes.
            return self._eager(f"ks.ld(v_{name}, {at.src})", [at], e,
                               dtype=dt)
        # Not into a view of the array it gathers from.
        if out is not None and out[1] == dt and out[2] != name \
                and key not in self._numbered:
            self._take(name, at.src, out[0])
            return _Val(out[0], True, dtype=dt)

        def gather() -> _Val:
            q = self._temp(dt)
            self._take(name, at.src, q.src)
            return q

        return self._number(key, e, gather)

    def _take(self, name: str, idx: str, out: str) -> None:
        """The clip-gather of ``v_<name>[idx]`` into ``out``."""
        self.emit(f"np.take(v_{name}, {idx}, mode='clip', out={out})")

    def _block_gather(self, e: C.Index, name: str, idx: C.Expr, dt: str,
                      out: tuple | None) -> _Val:
        """A gather of a block, through ``ks.take``: a constant offset of
        the index folds into the buffer's base."""
        off = const_value(idx.right) if isinstance(idx, C.BinOp) \
            and idx.op in ("+", "-") else None
        base = f"_b_{name}"
        if off is not None:
            off = off if idx.op == "-" else -off
            base += f" + {off}" if off > 0 else f" - {-off}"
            idx = idx.left
        iv = self.bx(idx)
        if self._partial(iv):
            # An index that lacks some of the block's axes.
            return self._eager(f"ks.ld(v_{name}, {iv.src} - ({base}))",
                               [iv], e, dtype=dt)
        key = f"v_{name}[{iv.src} - ({base})]"
        # Not into a view of the array it gathers from.
        if out is not None and out[1] == dt and out[2] != name \
                and key not in self._numbered:
            self.emit(f"ks.take(v_{name}, {iv.src}, {base}, {out[0]})")
            self._release(iv)
            return _Val(out[0], True, dtype=dt)

        def gather() -> _Val:
            return self._into_temp(
                dt, lambda q: f"ks.take(v_{name}, {iv.src}, {base}, {q})")

        res = self._number(key, e, gather)
        self._release(iv)
        return res

    def block_view(self, idx: C.Expr) -> tuple[str, str] | None:
        """``(first index, steps)`` sources of an access that is affine,
        with lane-invariant coefficients, in the lane variable and the
        block's trip variable -- a strided view of the block's shape --
        or None."""
        r = self.region
        if r.shape is None or r.parent.pos is not None:
            return None
        var, first, _ = r.trip
        lane = strided_in(idx, self.an.nest.var)
        trip = lane and strided_in(lane[1], var)
        if not trip or any(self.lane_varying(x)
                           for x in (lane[0], trip[0], trip[1])):
            return None
        terms = [self.bx(trip[1]).src] if const_value(trip[1]) != 0 else []
        steps = []
        # The trip axis first, the lanes last.
        for coeff, at in ((trip[0], first), (lane[0], r.parent.lo)):
            c = const_value(coeff)
            step = self.bx(coeff).src if c is None else repr(c)
            steps.append(step)
            if c != 0:
                terms.append(at if c == 1 else f"{step} * {at}")
        return " + ".join(terms) or "0", ", ".join(steps)

    def _trip_col(self, var: str) -> _Val:
        """The trip indices of ``var``'s block as an ``int64`` column."""
        b = self.block_vars[var]
        if b.col is None:
            b.col = self.tmp("_c")
            _, first, trips = b.trip
            b.head.append(f"{b.col} = ks.trips({first}, {trips})")
        return _Val(b.col, True, dtype="np.int64", axes=2)

    def _outer(self, src: str, dtype: str, e: C.Expr) -> _Val:
        """An outer-lane value ``src`` read on the CSR axis: gathered
        through the position vector into a slot, once per straight-line
        run."""
        pos = self.region.pos
        self.region.pos_used = True

        def gather() -> _Val:
            q = self._temp(dtype)
            self.emit(f"np.take({src}, {pos}, mode='clip', out={q.src})")
            return q

        return self._number(f"{src}[{pos}]", e, gather)

    # -- buffered expressions ------------------------------------------------------

    def bx(self, e: C.Expr, out: tuple | None = None) -> _Val:
        """Evaluate ``e`` eagerly as three-address code where the result
        dtype is proven; ``out = (dst, dtype, array, span)`` lets the
        root operation write straight into ``dst``."""
        hit = self._lifted.get(id(e))
        if hit is not None:
            return replace(hit[0], src=self._view_in(hit[0].src, hit[1], None),
                           slot=None)
        if isinstance(e, (C.IntLit, C.FloatLit)):
            return _Val(_literal(e), False)
        if isinstance(e, C.Ident):
            return self._bx_ident(e)
        if isinstance(e, C.Index):
            return self._bx_load(e, out=out)
        if isinstance(e, C.UnOp) and e.op == "+":
            return self.bx(e.operand, out)
        if isinstance(e, C.UnOp) and e.op in "-~":
            v = self._operands(e, [e.operand], computes_in(e))[0]
            if not v.vec:
                return _Val(f"({e.op}{v.src})", False, dtype=v.dtype)
            return self._op("np.negative" if e.op == "-" else "np.invert",
                            f"({e.op}{v.src})", [v], out, e, v.dtype)
        if isinstance(e, (C.UnOp, C.BinOp)) and e.op in _LOGICAL:
            return self.truth(e)
        if isinstance(e, C.BinOp):
            return self._bx_binop(e, out)
        if isinstance(e, C.Ternary):
            c = self.truth(e.cond)
            a, b = self._operands(e, [e.then, e.other], e.ty)
            if not (c.vec or a.vec or b.vec):
                return _Val(f"({a.src} if {c.src} else {b.src})", False,
                            dtype=a.dtype if a.dtype == b.dtype else None)
            dt = _DTYPES[e.ty] if is_float(e.ty) else None
            return self._eager(f"np.where({c.src}, {a.src}, {b.src})",
                               [c, a, b], e, dt)
        if isinstance(e, C.Call):
            t = computes_in(e)
            fn = _MATH_CALLS[libm(e.func)] if is_float(t) or libm(
                e.func) != "pow" else "ks.ipow"
            vals = self._operands(e, e.args, t)
            plain = f"{fn}({', '.join(v.src for v in vals)})"
            dt = _DTYPES[t] if is_float(t) else self._int_dtype(vals)
            if not any(v.vec for v in vals):
                return _Val(plain, False, dtype=dt)
            if fn.startswith("ks."):
                return self._eager(plain, vals, e, dt)
            return self._op(fn, plain, vals, out, e, dt)
        if isinstance(e, C.CastExpr):
            return self._convert(self.bx(e.operand), e, _DTYPES.get(
                e.to.base if not e.to.pointers else "long", "np.float64"))
        raise VectorizeError(f"unsupported expression {type(e).__name__}",
                             e.line)

    def truth(self, e: C.Expr) -> _Val:
        """``e`` where only its truth counts -- a condition, an operand
        of ``!`` / ``&&`` / ``||``: a bool lane vector, or a lane-invariant
        Python bool (``not``, ``and``, ``or``: C's short circuit)."""
        op = e.op if isinstance(e, (C.UnOp, C.BinOp)) else None
        if op in _LOGICAL:
            vals = [self.truth(x) for x in C.child_exprs(e)]
            ufunc, word = _LOGICAL[op]
            plain = f"({word} {vals[0].src})" if op == "!" \
                else f"({vals[0].src} {word} {vals[1].src})"
        else:
            v = self.bx(e)
            if v.dtype == "np.bool_":
                return v
            vals, ufunc = [v, _Val("0", False)], "np.not_equal"
            plain = f"({v.src} != 0)"
        if not any(v.vec for v in vals):
            return _Val(plain, False, dtype="np.bool_")
        return self._op(ufunc, f"{ufunc}({', '.join(v.src for v in vals)})",
                        vals, None, e, "np.bool_")

    def _bx_ident(self, e: C.Ident) -> _Val:
        n = e.name
        pos = self.region.pos
        block = self.region.shape is not None
        if n == self.an.nest.var:
            if block:
                return _Val(self.lane_index(self.region.span), True,
                            dtype="np.int64", axes=1)
            if pos is None:
                return _Val(self.lane_index(), True, dtype="np.int64")
            return self._outer(self.lane_index(self.top), "np.int64", e)
        if n in self.block_vars:
            return self._trip_col(n)
        if n in self.csr_vars:
            return _Val(self.csr_vars[n], True, dtype="np.int64")
        if n in self.scalar_vars:
            return _Val(self.scalar_vars[n], False)
        if n in self.reduction_vars:
            raise VectorizeError(
                f"reduction variable {n!r} may only appear in its reduction "
                "statement", e.line,
            )
        if n in self.locals:
            if pos is None or self.local_home[n] is self.region:
                home = self.local_home[n]
                return _Val(self.local_src(n), True,
                            dtype=_DTYPES.get(e.ty),
                            axes=1 if block and home is not self.region
                            else None)
            return self._outer(self.locals[n], _DTYPES[e.ty], e)
        if n in self.config.arrays:
            raise VectorizeError(f"array {n!r} used without subscript", e.line)
        if n in self.an.host_scalars:
            # A floating scalar is bound as a NumPy scalar of its C type.
            self.used_scalars[n] = e.ty
            return _Val(f"v_{n}", False,
                        dtype=_DTYPES[e.ty] if is_float(e.ty) else None)
        raise VectorizeError(f"unknown identifier {n!r}", e.line)

    def _bx_binop(self, e: C.BinOp, out: tuple | None) -> _Val:
        t = operand_type(e)
        vals = self._operands(e, [e.left, e.right], t)
        left, right = vals
        vec = left.vec or right.vec
        # C truncates an integer quotient and remainder toward zero,
        # NumPy floors; a lane remainder is ``np.fmod``.
        if e.op == "/" and not is_float(t):
            plain = f"ks.tdiv({left.src}, {right.src})"
        elif e.op == "%":
            fn = "np.fmod" if vec or is_float(t) else "ks.tmod"
            plain = f"{fn}({left.src}, {right.src})"
        else:
            plain = f"({left.src} {e.op} {right.src})"
        if e.op in _COMPARE:
            # A comparison with a lane vector is a bool lane vector,
            # whatever it compares.
            if not vec:
                return _Val(plain, False, dtype="np.bool_")
            return self._op(_COMPARE[e.op], plain, vals, None, e, "np.bool_")
        dt = _DTYPES[t] if is_float(t) else self._int_dtype(vals)
        if not vec:
            return _Val(plain, False, dtype=dt)
        if e.op in "+-" and self.plain and not (left.vec and right.vec) \
                and self.region.iota in (left.src, right.src):
            # The lane index shifted is used where it stands, as a span
            # view is: nothing writes either.
            return _Val(plain, True, dtype=dt)
        if plain.startswith("ks.") or dt in _INT_DTYPES \
                and self.region.shape is None:
            # Outside a block an index vector is made once, unbuffered.
            return self._eager(plain, vals, e, dt)
        return self._op(_UFUNCS[e.op], plain, vals, out, e, dt)

    def _operands(self, e: C.Expr, args: list[C.Expr], ty: str) -> list[_Val]:
        """The operands of ``e``, each converted to ``ty`` -- the type
        ``e`` computes in -- where it has another dtype, as C converts
        it first (the one place an operand is converted).  A floating,
        ``long`` or ``unsigned`` operation converts every operand of
        another dtype, an ``int`` one only a bool or unsigned operand
        (signed ones meet at the wider dtype, as C's do).  A literal is
        not converted: its text is exact and NumPy gives it the other
        operand's dtype -- a scalar operation of literals alone computes
        in ``ty`` through its first operand."""
        vals = [_Val(_literal(a, ty), False)
                if isinstance(a, (C.IntLit, C.FloatLit)) else self.bx(a)
                for a in args]
        dt = _DTYPES.get(ty)
        if dt is None:
            return vals
        wide = dt != "np.int32"
        for k, (v, a) in enumerate(zip(vals, args)):
            if v.dtype != dt and not isinstance(a, (C.IntLit, C.FloatLit)) \
                    and (wide or v.dtype not in (None, *_INT_DTYPES[::2])):
                vals[k] = self._convert(v, a, dt)
        if wide and vals and not any(v.vec or v.dtype for v in vals):
            vals[0] = self._convert(vals[0], args[0], dt)
        return vals

    def _convert(self, v: _Val, e: C.Expr, dt: str) -> _Val:
        """``v``, the value of ``e``, as a ``dt``, as C converts it."""
        if v.vec:
            return self._eager(f"ks.cast_to({v.src}, {dt})", [v], e, dt)
        return _Val(f"{dt}({v.src})" if dt in _FLOAT_DTYPES
                    else f"ks.cast_to({v.src}, {dt})", False, dtype=dt)

    @staticmethod
    def _int_dtype(vals: list[_Val]) -> str | None:
        """The dtype NumPy gives an integer operation over ``vals``: the
        wider of its NumPy operands (a Python ``int`` is weak), or None
        when an operand's width is not tracked."""
        dtypes = [v.dtype for v in vals if v.vec or v.dtype]
        if not set(dtypes) <= set(_INT_DTYPES):
            return None
        return max(dtypes, key=_INT_DTYPES.index, default=None)

    def _dense(self, v: _Val) -> _Val:
        """A block's strided view as a ufunc operand: copied into a slot
        first.  NumPy buffers -- allocating per call -- every operand of
        a multi-dimensional ufunc call that is not contiguous."""
        if v.view is None or v.view[1] != "" or v.dtype is None:
            return v
        return self._into_temp(v.dtype, lambda q: f"{v.src[:-1]}, out={q})")

    def _partial(self, v: _Val) -> bool:
        """``v`` is a lane vector lacking some of the block's axes."""
        return v.vec and v.axes is not None \
            and v.axes != (3 if self.region.shape else 1)

    @staticmethod
    def _axes(vals: list[_Val]) -> int | None:
        """The axes of a result over ``vals`` (None: every axis)."""
        axes = 0
        for v in vals:
            if v.vec:
                if v.axes is None:
                    return None
                axes |= v.axes
        return axes

    def _bind(self, v: _Val) -> _Val:
        """``v`` bound to a name of its own."""
        name = self.tmp("_u")
        self.emit(f"{name} = {v.src}")
        return replace(v, src=name)

    def _eager(self, plain: str, vals: list[_Val], e: C.Expr,
               dtype: str | None = None) -> _Val:
        """Unbuffered evaluation of the lane vector ``plain`` (the text
        of ``e`` over ``vals``), bound to a name at once: an operand's
        slot is free for reuse afterwards, and the name is the value's
        number unless an operand sat in a slot a later operation may
        overwrite in place."""
        axes = self._axes(vals) if vals else 1

        def make() -> _Val:
            return self._bind(_Val(plain, True, dtype=dtype, axes=axes))

        res = make() if any(v.slot is not None for v in vals) \
            else self._number(plain, e, make)
        self._release(*vals)
        return res

    def _op(self, ufunc: str, plain: str, vals: list[_Val],
            out: tuple | None, e: C.Expr, dtype: str | None = None) -> _Val:
        """``ufunc`` over ``vals`` into a slot of its result ``dtype``:
        every operand has the dtype of the operation's C type or is
        weak, so that is the dtype NumPy computes in.  Unbuffered when
        the dtype is not tracked (an integer of unknown width)."""
        if dtype is None or self._partial(
                _Val("", True, axes=self._axes(vals))):
            # Lane- or trip-only operands: no block-sized slot for them
            # (an unbuffered integer keeps no tracked width).
            return self._eager(plain, vals, e,
                               None if dtype in _INT_DTYPES else dtype)
        if self.region.shape is not None:
            if out is not None and out[1] == dtype and vals[0].vec \
                    and vals[0].view is not None and not any(
                        out[0] in v.src for v in vals[1:]):
                # The destination takes the first operand's copy.
                self.emit(f"{vals[0].src[:-1]}, out={out[0]})")
                vals = [replace(vals[0], src=out[0], view=None), *vals[1:]]
            vals = [self._dense(v) for v in vals]
        args = ", ".join(v.src for v in vals)
        if out is not None and out[1] == dtype and not any(
                v.view is not None and v.view[0] == out[2]
                and v.view[1:] != out[3] for v in vals):
            # No operand aliases the destination at another offset.
            self.emit(f"{ufunc}({args}, out={out[0]})")
            self._release(*vals)
            return _Val(out[0], True, dtype=dtype)
        if dtype in _INT_DTYPES and not any(v.slot is not None for v in vals):
            # Index arithmetic: numbered, like the loads it feeds.
            def make() -> _Val:
                return self._into_temp(
                    dtype, lambda q: f"{ufunc}({args}, out={q})")

            return self._number(plain, e, make)
        held = next((v for v in vals
                     if v.slot is not None and v.dtype == dtype), None)
        if held is not None:
            res = _Val(held.src, True, dtype=dtype, slot=held.slot)
            held.slot = None
            self.emit(f"{ufunc}({args}, out={res.src})")
        else:
            res = self._into_temp(dtype, lambda q: f"{ufunc}({args}, out={q})")
        self._release(*vals)
        return res

    def _assign_into(self, dst: str, dtype: str, e: C.Expr,
                     mask: str | None) -> None:
        """``dst[...] = e`` rounded to ``dtype`` (C assignment semantics),
        on the lanes of ``mask``."""
        if mask is None:
            v = self.bx(e, out=(dst, dtype, None, None))
            if v.src != dst:
                # An unsigned scalar as a 0-d array, as ks.store_span has it.
                self.emit(f"{dst}[...] = " + (
                    v.src if v.vec or v.dtype not in _INT_DTYPES[1::2]
                    else f"np.asarray({v.src})"))
        else:
            v = self.bx(e)
            self.emit(f"np.copyto({dst}, {v.src}, casting='unsafe', "
                      f"where={mask})")
        self._release(v)

    # -- statements -----------------------------------------------------------------

    def emit_stmt(self, s: C.Stmt) -> None:
        split = self._split
        if split is None or isinstance(s, C.Compound) \
                and reduction_directive(s) is None:
            self._emit_stmt(s)
            return
        kind = split.kind(s)
        if kind == "mixed":
            self._emit_mixed_if(s)  # type: ignore[arg-type]
        elif (kind == "carried") == (self._part == "replay"):
            # A whole unit of the part being emitted.
            self._split = None
            try:
                if id(s) in self._unmasked:
                    outer, self.mask = self.mask, None
                    self._emit_stmt(s)
                    self.mask = outer
                else:
                    self._emit_stmt(s)
            finally:
                self._split = split
        elif kind == "carried":
            self._lift(s)

    def _emit_stmt(self, s: C.Stmt) -> None:
        red = reduction_directive(s)
        if red is not None:
            self.emit_reduction_to_array(s, red)
        elif isinstance(s, C.Compound):
            for st in s.body:
                self.emit_stmt(st)
        elif isinstance(s, C.Decl):
            self.emit_decl(s)
        elif isinstance(s, C.ExprStmt):
            if isinstance(s.expr, C.Assign):
                if isinstance(s.expr.target, C.Ident):
                    self.emit_scalar_assign(s.expr)
                else:
                    self.emit_store(s.expr)
            elif s.expr is not None and not isinstance(s.expr, C.Call):
                # A call -- a math function, ``printf`` -- emits nothing.
                raise VectorizeError("expression statement has no effect", s.line)
        elif isinstance(s, C.If):
            self.emit_if(s)
        elif isinstance(s, C.For):
            self.emit_inner_loop(s)
        else:
            raise VectorizeError(f"unsupported statement {type(s).__name__}", s.line)

    # -- locals ------------------------------------------------------------------------

    def _declare(self, name: str, ctype: str) -> tuple[str, str]:
        """A local owns one arena slot of its C type and its region's
        length for the whole kernel, so every assignment to it --
        predicated or not -- is in place."""
        dtype = _DTYPES.get(ctype, "np.float64")
        pyname = f"v_{name}"
        self._take_slot(pyname, dtype, hoist=name not in self._redeclared)
        self.locals[name] = pyname
        self.local_home[name] = self.region
        self._forget(pyname)
        return pyname, dtype

    def emit_private(self, name: str) -> None:
        # Of the type its identifiers have (unread: any type will do).
        ctype = next((x.ty for x in C.all_exprs(self.an.nest.body)
                      if isinstance(x, C.Ident) and x.name == name), "float")
        pyname, _ = self._declare(name, ctype)
        self.emit(f"{pyname}.fill(0)")

    def emit_decl(self, s: C.Decl) -> None:
        pyname, dtype = self._declare(s.name, s.ctype.base)
        if s.init is None:
            self.emit(f"{pyname}.fill(0)")
        else:
            self._assign_into(pyname, dtype, s.init, None)

    def emit_scalar_assign(self, a: C.Assign) -> None:
        name = a.target.name  # type: ignore[union-attr]
        if name in self.reduction_vars:
            self.emit_scalar_reduction(name, a)
            return
        if name not in self.locals:
            raise VectorizeError(
                f"assignment to non-local {name!r}: host scalars are read-only "
                "in kernels (use a reduction clause)", a.line)
        pyname = self.locals[name]
        pos = self.region.pos
        if pos is not None and self.local_home[name] is not self.region:
            # An outer local updated on the CSR axis: a segmented sum
            # over the position vector, the only update that is sound.
            if a.op != "+":
                raise VectorizeError(
                    f"only '+=' updates of outer variable {name!r} are "
                    "supported inside a data-dependent inner loop", a.line)
            v = self.bx(a.value)
            m = self.mask
            self.region.pos_used = True
            self.emit(f"np.add.at({pyname}, {pos}, {v.src})" if m is None else
                      f"np.add.at({pyname}, {pos}[{m}], "
                      f"{self._shared(v)}[{m}])")
            self._release(v)
        else:
            value = C.BinOp(a.op, a.target, a.value, a.line,
                            ty=operand_type(a)) if a.op else a.value
            self._assign_into(
                self.local_src(name),
                _DTYPES.get(a.target.ty, "np.float64"), value,
                self.mask)
        self._forget(pyname)

    def emit_scalar_reduction(self, name: str, a: C.Assign) -> None:
        op = self.reduction_vars[name]
        if a.op and a.op != op:
            raise VectorizeError(
                f"reduction variable {name!r} declared with {op!r} but "
                f"updated with {a.op!r}=", a.line)
        # Pattern: var op= expr  /  var = var op expr  /  var = max(var, expr)
        v = self.bx(a.value if a.op else reduction_contrib(name, op, a.value))
        acc = f"_racc_{name}"
        self.emit(f"{acc} = ks.red_fold({op!r}, {acc}, {v.src}, "
                  f"{self.mask or 'None'}, {self.region.n})")
        self._release(v)

    # -- stores ------------------------------------------------------------------------

    def store_target(self, a: C.Assign) -> tuple[str, ArrayConfig, C.Expr]:
        """Array, config and index of a plain store that is legal."""
        target: C.Index = a.target  # type: ignore[assignment]
        name = target.base_name()
        cfg = self.config.arrays[name]
        if cfg.write_handling == WriteHandling.REDUCTION:
            raise VectorizeError(
                f"store to reduction destination {name!r} without a "
                "reductiontoarray annotation", a.line)
        idx = target.indices[0]
        csr = next(iter(self.csr_vars), None)
        if a.op and cfg.placement == Placement.REPLICA and classify_access(
                cfg, idx, csr or self.an.nest.var, self.locals,
                self.an.nest.var if csr else None) == ACCESS_RANDOM:
            raise VectorizeError(
                f"irregular compound update of {name!r} is a complicated "
                "reduction; annotate it with '#pragma acc reductiontoarray' "
                "(paper section III-B)", a.line)
        return name, cfg, idx

    def emit_store(self, a: C.Assign) -> None:
        name, cfg, idx = self.store_target(a)
        span = self.span_start(idx)
        handling = cfg.write_handling
        mask = self.mask
        strided = span is not None and span[1] != "1"
        checked = handling == WriteHandling.MISS_CHECK
        if span is None or strided and checked \
                or mask is not None and (a.op or strided or checked):
            # Not a span store: a scatter (its loads are still spans).
            self.emit_scatter(a, name, cfg, idx)
            return
        off, step = span
        lanes = self.region.n
        at = self._at(off, step)
        lo = f"{at} - _b_{name}"
        if mask is not None:
            # Masked copyto over the slice writes exactly the active
            # lanes, and flatnonzero recovers their global indices for
            # exact dirty marking (the marks must not widen -- transfer
            # bytes are modeled).
            v = self.bx(a.value)
            self.emit(f"ks.store_span_masked(v_{name}, {lo}, {lanes}, "
                      f"{v.src}, {mask})")
            if handling == WriteHandling.DIRTY_BITS:
                self.emit(f"ctx.mark_dirty({name!r}, "
                          f"np.flatnonzero({mask}) + {at})")
        elif checked:
            # The span form performs the window check itself (misses
            # become one ascending record).
            v = self.bx(a.value)
            self.emit(f"ctx.write_checked_span({name!r}, {at}, "
                      f"{at} + {lanes}, {v.src}, {a.op!r})")
        else:
            stride = f", {step}" if strided else ""
            dirty = handling == WriteHandling.DIRTY_BITS
            # Strided: exactly the elements written, never the span they
            # sit in.
            gi = self.bx(idx).src if dirty and strided else None
            direct = False
            if a.op or not step.isdigit():
                # A symbolic stride below 1 has no slice: store_span
                # takes the scatter then.
                v = self.bx(a.value)
            else:
                # The root operation writes straight into the slice when
                # its dtype is proven; the slice is then bound first.
                dst = self.tmp("_d")
                mark = len(self.lines)
                v = self.bx(a.value, out=(dst, _DTYPES.get(cfg.ctype), name,
                                          (off, step)))
                direct = v.src == dst
                if direct:
                    self.lines.insert(mark, "    " * self.indent + (
                        f"{dst} = ks.span_out(v_{name}, {lo}, {lanes}"
                        f"{stride})"))
            if not direct:
                self.emit(f"ks.store_span(v_{name}, {lo}, {lanes}, "
                          f"{v.src}, {a.op!r}{stride})")
            if gi is not None:
                self.emit(f"ctx.mark_dirty({name!r}, {gi})")
            elif dirty:
                self.emit(f"ctx.mark_dirty_span({name!r}, {at}, {lanes})")
        self._release(v)
        self._forget(f"@{name}")

    def _lanes(self, v: _Val, name: str, shared: bool = False) -> str:
        """``v`` as a scatter or reduction operand: the active lanes of a
        vector -- or of a lane-invariant value when ``shared``, broadcast
        first; detached from the destination array it may be a view of."""
        if not v.vec and not shared:
            return v.src
        src = f"{v.src}.copy()" if v.view is not None and v.view[0] == name \
            else self._shared(v)
        if self._partial(v):
            src = f"np.broadcast_to({src}, {self.region.shape})"
        # A block's lanes in C order are trip-major: the order the trips
        # would have written them in.
        return src if self.mask is None else f"{src}[{self.mask}]"

    def emit_scatter(self, a: C.Assign, name: str, cfg: ArrayConfig,
                     idx: C.Expr) -> None:
        handling = cfg.write_handling
        # An index every lane shares is a lane vector all the same, and
        # so is a lane-invariant value stored through it: the last lane
        # writes, ``ufunc.at`` accumulates lane by lane.
        iv = self.bx(idx)
        gi = self._lanes(iv, name, shared=True)
        v = self.bx(a.value)
        gv = self._lanes(v, name, shared=not iv.vec)
        if handling != WriteHandling.LOCAL_PROVEN and not gi.isidentifier():
            gi_vec, gi = gi, self.tmp("_gi")
            self.emit(f"{gi} = {gi_vec}")
        if handling == WriteHandling.MISS_CHECK:
            self.emit(f"ctx.write_checked({name!r}, {gi}, {gv}, {a.op!r})")
        else:
            # Unmasked, the buffer-local index is the number a load of
            # the same element already has.
            at = f"{gi} - _b_{name}" if self.mask is not None \
                or iv.slot is not None or not iv.vec \
                or self.region.shape is not None else \
                self._eager(f"({iv.src} - _b_{name})", [], idx).src
            self.emit(f"ks.store(v_{name}, {at}, {gv}, {a.op!r})")
            if handling == WriteHandling.DIRTY_BITS:
                self.emit(f"ctx.mark_dirty({name!r}, {gi})")
        self._release(iv, v)
        self._forget(f"@{name}")

    def emit_reduction_to_array(self, s: C.Stmt, d: AccReductionToArray) -> None:
        a: C.Assign = s.expr  # type: ignore[union-attr]
        target: C.Index = a.target  # type: ignore[assignment]
        name = target.base_name()
        if name != d.array:
            raise VectorizeError(
                f"reductiontoarray names {d.array!r} but the statement updates "
                f"{name!r}", s.line)
        if a.op != d.op:
            raise VectorizeError(
                f"reductiontoarray({d.op}) must annotate a compound "
                f"'{d.op}=' update", s.line)
        # One contribution per active lane to the private copy; a
        # lane-invariant one stays a scalar unless its index does too.
        iv, v = self.bx(target.indices[0]), self.bx(a.value)
        self.emit(f"ctx.reduce_to_array({name!r}, "
                  f"{self._lanes(iv, name, shared=True)}, "
                  f"{self._lanes(v, name, shared=not iv.vec)}, {d.op!r})")
        self._release(iv, v)
        self._forget(f"@{name}")

    # -- predicates --------------------------------------------------------------------

    def interval_of(self, cond: C.Expr) -> Interval | None:
        if id(cond) not in self._intervals:
            self._intervals[id(cond)] = self._interval_of(cond)
        return self._intervals[id(cond)]

    def _interval_of(self, cond: C.Expr) -> Interval | None:
        """``cond`` as a lane interval, or None (keep the mask).

        Atoms compare two ``int`` expressions affine in the loop
        variable whose difference has coefficient +-1 (a bound) or 0 (a
        lane-invariant guard); a condition that reads an array or a
        kernel local is never an interval.
        """
        if isinstance(cond, C.UnOp) and cond.op == "!":
            inner = self.interval_of(cond.operand)
            return inner.negated() if inner is not None else None
        if isinstance(cond, C.BinOp) and cond.op in ("&&", "||"):
            left = self.interval_of(cond.left)
            right = self.interval_of(cond.right)
            if left is None or right is None:
                return None
            if cond.op == "&&":
                return left.conj(right)
            left, right = left.negated(), right.negated()
            if left is None or right is None:
                return None
            both = left.conj(right)
            return both.negated() if both is not None else None
        if any(isinstance(x, C.Index) for x in C.walk_expr(cond)):
            return None
        if not (isinstance(cond, C.BinOp) and cond.op in _FLIP):
            if self.lane_varying(cond):
                return None
            return Interval(guards=(f"({self.bx(cond).src})",))
        var = self.an.nest.var
        left = affine_in(cond.left, var)
        right = affine_in(cond.right, var)
        if left is None or right is None \
                or self.lane_varying(left.offset) \
                or self.lane_varying(right.offset):
            return None
        coeff = left.coeff - right.coeff
        if coeff == 0:
            left, right = self.bx(left.offset), self.bx(right.offset)
            return Interval(
                guards=(f"(({left.src}) {cond.op} ({right.src}))",))
        if coeff not in (1, -1) or is_float(cond.left.ty) \
                or is_float(cond.right.ty):
            return None
        # coeff*i + l  op  r   <=>   i  op'  coeff*(r - l)
        op = cond.op if coeff == 1 else _FLIP[cond.op]
        lc, rc = const_value(left.offset), const_value(right.offset)
        if lc is not None and rc is not None:
            d = repr(coeff * (rc - lc))
        else:
            rhs = self.bx(right.offset).src
            if lc != 0:
                rhs = f"({rhs}) - ({self.bx(left.offset).src})"
            d = f"{'' if coeff == 1 else '-'}int({rhs})"
        d1 = repr(int(d) + 1) if d.lstrip("-").isdigit() else f"{d} + 1"
        if op == "<":
            return Interval(highs=(d,))
        if op == "<=":
            return Interval(highs=(d1,))
        if op == ">":
            return Interval(lows=(d1,))
        if op == ">=":
            return Interval(lows=(d,))
        return Interval(lows=(d,), highs=(d1,), complement=(op == "!="))

    def _span_lowerable(self, s: C.Stmt) -> bool:
        """Can ``s`` run unmasked over a sub-span?  Not when it folds a
        reduction (two sub-spans would fold in another order) or changes
        the lane axis."""
        bound_names = self.local_names | {self.an.nest.var}
        for st in C.walk(s):
            if reduction_directive(st) is not None:
                return False
            if isinstance(st, C.For):
                il = self._inner_by_id.get(id(st))
                if il is None or il.kind != "constant" \
                        or il.lower is None or il.upper is None:
                    return False
                for bound in (il.lower, il.upper):
                    if any(isinstance(x, C.Ident) and x.name in bound_names
                           for x in C.walk_expr(bound)):
                        return False
            if isinstance(st, C.ExprStmt) and isinstance(st.expr, C.Assign) \
                    and isinstance(st.expr.target, C.Ident) \
                    and st.expr.target.name in self.reduction_vars:
                return False
        return True

    def emit_if(self, s: C.If) -> None:
        iv = self.interval_of(s.cond) \
            if self.plain and self.mask is None else None
        if iv is not None and self._span_lowerable(s.then) \
                and (s.orelse is None or self._span_lowerable(s.orelse)):
            self._emit_interval(s, iv)
            return
        # A condition over lane vectors is the mask as it stands; a
        # lane-invariant one is broadcast over the lanes.
        c = self.truth(s.cond)
        if not c.vec:
            c = self._bind(_Val(self._shared(c), True, dtype="np.bool_"))
        self.emit_masked(s, c.src)
        self._release(c)

    def emit_masked(self, s: C.If, c: str) -> None:
        """Both branches of ``s`` under the bool lane vector ``c``."""
        outer_mask = self.mask
        if outer_mask is None:
            m_then = c
        else:
            m_then = self.tmp("_m")
            self.emit(f"{m_then} = {outer_mask} & {c}")
        self.mask = m_then
        self.emit_stmt(s.then)
        if s.orelse is not None:
            m_else = self.tmp("_m")
            if outer_mask is None:
                self.emit(f"{m_else} = ~{c}")
            else:
                self.emit(f"{m_else} = {outer_mask} & ~{c}")
            self.mask = m_else
            self.emit_stmt(s.orelse)
        self.mask = outer_mask

    def _emit_interval(self, s: C.If, iv: Interval) -> None:
        r = self.region
        p = self.tmp("_p")
        q = self.tmp("_q")
        # lo <= p <= q <= hi
        self.emit(f"{p} = min({r.hi}, max({', '.join((r.lo,) + iv.lows)}))"
                  if iv.lows else f"{p} = {r.lo}")
        hi = f"min({', '.join((r.hi,) + iv.highs)})" if iv.highs else r.hi
        if iv.highs:
            hi = f"max({p}, {hi})"
        if iv.guards:
            hi = f"{hi} if {' and '.join(iv.guards)} else {p}"
        self.emit(f"{q} = {hi}")
        inside, outside = [(p, q)], [(r.lo, p), (q, r.hi)]
        if iv.complement:
            inside, outside = outside, inside
        self._emit_region(inside, s.then)
        if s.orelse is not None:
            self._emit_region(outside, s.orelse)

    def _emit_region(self, pieces: list[tuple[str, str]], body: C.Stmt) -> None:
        """Lower ``body`` unmasked over each sub-span of ``pieces``."""
        self._forget()
        n = self.tmp("_n")
        if len(pieces) == 1:
            lo, hi = pieces[0]
        else:
            lo, hi = self.tmp("_a"), self.tmp("_b")
            spans = ", ".join(f"({a}, {b})" for a, b in pieces)
            self.emit(f"for {lo}, {hi} in ({spans}):")
            self.indent += 1
        self.emit(f"{n} = {hi} - {lo}")
        # An inner loop reports its trip count even over no lanes.
        guarded = not any(isinstance(st, C.For) for st in C.walk(body))
        if guarded:
            self.emit(f"if {n} > 0:")
            self.indent += 1
        outer, self.region = self.region, _Region(n=n, lo=lo, hi=hi)
        outer_lines, self.lines = self.lines, []
        self.emit_stmt(body)
        pad = "    " * self.indent
        outer_lines.extend(pad + line for line in self.region.head)
        outer_lines.extend(self.lines or [pad + "pass"])
        self.lines = outer_lines
        self.region = outer
        self.indent -= guarded + (len(pieces) > 1)
        self._forget()

    # -- inner loops ---------------------------------------------------------------------

    def emit_inner_loop(self, s: C.For) -> None:
        il = self._inner_by_id[id(s)]
        if il.kind == "opaque":
            raise VectorizeError(
                "inner loop bounds are neither lane-invariant nor CSR-shaped",
                s.line)
        self._forget()
        if il.kind == "csr":
            self.emit_csr_loop(s, il)
        elif self._hoist is None:
            # Outermost Python loop: slots of the region it sits in are
            # bound once, ahead of it (``_take_slot``).
            lines, mark, pad = self.lines, len(self.lines), "    " * self.indent
            self._hoist = (self.region, [])
            self.emit_constant_loop(s, il)
            lines[mark:mark] = [pad + line for line in self._hoist[1]]
            self._hoist = None
        else:
            self.emit_constant_loop(s, il)
        self._forget()

    def emit_constant_loop(self, s: C.For, il: InnerLoop) -> None:
        assert il.lower is not None and il.upper is not None
        label = self.labels[id(s)]
        outer_mask = self.mask
        lanes = self.region.n if outer_mask is None \
            else f"int(np.count_nonzero({outer_mask}))"
        split = self._trip_split(s, il)
        if not (self.lane_varying(il.lower) or self.lane_varying(il.upper)):
            lo, hi = self.bx(il.lower).src, self.bx(il.upper).src
            trips = f"max(0, int({hi}))" if const_value(il.lower) == 0 \
                else f"max(0, int({hi}) - int({lo}))"
            self.emit(f"ctx.dyn_count({label!r}, {trips} * {lanes})")
            self._emit_blocks(s, il, split, lo, hi)
            return
        # Lane-varying bounds: the union range, with a per-lane bounds
        # mask.
        lov, hiv = self._bound(il.lower, "_lov"), self._bound(il.upper, "_hiv")
        sel = "" if outer_mask is None else f"[{outer_mask}]"
        self.emit(f"ctx.dyn_count({label!r}, int(np.maximum("
                  f"{hiv}{sel} - {lov}{sel}, 0).sum()))")
        self._emit_blocks(s, il, split, f"int({lov}.min()) if {lov}.size else 0",
                          f"int({hiv}.max()) if {hiv}.size else 0", (lov, hiv))

    def _trip_split(self, s: C.For, il: InnerLoop) -> TripSplit:
        intervals, jname = set(), f"_j_{il.var}"
        if self.plain and self.mask is None:
            # Not before the body's locals are declared: a condition
            # reading one is a mask.
            declared = {st.name for st in C.walk(s.body)
                        if isinstance(st, C.Decl)}
            # As a replayed trip sees it: the trip variable a scalar.
            self.scalar_vars[il.var] = jname
            intervals = {id(st) for st in C.walk(s.body)
                         if isinstance(st, C.If)
                         and not expr_mentions(st.cond, declared)
                         and self.interval_of(st.cond)
                         is not None and self._span_lowerable(st.then)
                         and (st.orelse is None
                              or self._span_lowerable(st.orelse))}
            del self.scalar_vars[il.var]
        return TripSplit(s.body, il.var, set(self.reduction_vars),
                         self._redeclared, intervals,
                         self.region.span.pos is not None)

    def _emit_blocks(self, s: C.For, il: InnerLoop, split: TripSplit,
                     lo: str, hi: str, bounds: tuple | None = None) -> None:
        """The loop over ``[lo, hi)`` as blocks (``ks.tiles``): the
        trip-parallel units once per block, then the carried ones once
        per trip of it, over row views.  A block that computes nothing
        -- every unit carried, the bounds lane-invariant -- is left out:
        the trips replay straight from the range."""
        parent, outer_mask, base = self.region, self.mask, self.indent
        names = self._tmp
        t0, k, shape = (self.tmp(p) for p in ("_t", "_k", "_s"))
        # Closed once the block's slots are counted.
        at, used = len(self.lines), self.slots_used
        self.emit(f"for {t0}, {k}, {shape} in ks.tiles({lo}, {hi}, "
                  f"{parent.shape or f'({parent.n},)'}, ")
        self.indent += 1
        block = _Region(n=f"{k} * {parent.n}", parent=parent, shape=shape,
                        trip=(il.var, t0, k))
        lines, free = self.lines, self._free
        saved = (self._split, self._part, self._lifted)
        self._lifted = dict(self._lifted)
        # The block's slots are its own: bound per block, never ones
        # the entering lanes bind ahead of a loop.
        self.lines, self._free, self.region = [], [], block
        self.block_vars[il.var] = block
        self._split, self._part = split, "block"
        mask = None
        if outer_mask is not None:
            mask = self._bind(_Val(
                f"np.broadcast_to({outer_mask}, {shape})", True)).src
        if bounds is not None:
            col = self._trip_col(il.var).src
            lov, hiv = bounds
            bm = self.tmp("_m")
            self.emit(f"{bm} = ({col} >= {lov}) & ({col} < {hiv})"
                      + ("" if mask is None else f" & {mask}"))
            mask = bm
        self.mask = mask
        self.emit_stmt(s.body)
        self._forget()
        del self.block_vars[il.var]
        jname = f"_j_{il.var}"
        # Nothing but the entering lanes' mask, which a trip reads as
        # it is (a value lifted for the replay is always bound).
        empty = bounds is None and not block.head \
            and len(self.lines) == (outer_mask is not None)
        if empty:
            # Its names were never emitted: they are numbered afresh.
            self.indent, self._tmp = base, names
            first = lo if const_value(il.lower) is not None else f"int({lo})"
            lines[at] = "    " * base + \
                f"for {jname} in range({first}, int({hi})):"
        else:
            lines[at] += f"{max(self.slots_used - used, 1)}):"
            pad = "    " * self.indent
            lines += [pad + line for line in block.head] + self.lines
        if split.carried:
            row = None if empty else self.tmp("_r")
            self.region, self._free, self.lines = parent, free, []
            self._rows[id(block)] = row
            self.mask = outer_mask if empty or mask is None \
                else self._view_in(mask, block, None)
            self.scalar_vars[il.var] = jname
            self._part = "replay"
            self.indent += 1
            self.emit_stmt(s.body)
            self._forget()
            if not empty:
                # The trip's index only where a replayed unit reads it.
                trip = re.compile(rf"\b{jname}\b")
                lines.append(pad + (
                    f"for {row}, {jname} in enumerate(range({t0}, {t0} + {k})):"
                    if any(trip.search(line) for line in self.lines)
                    else f"for {row} in range({k}):"))
            lines += self.lines
            del self._rows[id(block)], self.scalar_vars[il.var]
        if len(lines) == at + 1:
            # An empty body: nothing to run per trip.
            del lines[at]
        self.lines, self._free, self.region = lines, free, parent
        self._split, self._part, self._lifted = saved
        self.mask, self.indent = outer_mask, base

    def _emit_mixed_if(self, s: C.If) -> None:
        """An ``if`` with a trip-parallel condition over carried units:
        the block evaluates its masks, each replayed trip reads a row."""
        outer = self.mask
        if self._part == "block":
            c = self._own(self.truth(s.cond))
            m_then, m_else = c.src, None
            if outer is not None:
                m_then = self._bind(_Val(f"{outer} & {c.src}", True)).src
            if s.orelse is not None:
                m_else = self._bind(_Val(
                    f"~{c.src}" if outer is None
                    else f"{outer} & ~{c.src}", True)).src
            self._conds[id(s)] = (m_then, m_else, self.region)
        else:
            m_then, m_else, home = self._conds[id(s)]
            # A row of a mask no replayed unit reads is not taken.
            split = self._split
            read = any(id(u) in split.carried and id(u) not in self._unmasked
                       for u, path in split.units if s in path)
            m_then = self._view_in(m_then, home, None) if read else None
            if m_else is not None and read:
                m_else = self._view_in(m_else, home, None)
        self.mask = m_then
        self.emit_stmt(s.then)
        if s.orelse is not None:
            self.mask = m_else
            self.emit_stmt(s.orelse)
        self.mask = outer

    def _own(self, v: _Val, temp: bool = False) -> _Val:
        """``v`` as a block value that stays put until the block's
        trips are replayed: a slot no later operation takes or a bound
        view or array (a replayed trip reads a row of a name); in a slot
        of its own when ``temp`` (it is about to be written)."""
        if v.slot is not None:
            return v
        for key, (nv, _, slot) in list(self._numbered.items()):
            if nv.src == v.src and slot is not None:
                del self._numbered[key]
                return replace(v, slot=slot)
        if temp and v.dtype is not None:
            q = self._temp(v.dtype)
            self.emit(f"np.copyto({q.src}, {v.src})")
            return q
        if self._partial(v) or not v.vec:
            return self._bind(_Val(self._shared(replace(v, vec=False)), True,
                                   dtype=v.dtype))
        return self._bind(v) if v.view is not None else v

    def _lift(self, s: C.Stmt) -> None:
        """In the block part, the trip-parallel subexpressions of the
        carried unit ``s``: a replayed trip reads their rows.

        A carried ``x = x op e`` under a block mask (MD's ``fx += dx *
        fc``) replays unmasked: ``e`` is computed in the block and, on
        the lanes the mask leaves out, set to the value that leaves
        ``x`` as it is (``x + -0.0``, ``x - 0.0`` and ``x * 1.0`` are
        ``x``, bit for bit).
        """
        if isinstance(s, (C.If, C.For)):
            return
        exprs: list[C.Expr] = []
        if isinstance(s, C.Decl) and s.init is not None:
            exprs = [s.init]
        elif isinstance(s, C.ExprStmt) and isinstance(s.expr, C.Assign):
            a = s.expr
            exprs = [a.value]
            if isinstance(a.target, C.Index):
                for e in a.target.indices:
                    self._lift_expr(e, True)
            elif self.mask is not None and self._lift_update(s, a):
                return
        for e in exprs:
            self._lift_expr(e)

    def _lift_update(self, s: C.ExprStmt, a: C.Assign) -> bool:
        name = a.target.name  # type: ignore[union-attr]
        if name not in self.locals or name in self.reduction_vars:
            return False
        op, e = a.op, a.value
        if not op and isinstance(e, C.BinOp) and isinstance(e.left, C.Ident) \
                and e.left.name == name:
            op, e = e.op, e.right
        dtype = _DTYPES.get(a.target.ty)
        if op not in _IDENTITY or dtype not in _FLOAT_DTYPES \
                or not self._split.liftable(e) or not self.lane_varying(e):
            return False
        v = self.bx(e)
        if v.dtype != dtype or _DTYPES.get(
                operand_type(a) if a.op else a.value.ty) != dtype:
            # ``x op e`` computes in another dtype than ``x``'s.
            self._lifted[id(e)] = (self._own(v), self.region)
            return False
        v = self._own(v, temp=v.slot is None)
        self.emit(f"np.copyto({v.src}, {_IDENTITY[op]!r}, where=~{self.mask})")
        self._lifted[id(e)] = (v, self.region)
        self._unmasked.add(id(s))
        return True

    def _lift_expr(self, e: C.Expr, subscript: bool = False) -> None:
        if isinstance(e, (C.Ident, C.IntLit, C.FloatLit)):
            return
        if self._split.liftable(e, subscript) and self.lane_varying(e):
            self._lifted[id(e)] = (self._own(self.bx(e)), self.region)
            return
        for x in C.child_exprs(e):
            if not (isinstance(e, C.Index) and x is e.array):
                self._lift_expr(x, subscript or isinstance(e, C.Index))

    def _bound(self, e: C.Expr, prefix: str) -> str:
        """A loop bound as an ``int64`` lane vector of its own: the CSR
        flattening counts in ``int64``, and a constant-trip loop's body
        may overwrite whatever the bound was computed from."""
        v = self.bx(e)
        name = self.tmp(prefix)
        if v.vec:
            self.emit(f"{name} = np.array({v.src}, dtype=np.int64)")
        else:
            if is_float(e.ty):
                v = replace(v, src=f"ks.cast_to({v.src}, np.int64)")
            self.emit(f"{name} = {self._shared(v)}")
        self._release(v)
        return name

    def emit_csr_loop(self, s: C.For, il: InnerLoop) -> None:
        if self.csr_vars:
            raise VectorizeError("nested data-dependent inner loops are not "
                                 "supported", s.line)
        assert il.lower is not None and il.upper is not None
        label = self.labels[id(s)]
        lo, hi = self._bound(il.lower, "_lo"), self._bound(il.upper, "_hi")
        sel = act = ""
        if self.mask is not None:
            act = self.tmp("_act")
            self.emit(f"{act} = np.nonzero({self.mask})[0]")
            sel = f"[{act}]"
        cnt, pos = self.tmp("_cnt"), self.tmp("_pos")
        self.emit(f"{cnt} = np.maximum({hi}{sel} - {lo}{sel}, 0)")
        self.emit(f"ctx.dyn_count({label!r}, int({cnt}.sum()))")
        evar = f"_e_{il.var}"
        mark = len(self.lines)
        self.emit(f"{evar} = ks.flat_ranges({lo}{sel}, {cnt})")
        self._forget()
        # The flattened lanes are a region of their own, unmasked, whose
        # slots are never ones the outer lanes bind ahead of a loop.
        outer = self.region, self._free, self.mask
        self.region = _Region(n=f"{evar}.size", pos=pos)
        self._free, self.mask = [], None
        self.csr_vars[il.var] = evar
        self.emit_stmt(s.body)
        del self.csr_vars[il.var]
        self._forget()
        if self.region.pos_used:
            # Only a body reading an outer-lane operand needs it; with
            # every lane active, its lanes are the region's own.
            r = outer[0]
            act = act or f"{self.lane_index(r)} - {r.lo}"
            self.lines.insert(mark, "    " * self.indent
                              + f"{pos} = np.repeat({act}, {cnt})")
        self.region, self._free, self.mask = outer

    # -- driver ------------------------------------------------------------------------------

    def body_pieces(self) -> list[C.Stmt | str]:
        """The loop body cut at its top level: ``private`` clause names,
        then the statements of the body."""
        body = self.an.nest.body
        top = body.body if isinstance(body, C.Compound) \
            and reduction_directive(body) is None else [body]
        return [*self.private_names, *top]

    def emit_piece(self, piece: C.Stmt | str) -> list[str]:
        """Lower one of :meth:`body_pieces`; returns its lines, indented
        for the top level of the kernel function."""
        self.lines = []
        self.indent = 1
        if isinstance(piece, str):
            self.emit_private(piece)
        else:
            self.emit_stmt(piece)
        return self.lines


#: Source-text-keyed namespaces of exec'd generated code: kernels and
#: host programs are pure functions of their arguments (no free
#: variables beyond the helpers seeded at exec, no module state), so one
#: exec serves every program that generates identical source --
#: fresh translations of one source, registry thaws and repeated runs
#: skip the compile+exec entirely.
_EXEC_CACHE: dict[str, dict] = {}
_EXEC_CACHE_MAX = 512


def exec_source(source: str, filename: str, seed: dict | None = None) -> dict:
    """Exec generated ``source`` once per process; returns its namespace
    (``seed`` holds the names the text expects to find bound)."""
    namespace = _EXEC_CACHE.get(source)
    if namespace is None:
        namespace = dict(seed or ())
        exec(compile(source, filename, "exec"), namespace)
        if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
            _EXEC_CACHE.clear()
        _EXEC_CACHE[source] = namespace
    return namespace


def compile_kernel_source(info: KernelSourceInfo):
    """Exec the generated source and return the kernel callable."""
    return exec_source(info.source, f"<kernel {info.name}>")["kernel"]
