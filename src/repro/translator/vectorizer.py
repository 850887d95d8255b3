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
  are bound once, ahead of it;
* within a straight-line run, an index subexpression or a load that was
  already evaluated is not evaluated again (textual value numbers, ended
  by a store to the array or an assignment to a local they read);
* constant-trip inner loops (MD's neighbour loop, KMEANS' cluster loop)
  run as short Python loops of vectorized operations; lane-varying
  bounds (``for (j = i; ...)``) add a per-trip bounds mask;
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

``out=`` changes where a result lands, never what it is -- but only if
the slot's dtype is the dtype NumPy would have chosen.  That is proven
per operation from the C types (array and local dtypes are exact; a
Python ``float`` is weak against a float array under value-based casting
and under NEP 50 alike; a host scalar a proof leans on is bound through
its C type at kernel entry; a comparison with a lane vector is ``bool``);
whatever cannot be proven -- every integer operation -- is evaluated
unbuffered, same ufunc, same operands.

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

from dataclasses import dataclass, field, replace

from ..frontend import cast as C
from ..frontend.analysis import (
    InnerLoop,
    LoopAnalysis,
    affine_in,
    const_value,
    strided_in,
)
from ..frontend.directives import AccReductionToArray
from .array_config import ArrayConfig, LoopConfig, Placement, WriteHandling
from .cost import (
    ACCESS_RANDOM,
    classify_access,
    expr_type,
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


#: Python function of every math call (``cost.CALL_KIND`` prices them).
_MATH_CALLS = {
    "sqrt": "np.sqrt", "sqrtf": "np.sqrt",
    "rsqrt": "_rsqrt", "rsqrtf": "_rsqrt",
    "fabs": "np.abs", "fabsf": "np.abs", "abs": "np.abs",
    "exp": "np.exp", "expf": "np.exp", "log": "np.log", "logf": "np.log",
    "pow": "np.power", "powf": "np.power", "sin": "np.sin", "cos": "np.cos",
    "floor": "np.floor", "floorf": "np.floor",
    "ceil": "np.ceil", "ceilf": "np.ceil",
    "min": "np.minimum", "fmin": "np.minimum", "fminf": "np.minimum",
    "max": "np.maximum", "fmax": "np.maximum", "fmaxf": "np.maximum",
}

_DTYPES = {"float": "np.float32", "double": "np.float64", "char": "np.int8",
           "int": "np.int32", "unsigned int": "np.uint32",
           "long": "np.int64", "unsigned long": "np.uint64"}

_FLOAT_DTYPES = ("np.float32", "np.float64")
_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply",
           "/": "np.divide"}
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
    #: Vectors: the NumPy dtype (source text) the value provably has.
    dtype: str | None = None
    #: Scalars: ``'f'`` Python float, ``'i'`` Python int, ``'il'`` int
    #: literal below 2**31, a dtype text for a NumPy scalar of exactly
    #: that dtype, None when unknown.
    kind: str | None = None
    #: Scratch slot this temporary owns (released once consumed).
    slot: int | None = None
    #: ``(host scalar, Python type name)`` pairs ``kind`` relies on.
    deps: frozenset = frozenset()
    #: ``(array, offset source, step source)`` when the value is a span
    #: view of a device buffer.
    view: tuple[str, str, str] | None = None


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


class Vectorizer:
    """One-shot emitter for a single parallel loop that
    :func:`~repro.translator.cost.price_body` has priced: ``labels`` is
    its result, the name each inner loop reports its trips under; slots
    are numbered from ``slot_base`` (fusion chains members)."""

    def __init__(
        self,
        analysis: LoopAnalysis,
        config: LoopConfig,
        scalar_types: dict[str, str],
        local_types: dict[str, str],
        labels: dict[int, str],
        slot_base: int = 0,
    ) -> None:
        self.an = analysis
        self.config = config
        self.scalar_types = scalar_types
        self.local_types = local_types
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
        #: Host scalars the body reads (only these are bound).
        self.used_scalars: set[str] = set()
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
        #: Value numbers of the current straight-line run: source text of
        #: a lane-vector computation -> (the name it is bound to, what it
        #: reads: ``v_<local>`` names and ``@<array>``, the slot it keeps
        #: until the number ends).
        self._numbered: dict[str, tuple[_Val, frozenset, int | None]] = {}
        #: Host scalars whose Python type the ``out=`` proofs rely on.
        self.weak: dict[str, str] = {}
        #: The body loads a span (``_ld`` must be bound).
        self.loads = False

    # -- small utilities -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def tmp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def expr_type(self, e: C.Expr) -> str:
        """'float' or 'int' (bools count as int)."""
        return expr_type(e, self.local_types, self.scalar_types,
                         self.config.arrays)

    def lane_varying(self, e: C.Expr) -> bool:
        """Does ``e`` differ across lanes?"""
        for x in C.walk_expr(e):
            if isinstance(x, C.Ident):
                n = x.name
                if n == self.an.nest.var or n in self.locals or n in self.csr_vars:
                    return True
        return False

    # -- expression strings ----------------------------------------------------------
    #
    # The text of what :meth:`bx` does not evaluate itself (logical
    # operators, ``%``, ternaries, casts in conditions) and of
    # lane-invariant bounds and guards.

    def tx(self, e: C.Expr) -> str:
        if isinstance(e, C.IntLit):
            return repr(e.value)
        if isinstance(e, C.FloatLit):
            return repr(e.value)
        if isinstance(e, C.Ident):
            return self._bx_ident(e).src
        if isinstance(e, C.BinOp):
            return self.tx_binop(e)
        if isinstance(e, C.UnOp):
            return self.tx_unop(e)
        if isinstance(e, C.Ternary):
            c = self.as_bool(e.cond)
            a = self.tx(e.then)
            b = self.tx(e.other)
            return f"np.where({c}, {a}, {b})"
        if isinstance(e, C.Call):
            args = ", ".join(self.tx(a) for a in e.args)
            return f"{_MATH_CALLS[e.func]}({args})"
        if isinstance(e, C.Index):
            # A value kept in an expression string may outlive a later
            # store of the statement: copy a view when the kernel stores
            # to the array.
            return self._bx_load(
                e, copy=self.config.arrays[e.base_name()].written).src
        if isinstance(e, C.CastExpr):
            dt = _DTYPES.get(e.to.base if not e.to.pointers else "long", "np.float64")
            return f"ks.cast_to({self.tx(e.operand)}, {dt})"
        raise VectorizeError(f"unsupported expression {type(e).__name__}")

    def tx_binop(self, e: C.BinOp) -> str:
        op = e.op
        l = self.tx(e.left)
        r = self.tx(e.right)
        if op in ("&&", "||"):
            return f"({self._boolify(l)} {op[0]} {self._boolify(r)})"
        if op in ("/", "%") and "float" not in (self.expr_type(e.left),
                                                self.expr_type(e.right)):
            # C truncates an integer quotient toward zero, NumPy floors.
            if op == "/":
                return f"ks.tdiv({l}, {r})"
            return f"np.fmod({l}, {r})" if self.lane_varying(e) \
                else f"ks.tmod({l}, {r})"
        return f"({l} {op} {r})"

    def _boolify(self, src: str) -> str:
        return f"(np.asarray({src}) != 0)"

    def tx_unop(self, e: C.UnOp) -> str:
        v = self.tx(e.operand)
        if e.op == "!":
            return f"(~{self._boolify(v)})"
        return v if e.op == "+" else f"({e.op}{v})"

    def as_bool(self, e: C.Expr) -> str:
        src = self.tx(e)
        if isinstance(e, C.BinOp) and e.op in ("<", ">", "<=", ">=", "==", "!=",
                                               "&&", "||"):
            return src
        if isinstance(e, C.UnOp) and e.op == "!":
            return src
        return self._boolify(src)

    # -- lane regions --------------------------------------------------------------

    @property
    def plain(self) -> bool:
        """The lanes are a contiguous span of the slice."""
        return self.region.pos is None

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
        """A local of this region, or of the span region enclosing it."""
        home = self.local_home[name]
        r = self.region
        if home is r:
            return self.locals[name]
        alias = r.aliases.get(name)
        if alias is None:
            alias = r.aliases[name] = self.tmp(f"_r_{name}")
            r.head.append(f"{alias} = {self.locals[name]}"
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
                    span = self.tx(parts[1]), self.tx(parts[0])
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
        return v.src if v.vec else \
            f"np.broadcast_to({v.src}, ({self.region.n},))"

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

    def _alloc(self) -> int:
        if self._free:
            self._free.sort()
            return self._free.pop(0)
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
        k = self._alloc()
        line = f"{name} = {self._slot_call(k, self.region.n, dtype)}"
        if hoist and self._hoist is not None \
                and self._hoist[0] is self.region:
            self._hoist[1].append(line)
        else:
            self.emit(line)
        return k

    def _temp(self, dtype: str) -> _Val:
        name = self.tmp("_q")
        return _Val(name, True, dtype=dtype, slot=self._take_slot(name, dtype))

    # -- loads ---------------------------------------------------------------------------

    def _bx_load(self, e: C.Index, copy: bool = False,
                 out: tuple | None = None) -> _Val:
        """A load: a span view, a lane-invariant element, or the guarded
        gather ``np.take(..., mode='clip')`` into a slot -- or, as the
        root of an assignment (``out``, see :meth:`bx`) with the
        destination's dtype, straight into the destination."""
        name = e.base_name()
        # One subscript: the pricing walk rejects any other.
        idx = e.indices[0]
        dt = _DTYPES.get(self.config.arrays[name].ctype)
        span = self.span_start(idx)
        if span is not None:
            off, step = span
            self.loads = True
            # Out-of-buffer spans (halo loads at block edges under a
            # data-dependent predicate) fall back to the clipped gather
            # inside ld_span, so values match ks.ld exactly.
            src = (f"_ld(v_{name}, {self._at(off, step)} - _b_{name}, "
                   f"{self.region.n}{'' if step == '1' else ', ' + step}"
                   f"{', copy=True' if copy else ''})")
            view = _Val(src, True, dtype=dt, view=(name, off, step))
            if step == "1":
                return view
            return self._number(src, e, lambda: self._bind(view))
        if not self.lane_varying(idx):
            return _Val(f"ks.ld(v_{name}, {self.tx(idx)} - _b_{name})", False,
                        kind=dt)
        iv = self.bx(idx)
        at = self._eager(f"({iv.src} - _b_{name})", [iv], idx)
        if dt is None:
            # No C type to take the slot's dtype from.
            return self._eager(f"ks.ld(v_{name}, {at.src})", [], e)
        key = f"v_{name}[{at.src}]"
        # Not into a view of the array it gathers from.
        if out is not None and out[1] == dt and out[2] != name \
                and key not in self._numbered:
            self.emit(f"np.take(v_{name}, {at.src}, mode='clip', "
                      f"out={out[0]})")
            return _Val(out[0], True, dtype=dt)

        def gather() -> _Val:
            q = self._temp(dt)
            self.emit(f"np.take(v_{name}, {at.src}, mode='clip', "
                      f"out={q.src})")
            return q

        return self._number(key, e, gather)

    def _outer(self, src: str, dtype: str, e: C.Expr) -> _Val:
        """An outer-lane value ``src`` read on the CSR axis: gathered
        through the position vector into a slot, once per straight-line
        run."""
        pos = self.region.pos

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
        if isinstance(e, C.FloatLit):
            return _Val(repr(e.value), False, kind="f")
        if isinstance(e, C.IntLit):
            return _Val(repr(e.value), False,
                        kind="il" if abs(e.value) < 2 ** 31 else "i")
        if isinstance(e, C.Ident):
            return self._bx_ident(e)
        if isinstance(e, C.Index):
            return self._bx_load(e, out=out)
        if isinstance(e, C.UnOp) and e.op == "+":
            return self.bx(e.operand, out)
        if isinstance(e, C.UnOp) and e.op == "-":
            v = self.bx(e.operand)
            if not v.vec:
                kind = "i" if v.kind == "il" else v.kind
                return _Val(f"(-{v.src})", False, kind=kind, deps=v.deps)
            return self._op("np.negative", f"(-{v.src})", [v], out, e)
        if isinstance(e, C.BinOp) and e.op in _UFUNCS:
            return self._bx_binop(e, out)
        if isinstance(e, C.BinOp) and e.op in _COMPARE:
            vals = [self.bx(e.left), self.bx(e.right)]
            plain = f"({vals[0].src} {e.op} {vals[1].src})"
            if not any(v.vec for v in vals):
                return _Val(plain, False)
            # A comparison with a lane vector is a bool lane vector,
            # whatever it compares.
            return self._op(_COMPARE[e.op], plain, vals, None, e, "np.bool_")
        if isinstance(e, C.Call) and _MATH_CALLS[e.func].startswith("np."):
            fn = _MATH_CALLS[e.func]
            vals = [self.bx(a) for a in e.args]
            plain = f"{fn}({', '.join(v.src for v in vals)})"
            if not any(v.vec for v in vals):
                return _Val(plain, False)
            return self._op(fn, plain, vals, out, e)
        if isinstance(e, C.CastExpr):
            v = self.bx(e.operand)
            dt = _DTYPES.get(e.to.base if not e.to.pointers else "long",
                             "np.float64")
            src = f"ks.cast_to({v.src}, {dt})"
            if not v.vec:
                return _Val(src, False, kind=dt)
            return self._eager(src, [v], e, dtype=dt)
        return _Val(self.tx(e), self.lane_varying(e))

    def _bx_ident(self, e: C.Ident) -> _Val:
        n = e.name
        pos = self.region.pos
        if n == self.an.nest.var:
            if pos is None:
                return _Val(self.lane_index(), True, dtype="np.int64")
            return self._outer(self.lane_index(self.top), "np.int64", e)
        if n in self.csr_vars:
            return _Val(self.csr_vars[n], True, dtype="np.int64")
        if n in self.scalar_vars:
            return _Val(self.scalar_vars[n], False, kind="i")
        if n in self.reduction_vars:
            raise VectorizeError(
                f"reduction variable {n!r} may only appear in its reduction "
                "statement", e.line,
            )
        if n in self.locals:
            if pos is None or self.local_home[n] is self.region:
                return _Val(self.local_src(n), True,
                            dtype=_DTYPES.get(self.local_types.get(n, "")))
            return self._outer(self.locals[n], _DTYPES.get(
                self.local_types[n], "np.float64"), e)
        if n in self.config.arrays:
            raise VectorizeError(f"array {n!r} used without subscript", e.line)
        if n in self.scalar_types or n in self.an.host_scalars:
            self.used_scalars.add(n)
            ctype = self.scalar_types.get(n)
            if ctype in ("float", "double"):
                return _Val(f"v_{n}", False, kind="f",
                            deps=frozenset({(n, "float")}))
            if ctype in _DTYPES:
                return _Val(f"v_{n}", False, kind="i",
                            deps=frozenset({(n, "int")}))
            return _Val(f"v_{n}", False)
        raise VectorizeError(f"unknown identifier {n!r}", e.line)

    def _bx_binop(self, e: C.BinOp, out: tuple | None) -> _Val:
        left = self.bx(e.left)
        right = self.bx(e.right)
        tdiv = e.op == "/" and "float" not in (
            self.expr_type(e.left), self.expr_type(e.right))
        plain = f"ks.tdiv({left.src}, {right.src})" if tdiv \
            else f"({left.src} {e.op} {right.src})"
        if left.vec or right.vec:
            if tdiv:
                return self._eager(plain, [left, right], e)
            return self._op(_UFUNCS[e.op], plain, [left, right], out, e)
        pyscalars = ("f", "i", "il")
        kind = None
        if left.kind in pyscalars and right.kind in pyscalars:
            kind = "f" if "f" in (left.kind, right.kind) else "i"
        return _Val(plain, False, kind=kind, deps=left.deps | right.deps)

    def _proven(self, vals: list[_Val]) -> str | None:
        """The float dtype NumPy gives an arithmetic ufunc over ``vals``,
        when that can be told from the C types alone."""
        dtype = None
        for v in vals:
            if v.vec:
                if v.dtype not in _FLOAT_DTYPES or dtype not in (None, v.dtype):
                    return None
                dtype = v.dtype
        if dtype is None:
            return None
        for v in vals:
            if not v.vec and v.kind not in ("f", "il", dtype):
                return None
        return dtype

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
        def make() -> _Val:
            return self._bind(_Val(plain, True, dtype=dtype))

        res = make() if any(v.slot is not None for v in vals) \
            else self._number(plain, e, make)
        self._release(*vals)
        return res

    def _op(self, ufunc: str, plain: str, vals: list[_Val],
            out: tuple | None, e: C.Expr, dtype: str | None = None) -> _Val:
        """``ufunc`` over ``vals`` into a slot of its result ``dtype`` --
        given, or proven from the operands; unbuffered when neither."""
        if dtype is None:
            dtype = self._proven(vals)
            if dtype is None:
                return self._eager(plain, vals, e)
            for v in vals:
                if not v.vec:
                    self.weak.update(v.deps)
        args = ", ".join(v.src for v in vals)
        if out is not None and out[1] == dtype and not any(
                v.view is not None and v.view[0] == out[2]
                and v.view[1:] != out[3] for v in vals):
            # No operand aliases the destination at another offset.
            self.emit(f"{ufunc}({args}, out={out[0]})")
            self._release(*vals)
            return _Val(out[0], True, dtype=dtype)
        held = next((v for v in vals
                     if v.slot is not None and v.dtype == dtype), None)
        if held is not None:
            res = _Val(held.src, True, dtype=dtype, slot=held.slot)
            held.slot = None
        else:
            res = self._temp(dtype)
        self.emit(f"{ufunc}({args}, out={res.src})")
        self._release(*vals)
        return res

    def _assign_into(self, dst: str, dtype: str, e: C.Expr,
                     mask: str | None) -> None:
        """``dst[...] = e`` rounded to ``dtype`` (C assignment semantics),
        on the lanes of ``mask``."""
        if mask is None:
            v = self.bx(e, out=(dst, dtype, None, None))
            if v.src != dst:
                self.emit(f"{dst}[...] = {v.src}")
        else:
            v = self.bx(e)
            self.emit(f"np.copyto({dst}, {v.src}, casting='unsafe', "
                      f"where={mask})")
        self._release(v)

    # -- statements -----------------------------------------------------------------

    def emit_stmt(self, s: C.Stmt) -> None:
        red = reduction_directive(s)
        if red is not None:
            self.emit_reduction_to_array(s, red)
        elif isinstance(s, C.Compound):
            for st in s.body:
                self.emit_stmt(st)
        elif isinstance(s, C.Decl):
            self.emit_decl(s)
        elif isinstance(s, C.ExprStmt):
            if s.expr is None:
                return
            if isinstance(s.expr, C.Assign):
                if isinstance(s.expr.target, C.Ident):
                    self.emit_scalar_assign(s.expr)
                else:
                    self.emit_store(s.expr)
            elif isinstance(s.expr, C.Call):
                if s.expr.func in ("printf", "fprintf"):
                    self.emit(f"pass  # {s.expr.func} elided in kernel")
                else:
                    self.tx(s.expr)  # side-effect-free; evaluate for errors
            else:
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
        self.local_types[name] = ctype
        self.local_home[name] = self.region
        self._forget(pyname)
        return pyname, dtype

    def emit_private(self, name: str) -> None:
        pyname, _ = self._declare(name, self.local_types.get(name, "float"))
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
            self.emit(f"np.add.at({pyname}, {pos}, {v.src})" if m is None else
                      f"np.add.at({pyname}, {pos}[{m}], "
                      f"{self._shared(v)}[{m}])")
            self._release(v)
        else:
            value = C.BinOp(a.op, a.target, a.value, a.line) if a.op \
                else a.value
            self._assign_into(
                self.local_src(name),
                _DTYPES.get(self.local_types[name], "np.float64"), value,
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
                or iv.slot is not None or not iv.vec else \
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
            return Interval(guards=(f"({self.tx(cond)})",))
        var = self.an.nest.var
        left = affine_in(cond.left, var)
        right = affine_in(cond.right, var)
        if left is None or right is None \
                or self.lane_varying(left.offset) \
                or self.lane_varying(right.offset):
            return None
        coeff = left.coeff - right.coeff
        if coeff == 0:
            return Interval(guards=(f"(({self.tx(left.offset)}) {cond.op} "
                                    f"({self.tx(right.offset)}))",))
        if coeff not in (1, -1) or self.expr_type(cond.left) != "int" \
                or self.expr_type(cond.right) != "int":
            return None
        # coeff*i + l  op  r   <=>   i  op'  coeff*(r - l)
        op = cond.op if coeff == 1 else _FLIP[cond.op]
        lc, rc = const_value(left.offset), const_value(right.offset)
        if lc is not None and rc is not None:
            d = repr(coeff * (rc - lc))
        else:
            rhs = self.tx(right.offset)
            if lc != 0:
                rhs = f"({rhs}) - ({self.tx(left.offset)})"
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
        bound_names = set(self.local_types) | {self.an.nest.var}
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
        if isinstance(s.cond, C.BinOp) and s.cond.op in _COMPARE:
            c = self.bx(s.cond)
        elif self.lane_varying(s.cond):
            c = self._eager(self.as_bool(s.cond), [], s.cond)
        else:
            c = _Val(self.as_bool(s.cond), False)
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
        jname = f"_j_{il.var}"
        outer_mask = self.mask
        if not self.lane_varying(il.lower) and not self.lane_varying(il.upper):
            lo, hi = self.tmp("_lo"), self.tmp("_hi")
            self.emit(f"{lo} = {self.tx(il.lower)}")
            self.emit(f"{hi} = {self.tx(il.upper)}")
            lanes = self.region.n if outer_mask is None \
                else f"int(np.count_nonzero({outer_mask}))"
            self.emit(f"ctx.dyn_count({label!r}, max(0, int({hi}) - "
                      f"int({lo})) * {lanes})")
            self.emit(f"for {jname} in range(int({lo}), int({hi})):")
            self.indent += 1
        else:
            # Lane-varying bounds: iterate the union range with a
            # per-lane bounds mask.
            lov, hiv = self._bound(il.lower, "_lov"), self._bound(il.upper, "_hiv")
            sel = "" if outer_mask is None else f"[{outer_mask}]"
            self.emit(f"ctx.dyn_count({label!r}, int(np.maximum("
                      f"{hiv}{sel} - {lov}{sel}, 0).sum()))")
            self.emit(f"for {jname} in range(int({lov}.min()) if {lov}.size else 0, "
                      f"int({hiv}.max()) if {hiv}.size else 0):")
            self.indent += 1
            bm = self.tmp("_m")
            cond = f"(({jname} >= {lov}) & ({jname} < {hiv}))"
            self.emit(f"{bm} = {cond}" if outer_mask is None
                      else f"{bm} = {outer_mask} & {cond}")
            self.mask = bm
        self.scalar_vars[il.var] = jname
        self.emit_stmt(s.body)
        del self.scalar_vars[il.var]
        self.mask = outer_mask
        self.indent -= 1

    def _bound(self, e: C.Expr, prefix: str) -> str:
        """A loop bound as an ``int64`` lane vector of its own: the CSR
        flattening counts in ``int64``, and a constant-trip loop's body
        may overwrite whatever the bound was computed from."""
        v = self.bx(e)
        name = self.tmp(prefix)
        if v.vec:
            self.emit(f"{name} = np.array({v.src}, dtype=np.int64)")
        else:
            if self.expr_type(e) != "int":
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
        act, cnt, pos = (self.tmp(p) for p in ("_act", "_cnt", "_pos"))
        self.emit(f"{act} = np.arange({self.region.n})" if self.mask is None
                  else f"{act} = np.nonzero({self.mask})[0]")
        self.emit(f"{cnt} = np.maximum({hi}[{act}] - {lo}[{act}], 0)")
        self.emit(f"ctx.dyn_count({label!r}, int({cnt}.sum()))")
        evar = f"_e_{il.var}"
        self.emit(f"{pos} = np.repeat({act}, {cnt})")
        self.emit(f"{evar} = ks.flat_ranges({lo}[{act}], {cnt})")
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
