"""Plain-axis kernel lowering and kernel assembly.

The mask lowering (:mod:`repro.translator.vectorizer`) treats every
access as a gather or scatter over a lane-index vector, every ``if`` as
a boolean lane mask and every local as a freshly materialised vector.
On the plain outer axis most of that is allocation and copying, not
arithmetic: the iteration slice of one GPU is a contiguous span ``[i0,
i1)``, so

* an access ``S*i + off`` with a lane-invariant stride ``S`` -- ``1``,
  an integer coefficient, or the symbolic factor of a ``localaccess
  stride(S)`` strip (``i*nfeatures + f``) -- is a strided slice of the
  device buffer (a view, never a gather); a store through one checks its
  first and last element, and marks exactly the elements it wrote;
* any other lane-varying load is the guarded gather ``np.take(a, idx,
  mode='clip', out=slot)``: the clamp ``ks.ld`` performs, into a slot of
  the array's dtype, with no clipped index vector in between;
* an ``if`` whose condition only compares the loop variable with
  lane-invariant integers selects a contiguous *sub-span*: the branch
  body is lowered again, unmasked, over ``[a, b)`` (the complement is at
  most two more sub-spans), so no index vector, no compare vectors and
  no merge are ever built; any other condition over lane vectors *is*
  the mask, and an assignment under it is ``np.copyto(dst, v,
  where=mask)``;
* every local -- ``int`` and ``float`` alike -- owns one arena slot
  (:class:`repro.runtime.kernelctx.ScratchArena`) of its C type, float
  arithmetic is three-address ``np.<ufunc>(x, y, out=slot)``, and the
  last operation of an assignment or store writes straight into its
  destination; slots taken inside a constant-trip loop are bound once,
  ahead of it;
* within a straight-line run, an index subexpression or a load that was
  already evaluated is not evaluated again (textual value numbers, ended
  by a store to the array or an assignment to a local they read).

``out=`` changes where a result lands, never what it is -- but only if
the slot's dtype is the dtype NumPy would have chosen.  That is proven
per operation from the C types (array and local dtypes are exact; a
Python ``float`` is weak against a float array under value-based casting
and under NEP 50 alike; a host scalar a proof leans on is bound through
its C type at kernel entry; a comparison with a lane vector is ``bool``);
whatever cannot be proven -- every integer operation -- is evaluated
unbuffered, same ufunc, same operands.

:func:`lower_body` lowers one priced loop body once, with
:class:`SpanVectorizer`; :func:`kernel_source` assembles the kernel
around it.  The emitter cannot reach the cost model
(:func:`repro.translator.cost.price_body` ran before it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..frontend import cast as C
from ..frontend.analysis import (
    LoopAnalysis,
    affine_in,
    const_value,
    strided_in,
)
from .array_config import ArrayConfig, LoopConfig, WriteHandling
from .cost import reduction_directive
from .vectorizer import _DTYPES, _MATH_CALLS, KernelSourceInfo, Vectorizer

_FLOAT_DTYPES = ("np.float32", "np.float64")
_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply",
           "/": "np.divide"}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_COMPARE = {"<": "np.less", "<=": "np.less_equal", ">": "np.greater",
            ">=": "np.greater_equal", "==": "np.equal", "!=": "np.not_equal"}


@dataclass
class _Val:
    """A translated operand of the plain-axis lowering."""

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
    """The lane span ``[lo, hi)`` statements are currently lowered over."""

    lo: str
    hi: str
    n: str
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


class SpanVectorizer(Vectorizer):
    """The lowering of one parallel loop (see module doc): everything on
    the plain outer axis is lowered here; the CSR-flattened axis is
    inherited -- same masks, same helpers."""

    def __init__(self, *args, slot_base: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: span_start / interval_of per AST node.  Sound for the whole
        #: emission: a local can only make an offset lane-varying, and it
        #: is declared before any use.
        self._spans: dict[int, tuple[str, str] | None] = {}
        self._intervals: dict[int, Interval | None] = {}
        self.top = _Region(lo="ctx.i0", hi="ctx.i1", n="_n")
        self.region = self.top
        #: Region each plain-axis local was declared in: it owns an arena
        #: slot of that region's length, and is sliced against it.
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
        self._pending: list[_Val] = []
        #: Value numbers of the current straight-line run: source text of
        #: a lane-vector computation -> (the name it is bound to, what it
        #: reads: ``v_<local>`` names and ``@<array>``, the slot it keeps
        #: until the number ends).
        self._numbered: dict[str, tuple[_Val, frozenset, int | None]] = {}
        #: Host scalars whose Python type the ``out=`` proofs rely on.
        self.weak: dict[str, str] = {}
        #: The body loads a span (``_ld`` must be bound).
        self.loads = False

    # -- lane spans ----------------------------------------------------------------

    @property
    def plain(self) -> bool:
        return len(self.axis_stack) == 1

    def lane_index(self) -> str:
        r = self.region
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
        home = self.local_home.get(name, self.region)
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

    def emit_inner_loop(self, s: C.For) -> None:
        self._forget()
        if self._hoist is None and self._inner_by_id[id(s)].kind != "csr":
            # Outermost Python loop: slots of the region it sits in are
            # bound once, ahead of it (``_take_slot``).
            lines, mark, pad = self.lines, len(self.lines), "    " * self.indent
            self._hoist = (self.region, [])
            super().emit_inner_loop(s)
            lines[mark:mark] = [pad + line for line in self._hoist[1]]
            self._hoist = None
        else:
            super().emit_inner_loop(s)
        self._forget()

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

    def value_src(self, e: C.Expr) -> str:
        if not self.plain:
            return self.tx(e)
        v = self.bx(e)
        self._pending.append(v)
        return v.src

    def emit_stmt(self, s: C.Stmt) -> None:
        super().emit_stmt(s)
        self._release(*self._pending)
        self._pending.clear()

    # -- loads ---------------------------------------------------------------------------

    def tx_load(self, e: C.Index) -> str:
        if not self.plain:
            return super().tx_load(e)
        # A value kept in an expression string may outlive a later store
        # of the statement: copy a view when the kernel stores to the
        # array.
        return self._bx_load(
            e, copy=self.config.arrays[e.base_name()].written).src

    def _bx_load(self, e: C.Index, copy: bool = False) -> _Val:
        """A plain-axis load: a span view, a lane-invariant element, or
        the guarded gather ``np.take(..., mode='clip')`` into a slot."""
        name = e.base_name()
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
            return _Val(Vectorizer.tx_load(self, e), False, kind=dt)
        iv = self.bx(idx)
        at = self._eager(f"({iv.src} - _b_{name})", [iv], idx)
        if dt is None:
            # No C type to take the slot's dtype from.
            return self._eager(f"ks.ld(v_{name}, {at.src})", [], e)

        def gather() -> _Val:
            q = self._temp(dt)
            self.emit(f"np.take(v_{name}, {at.src}, mode='clip', "
                      f"out={q.src})")
            return q

        return self._number(f"v_{name}[{at.src}]", e, gather)

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
            return self._bx_load(e)
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
        if n == self.an.nest.var:
            return _Val(self.lane_index(), True, dtype="np.int64")
        if n in self.scalar_vars:
            return _Val(self.scalar_vars[n], False, kind="i")
        if n in self.locals and n not in self.reduction_vars:
            return _Val(self.local_src(n), True,
                        dtype=_DTYPES.get(self.local_types.get(n, "")))
        src = self.tx_ident(e)  # host scalar, or the mask lowering's error
        ctype = self.scalar_types.get(n)
        if ctype in ("float", "double"):
            return _Val(src, False, kind="f", deps=frozenset({(n, "float")}))
        if ctype in _DTYPES:
            return _Val(src, False, kind="i", deps=frozenset({(n, "int")}))
        return _Val(src, False)

    def _bx_binop(self, e: C.BinOp, out: tuple | None) -> _Val:
        left = self.bx(e.left)
        right = self.bx(e.right)
        pyop = "//" if e.op == "/" and "float" not in (
            self.expr_type(e.left), self.expr_type(e.right)) else e.op
        plain = f"({left.src} {pyop} {right.src})"
        if left.vec or right.vec:
            if pyop == "//":
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

    # -- locals ------------------------------------------------------------------------

    def _declare(self, name: str, ctype: str) -> tuple[str, str]:
        """A local of the plain axis owns one arena slot of its C type
        for the whole kernel, so every assignment to it -- predicated or
        not -- is in place."""
        dtype = _DTYPES.get(ctype, "np.float64")
        pyname = f"v_{name}"
        self._take_slot(pyname, dtype, hoist=name not in self._redeclared)
        self.locals[name] = pyname
        self.local_axis[name] = 0
        self.local_types[name] = ctype
        self.local_home[name] = self.region
        self._forget(pyname)
        return pyname, dtype

    def emit_private(self, name: str) -> None:
        pyname, _ = self._declare(name, self.local_types.get(name, "float"))
        self.emit(f"{pyname}.fill(0)")

    def emit_decl(self, s: C.Decl) -> None:
        if not self.plain:
            super().emit_decl(s)
            self.local_home.pop(s.name, None)
            return
        pyname, dtype = self._declare(s.name, s.ctype.base)
        if s.init is None:
            self.emit(f"{pyname}.fill(0)")
        else:
            self._assign_into(pyname, dtype, s.init, None)

    def emit_scalar_assign(self, a: C.Assign) -> None:
        name = a.target.name  # type: ignore[union-attr]
        if not self.plain or name not in self.local_home \
                or name in self.reduction_vars:
            super().emit_scalar_assign(a)
            return
        value = C.BinOp(a.op, a.target, a.value, a.line) if a.op else a.value
        self._assign_into(
            self.local_src(name),
            _DTYPES.get(self.local_types[name], "np.float64"), value,
            self.mask)
        self._forget(f"v_{name}")

    # -- stores ------------------------------------------------------------------------

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

    def _lanes(self, v: _Val, name: str) -> str:
        """``v`` as a scatter or reduction operand: the active lanes of a
        vector; detached from the destination array it may be a view
        of."""
        src = f"{v.src}.copy()" if v.view is not None and v.view[0] == name \
            else v.src
        return src if self.mask is None or not v.vec \
            else f"{src}[{self.mask}]"

    def emit_scatter(self, a: C.Assign, name: str, cfg: ArrayConfig,
                     idx: C.Expr) -> None:
        if not self.plain or not self.lane_varying(idx):
            super().emit_scatter(a, name, cfg, idx)
        else:
            handling = cfg.write_handling
            iv = self.bx(idx)
            gi = self._lanes(iv, name)
            v = self.bx(a.value)
            gv = self._lanes(v, name)
            if handling != WriteHandling.LOCAL_PROVEN \
                    and not gi.isidentifier():
                gi_vec, gi = gi, self.tmp("_gi")
                self.emit(f"{gi} = {gi_vec}")
            if handling == WriteHandling.MISS_CHECK:
                self.emit(f"ctx.write_checked({name!r}, {gi}, {gv}, "
                          f"{a.op!r})")
            else:
                # Unmasked, the buffer-local index is the number a load
                # of the same element already has.
                at = f"{gi} - _b_{name}" \
                    if self.mask is not None or iv.slot is not None else \
                    self._eager(f"({iv.src} - _b_{name})", [], idx).src
                self.emit(f"ks.store(v_{name}, {at}, {gv}, {a.op!r})")
                if handling == WriteHandling.DIRTY_BITS:
                    self.emit(f"ctx.mark_dirty({name!r}, {gi})")
            self._release(iv, v)
        self._forget(f"@{name}")

    def emit_reduce(self, name: str, idx: C.Expr, value: C.Expr,
                    op: str) -> None:
        if not self.plain or not self.lane_varying(idx):
            super().emit_reduce(name, idx, value, op)
        else:
            # A lane-invariant contribution stays a scalar.
            iv, v = self.bx(idx), self.bx(value)
            self.emit(f"ctx.reduce_to_array({name!r}, "
                      f"{self._lanes(iv, name)}, {self._lanes(v, name)}, "
                      f"{op!r})")
            self._release(iv, v)
        self._forget(f"@{name}")

    # -- predicates --------------------------------------------------------------------

    def interval_of(self, cond: C.Expr) -> Interval | None:
        if id(cond) not in self._intervals:
            self._intervals[id(cond)] = self._interval_of(cond)
        return self._intervals[id(cond)]

    def _interval_of(self, cond: C.Expr) -> Interval | None:
        """``cond`` as a lane interval, or None (keep the mask path).

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
        elif not self.plain or not self.lane_varying(s.cond):
            super().emit_if(s)
        else:
            # A condition over lane vectors is the mask as it stands.
            if isinstance(s.cond, C.BinOp) and s.cond.op in _COMPARE:
                c = self.bx(s.cond)
            else:
                c = self._eager(self.as_bool(s.cond), [], s.cond)
            self.emit_masked(s, c.src)
            self._release(c)

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
        outer, self.region = self.region, _Region(lo=lo, hi=hi, n=n)
        outer_lines, self.lines = self.lines, []
        self.axis.lanes = n
        self.emit_stmt(body)
        pad = "    " * self.indent
        outer_lines.extend(pad + line for line in self.region.head)
        outer_lines.extend(self.lines or [pad + "pass"])
        self.lines = outer_lines
        self.region = outer
        self.axis.lanes = outer.n
        self.indent -= guarded + (len(pieces) > 1)
        self._forget()


@dataclass
class LoweredBody:
    """One parallel-loop body as kernel statements."""

    #: Statement lines, at function indent.
    lines: list[str]
    #: Temporary counter after this body (fusion chains members).
    tmp_end: int
    #: The body reads the full-span lane-index vector ``_i``.
    iota: bool
    #: Host scalars the body reads.
    scalars: set[str]
    #: Kernel-local names (they may shadow scalar bindings).
    locals: set[str]
    #: Arena slots the body uses, and whether it loads a span.
    slots: int
    loads: bool
    #: Host scalars the ``out=`` proofs need as exactly a Python
    #: ``float`` / ``int`` (name -> type name).
    weak: dict[str, str]


def lower_body(analysis: LoopAnalysis, config: LoopConfig,
               scalar_types: dict[str, str], local_types: dict[str, str],
               labels: dict[int, str], tmp_base: int = 0,
               slot_base: int = 0) -> LoweredBody:
    """Lower one loop body, once.  ``labels`` is what
    :func:`~repro.translator.cost.price_body` returned for it: a body is
    priced before it is lowered, never by its lowering."""
    out = SpanVectorizer(analysis, config, scalar_types, dict(local_types),
                         labels, slot_base=slot_base)
    out._tmp = tmp_base
    lines: list[str] = []
    for piece in out.body_pieces():
        lines += out.emit_piece(piece)
    return LoweredBody(
        lines=lines, tmp_end=out._tmp, iota=out.uses_iota,
        scalars=out.used_scalars, locals=set(out.locals),
        slots=out.slots_used, loads=out.loads, weak=out.weak)


def scalar_binding(name: str, pytype: str | None = None) -> str:
    """Kernel-entry binding of host scalar ``name``; through ``pytype``
    when an ``out=`` proof leans on its Python type."""
    src = f"ctx.scalars[{name!r}]"
    if pytype:
        src = f"{pytype}({src})"
    return f"    v_{name} = {src}"


def kernel_source(bindings: list[tuple[str, str | None]],
                  bodies: list[LoweredBody],
                  prelude: list[str] = (), footer: list[str] = ()) -> str:
    """Assemble the kernel function: ``bindings``, what the bodies need
    bound (recorded by the passes while they emitted), ``prelude``, the
    bodies, ``footer``."""
    head = []
    if any(b.iota for b in bodies):
        # Memoized across launches (read-only; ks.bcv copies on write).
        head.append("    _i = ctx.iota()")
    if prelude or any(b.slots for b in bodies):
        head.append("    _slot = ctx.arena.slot")
    if any(b.loads for b in bodies):
        head.append("    _ld = ks.ld_span")
    weak = {n: t for body in bodies for n, t in body.weak.items()}
    used = set().union(*(body.scalars for body in bodies))
    # Only the scalars a body reads are bound; one an ``out=`` proof
    # leans on, through its C type.
    bound = [(scalar_binding(s, weak[s]) if s in weak else line, s)
             for line, s in bindings if s is None or s in used]
    lines = [
        "def kernel(ctx):",
        "    np = ctx.np",
        "    ks = ctx.ks",
        "    _n = ctx.i1 - ctx.i0",
        "    if _n <= 0:",
        "        return",
        *(line for line, _ in bound), *head, *prelude,
    ]
    for body in bodies:
        lines += body.lines
        # A local named like a host scalar shadowed its binding for the
        # rest of the kernel: restore it.
        lines += [line for line, s in bound if s in body.locals]
    return "\n".join(lines + list(footer)) + "\n"


def binding_lines(arrays: list[str], scalars: list[str]
                  ) -> list[tuple[str, str | None]]:
    """Kernel-entry bindings of device buffers, their global bases and
    the host scalars (each of those with the scalar's name: it is bound
    only if a body reads it)."""
    lines: list[tuple[str, str | None]] = []
    if arrays:
        lines.append(("    _A, _B = ctx.arrays, ctx.base", None))
    for name in arrays:
        lines.append((f"    v_{name}, _b_{name} = _A[{name!r}], _B[{name!r}]",
                      None))
    for name in scalars:
        lines.append((scalar_binding(name), name))
    return lines


def vectorize_loop(name: str, analysis: LoopAnalysis, config: LoopConfig,
                   scalar_types: dict[str, str], local_types: dict[str, str],
                   labels: dict[int, str]) -> KernelSourceInfo:
    """Translate one priced parallel loop into kernel source."""
    body = lower_body(analysis, config, scalar_types, local_types, labels)
    bindings = binding_lines(sorted(config.arrays),
                             sorted(set(analysis.host_scalars)))
    footer = []
    for op, var in analysis.scalar_reductions:
        bindings.append((f"    _racc_{var} = ks.red_identity({op!r})", None))
        footer.append(f"    ctx.reduce_scalar({op!r}, {var!r}, _racc_{var})")
    return KernelSourceInfo(
        name, kernel_source(bindings, [body], footer=footer))
