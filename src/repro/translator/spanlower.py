"""Span-native kernel lowering and kernel assembly.

The mask lowering (:mod:`repro.translator.vectorizer`) treats every
access as a gather or scatter over a lane-index vector and every ``if``
as a boolean lane mask.  On the plain outer axis most of that is
allocation and copying, not arithmetic: the iteration slice of one GPU
is a contiguous span ``[i0, i1)``, so

* a unit-stride access is a slice of the device buffer (a view, never a
  gather);
* an ``if`` whose condition only compares the loop variable with
  lane-invariant integers selects a contiguous *sub-span*: the branch
  body is lowered again, unmasked, over ``[a, b)`` (the complement is at
  most two more sub-spans), so no index vector, no compare vectors and
  no ``np.where`` merge are ever built;
* float arithmetic is emitted as three-address ``np.<ufunc>(x, y,
  out=slot)`` over scratch slots taken from the launch's arena
  (:class:`repro.runtime.kernelctx.ScratchArena`), with the last
  operation of a store writing straight into the destination slice.

``out=`` changes where a result lands, never what it is -- but only if
the slot's dtype is the dtype NumPy would have chosen.  That is proven
per operation from the C types (array and local dtypes are exact; a
Python ``float`` is weak against a float array under value-based casting
and under NEP 50 alike; a host scalar a proof leans on is bound through
its C type at kernel entry); whatever cannot be proven is evaluated
unbuffered, as the mask lowering does.

:func:`lower_body` lowers one priced loop body once, with the one
emitter that fits it: this one where the body has a unit-stride access,
the mask lowering where it has none.  :func:`kernel_source` assembles
the kernel around it.  Neither emitter can reach the cost model
(:func:`repro.translator.cost.price_body` ran before them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import cast as C
from ..frontend.analysis import LoopAnalysis, affine_in, const_value
from .array_config import LoopConfig, WriteHandling
from .cost import reduction_directive
from .vectorizer import _DTYPES, _MATH_CALLS, KernelSourceInfo, Vectorizer

_FLOAT_DTYPES = ("np.float32", "np.float64")
_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply",
           "/": "np.divide"}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


@dataclass
class _Val:
    """A translated operand of the span lowering."""

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
    #: ``(array, offset source)`` when the value is a span view of a
    #: device buffer.
    view: tuple[str, str] | None = None


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
    """The span-native lowering of one parallel loop (see module doc).

    Everything off the plain outer axis (CSR-flattened inner loops) and
    every construct it has no span form for is inherited: same masks,
    same helpers, with unit-stride loads as slices.
    """

    def __init__(self, *args, slot_base: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: span_start / interval_of per AST node.  Sound across the
        #: pre-pass and the emission: a local can only make an offset
        #: lane-varying, and it is declared before any use.
        self._spans: dict[int, str | None] = {}
        self._intervals: dict[int, Interval | None] = {}
        self.top = _Region(lo="ctx.i0", hi="ctx.i1", n="_n")
        self.region = self.top
        #: Region a local was declared in (slices are taken against it).
        self.local_home: dict[str, _Region] = {}
        #: Float locals that live in an arena slot for the whole kernel
        #: (chosen up front by :meth:`_slot_locals`), and those of them
        #: declared so far.
        self.slot_locals = self._slot_locals()
        self.slotted: set[str] = set()
        self.slot_base = slot_base
        self.slots_used = 0
        self._free: list[int] = []
        self._pending: list[_Val] = []
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

    def span_start(self, idx: C.Expr) -> str | None:
        """Offset source of a unit-stride outer-lane access, or None.

        An access spans ``[off + lo, off + hi)`` contiguously when the
        kernel is on the plain outer axis (CSR flattening reshuffles
        lanes), the index is affine in the loop variable with
        coefficient 1, and the offset is lane-invariant.
        """
        if not self.plain:
            return None
        if id(idx) not in self._spans:
            aff = affine_in(idx, self.an.nest.var)
            unit = aff is not None and aff.coeff == 1 \
                and not self.lane_varying(aff.offset)
            self._spans[id(idx)] = self.tx(aff.offset) if unit else None
        return self._spans[id(idx)]

    def touches_span(self, node: C.Expr | C.Stmt) -> bool:
        """Does ``node`` make a unit-stride access or use a slot local?
        Only such statements are lowered span-natively; the rest keep
        the mask lowering's text."""
        exprs = C.walk_expr(node) if isinstance(node, C.Expr) \
            else C.all_exprs(node)
        for x in exprs:
            if isinstance(x, C.Index) and len(x.indices) == 1 \
                    and self.span_start(x.indices[0]) is not None:
                return True
            if isinstance(x, C.Ident) and x.name in self.slot_locals:
                return True
        return False

    def _slot_locals(self) -> set[str]:
        """Float locals worth an arena slot: assigned from a unit-stride
        load or under a lane-interval condition (where the update must
        be in place), or computed from such a local."""
        floats = {n for n, t in self.local_types.items()
                  if t in ("float", "double")}
        if not floats:
            return set()
        assigns: list[tuple[str, C.Expr]] = []
        chosen: set[str] = set()
        # Every local counts as lane-varying here, declared yet or not.
        self.locals = {n: f"v_{n}" for n in self.local_types}

        def visit(s: C.Stmt, in_interval: bool) -> None:
            if isinstance(s, C.Decl) and s.init is not None:
                assigns.append((s.name, s.init))
            elif isinstance(s, C.ExprStmt) and isinstance(s.expr, C.Assign) \
                    and isinstance(s.expr.target, C.Ident):
                assigns.append((s.expr.target.name, s.expr.value))
                if in_interval:
                    chosen.add(s.expr.target.name)
            elif isinstance(s, C.If):
                in_interval = in_interval or \
                    self.interval_of(s.cond) is not None
            for child in C.child_stmts(s):
                visit(child, in_interval)

        visit(self.an.nest.body, False)
        chosen &= floats
        grew = True
        while grew:
            grew = False
            self.slot_locals = chosen
            for name, value in assigns:
                if name in floats and name not in chosen \
                        and self.touches_span(value):
                    chosen.add(name)
                    grew = True
        self.locals = {}
        return chosen

    def _at(self, off: str) -> str:
        """Global index of the region's first lane shifted by ``off``."""
        lo = self.region.lo
        if off.lstrip("-").isdigit():
            return lo if off == "0" else \
                f"{lo} - {off[1:]}" if off[0] == "-" else f"{lo} + {off}"
        return f"{off} + {lo}"

    def _span_load(self, e: C.Index, copy: bool) -> tuple[str, str] | None:
        off = self.span_start(e.indices[0])
        if off is None:
            return None
        name = e.base_name()
        r = self.region
        self.loads = True
        # Out-of-range spans (halo loads at block edges under a data-
        # dependent predicate) fall back to the clipped gather inside
        # ld_span, so values match ks.ld exactly.
        return off, (f"_ld(v_{name}, {self._at(off)} - _b_{name}, {r.n}"
                     f"{', True' if copy else ''})")

    def tx_load(self, e: C.Index) -> str:
        # A value kept in an expression string may be bound to a local
        # of the mask path: copy when the kernel also stores to the
        # array.
        hit = self._span_load(e, self.config.arrays[e.base_name()].written)
        return hit[1] if hit is not None else super().tx_load(e)

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

    def _temp(self, dtype: str) -> _Val:
        k = self._alloc()
        name = self.tmp("_q")
        self.emit(f"{name} = {self._slot_call(k, self.region.n, dtype)}")
        return _Val(name, True, dtype=dtype, slot=k)

    def value_src(self, e: C.Expr) -> str:
        # A bare load may end up bound to a local of the mask path: it
        # keeps tx_load's copy rule.
        while isinstance(e, C.UnOp) and e.op == "+":
            e = e.operand
        if not self.plain or isinstance(e, C.Index) \
                or not self.touches_span(e):
            return self.tx(e)
        v = self.bx(e)
        self._pending.append(v)
        return v.src

    def emit_stmt(self, s: C.Stmt) -> None:
        super().emit_stmt(s)
        self._release(*self._pending)
        self._pending.clear()

    # -- buffered expressions ------------------------------------------------------

    def bx(self, e: C.Expr, out: tuple | None = None) -> _Val:
        """Evaluate ``e`` eagerly as three-address code where the result
        dtype is proven; ``out = (dst, dtype, array, offset)`` lets the
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
            return self._op("np.negative", f"(-{v.src})", [v], out)
        if isinstance(e, C.BinOp) and e.op in _UFUNCS:
            return self._bx_binop(e, out)
        if isinstance(e, C.Call) and _MATH_CALLS[e.func].startswith("np."):
            fn = _MATH_CALLS[e.func]
            vals = [self.bx(a) for a in e.args]
            plain = f"{fn}({', '.join(v.src for v in vals)})"
            if not any(v.vec for v in vals):
                return _Val(plain, False)
            return self._op(fn, plain, vals, out)
        if isinstance(e, C.CastExpr):
            v = self.bx(e.operand)
            dt = _DTYPES.get(e.to.base if not e.to.pointers else "long",
                             "np.float64")
            src = f"ks.cast_to({v.src}, {dt})"
            if not v.vec:
                return _Val(src, False, kind=dt)
            return self._eager(src, [v], dtype=dt)
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

    def _bx_load(self, e: C.Index) -> _Val:
        name = e.base_name()
        dt = _DTYPES.get(self.config.arrays[name].ctype)
        # Consumed at once (into a slot, a store or a copy), so a view is
        # safe even when the kernel writes the array.
        hit = self._span_load(e, False)
        if hit is not None:
            return _Val(hit[1], True, dtype=dt, view=(name, hit[0]))
        src = Vectorizer.tx_load(self, e)
        if self.lane_varying(e.indices[0]):
            return _Val(src, True, dtype=dt)
        return _Val(src, False, kind=dt)

    def _bx_binop(self, e: C.BinOp, out: tuple | None) -> _Val:
        is_float = "float" in (self.expr_type(e.left),
                               self.expr_type(e.right))
        left = self.bx(e.left)
        right = self.bx(e.right)
        pyop = "//" if e.op == "/" and not is_float else e.op
        plain = f"({left.src} {pyop} {right.src})"
        if left.vec or right.vec:
            if pyop == "//":
                return self._eager(plain, [left, right])
            return self._op(_UFUNCS[e.op], plain, [left, right], out)
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

    def _eager(self, plain: str, vals: list[_Val],
               dtype: str | None = None) -> _Val:
        """Unbuffered evaluation.  Bound to a name at once when an
        operand sits in a slot, which is free for reuse afterwards."""
        if any(v.slot is not None for v in vals):
            name = self.tmp("_u")
            self.emit(f"{name} = {plain}")
            self._release(*vals)
            plain = name
        return _Val(plain, True, dtype=dtype)

    def _op(self, ufunc: str, plain: str, vals: list[_Val],
            out: tuple | None) -> _Val:
        dtype = self._proven(vals)
        if dtype is None:
            return self._eager(plain, vals)
        for v in vals:
            if not v.vec:
                self.weak.update(v.deps)
        args = ", ".join(v.src for v in vals)
        if out is not None and out[1] == dtype and not any(
                v.view is not None and v.view[0] == out[2]
                and v.view[1] != out[3] for v in vals):
            # No operand aliases the destination at another offset.
            self.emit(f"{ufunc}({args}, out={out[0]})")
            self._release(*vals)
            return _Val(out[0], True, dtype=dtype)
        held = next((v for v in vals if v.slot is not None), None)
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

    def _declare_slotted(self, name: str, ctype: str) -> tuple[str, str]:
        dtype = _DTYPES[ctype]
        pyname = f"v_{name}"
        self.emit(f"{pyname} = "
                  f"{self._slot_call(self._alloc(), self.region.n, dtype)}")
        self.locals[name] = pyname
        self.local_axis[name] = 0
        self.local_types[name] = ctype
        self.local_home[name] = self.region
        self.slotted.add(name)
        return pyname, dtype

    def emit_private(self, name: str) -> None:
        ctype = self.local_types.get(name, "float")
        if name in self.slot_locals:
            pyname, _ = self._declare_slotted(name, ctype)
            self.emit(f"{pyname}.fill(0)")
        else:
            super().emit_private(name)
            self.local_home[name] = self.region

    def emit_decl(self, s: C.Decl) -> None:
        if self.plain and s.name in self.slot_locals \
                and s.ctype.base in ("float", "double"):
            # The local owns one arena slot for the whole kernel, so
            # every later assignment -- predicated or not -- is in place.
            pyname, dtype = self._declare_slotted(s.name, s.ctype.base)
            if s.init is None:
                self.emit(f"{pyname}.fill(0)")
            else:
                self._assign_into(pyname, dtype, s.init, None)
            return
        super().emit_decl(s)
        self.slotted.discard(s.name)
        self.local_home[s.name] = self.region

    def emit_scalar_assign(self, a: C.Assign) -> None:
        name = a.target.name  # type: ignore[union-attr]
        if not self.plain or name not in self.slotted \
                or name in self.reduction_vars:
            super().emit_scalar_assign(a)
            return
        dtype = _DTYPES[self.local_types[name]]
        dst = self.local_src(name)
        if not a.op:
            self._assign_into(dst, dtype, a.value, self.mask)
        elif a.op in _UFUNCS:
            self._assign_into(
                dst, dtype, C.BinOp(a.op, a.target, a.value, a.line),
                self.mask)
        else:
            v = self.bx(a.value)
            newv = self._apply_op(dst, a.op, v.src, True)
            if self.mask is None:
                self.emit(f"{dst}[...] = {newv}")
            else:
                self.emit(f"np.copyto({dst}, {newv}, casting='unsafe', "
                          f"where={self.mask})")
            self._release(v)

    # -- stores ------------------------------------------------------------------------

    def emit_store(self, a: C.Assign) -> None:
        name, cfg, idx = self.store_target(a)
        off = self.span_start(idx)
        handling = cfg.write_handling
        mask = self.mask
        if off is None or (mask is not None and (
                a.op or handling == WriteHandling.MISS_CHECK)):
            # Not a span store: the mask lowering's scatter (its loads
            # are still slices).
            self.emit_scatter(a, name, cfg, idx)
            return
        lanes = self.region.n
        at = self._at(off)
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
        elif handling == WriteHandling.MISS_CHECK:
            # The span form performs the window check itself (misses
            # become one ascending record).
            v = self.bx(a.value)
            self.emit(f"ctx.write_checked_span({name!r}, {at}, "
                      f"{at} + {lanes}, {v.src}, {a.op!r})")
        else:
            direct = False
            if a.op:
                v = self.bx(a.value)
            else:
                # The root operation writes straight into the slice when
                # its dtype is proven; the slice is then bound first.
                dst = self.tmp("_d")
                mark = len(self.lines)
                v = self.bx(a.value,
                            out=(dst, _DTYPES.get(cfg.ctype), name, off))
                direct = v.src == dst
                if direct:
                    self.lines.insert(mark, "    " * self.indent + (
                        f"{dst} = ks.span_out(v_{name}, {lo}, {lanes})"))
            if not direct:
                self.emit(f"ks.store_span(v_{name}, {lo}, {lanes}, "
                          f"{v.src}, {a.op!r})")
            if handling == WriteHandling.DIRTY_BITS:
                self.emit(f"ctx.mark_dirty_span({name!r}, {at}, {lanes})")
        self._release(v)

    # -- interval predicates -----------------------------------------------------------

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
        reduction (two sub-spans would fold in another order), changes
        the lane axis, or rebinds a local that does not own a slot."""
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
                    and isinstance(st.expr.target, C.Ident):
                name = st.expr.target.name
                if name in self.reduction_vars \
                        or name not in self.slot_locals:
                    return False
        return True

    def emit_if(self, s: C.If) -> None:
        iv = self.interval_of(s.cond) \
            if self.plain and self.mask is None else None
        if iv is None or not self.touches_span(s) \
                or not self._span_lowerable(s.then) \
                or not (s.orelse is None or self._span_lowerable(s.orelse)):
            super().emit_if(s)
            return
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
    slots: int = 0
    loads: bool = False
    #: Host scalars the ``out=`` proofs need as exactly a Python
    #: ``float`` / ``int`` (name -> type name).
    weak: dict[str, str] = field(default_factory=dict)


def lower_body(analysis: LoopAnalysis, config: LoopConfig,
               scalar_types: dict[str, str], local_types: dict[str, str],
               labels: dict[int, str], tmp_base: int = 0,
               slot_base: int = 0) -> LoweredBody:
    """Lower one loop body, once.  ``labels`` is what
    :func:`~repro.translator.cost.price_body` returned for it: a body is
    priced before it is lowered, never by its lowering."""
    args = (analysis, config, scalar_types, dict(local_types), labels)
    # Without a unit-stride access the span lowering has nothing to
    # add: the mask lowering's statements are the body.
    if any(acc.affine is not None and acc.affine.coeff == 1
           for usage in analysis.arrays.values()
           for acc in usage.accesses):
        out = SpanVectorizer(*args, slot_base=slot_base)
    else:
        out = Vectorizer(*args)
    out._tmp = tmp_base
    lines: list[str] = []
    for piece in out.body_pieces():
        lines += out.emit_piece(piece)
    body = LoweredBody(
        lines=lines, tmp_end=out._tmp, iota=out.uses_iota,
        scalars=out.used_scalars, locals=set(out.locals))
    if isinstance(out, SpanVectorizer):
        body.slots, body.loads, body.weak = out.slots_used, out.loads, out.weak
    return body


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
