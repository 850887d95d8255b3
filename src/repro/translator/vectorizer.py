"""Vectorizing kernel code generator: C loop bodies -> NumPy source.

This is the multi-GPU analogue of the paper's C-to-CUDA kernel
translation (section IV-B).  A parallel loop body becomes a Python
function ``kernel(ctx)`` operating on one GPU's *slice* of the
iteration space with these translation strategies:

* **Elementwise statements** vectorize directly over the lane vector
  ``_i = arange(i0, i1)`` -- no per-element Python loops, per the
  hpc-parallel guides.
* **Predication**: ``if``/``else`` become boolean lane masks; stores and
  reductions apply the mask, local assignments merge with
  ``np.where``.
* **Constant-trip inner loops** (trip count lane-invariant, e.g. MD's
  neighbor loop, KMEANS' cluster loop) run as short sequential Python
  loops of vectorized operations; lane-varying affine bounds get an
  extra bounds mask.
* **CSR-pattern inner loops** ``for (e = row[i]; e < row[i+1]; e++)``
  (BFS) are flattened with the repeat/cumsum transform
  (:func:`repro.translator.kernel_support.flat_ranges`): one flat lane
  per (i, e) pair, optionally compressed to the active outer lanes.

Array accesses are rewritten from global to buffer-local indices by
subtracting the per-array base offset (section IV-B3); stores are
instrumented per the array's :class:`~repro.translator.array_config.ArrayConfig`
(dirty-bit marking, write-miss checks, reduction-to-array routing, or
nothing when writes are statically proven local).

This module is the *mask* lowering: every access is a guarded gather or
an indexed scatter (``ks.ld`` / ``ks.store``), every predicate a boolean
lane mask, every local a ``ks.bcv`` vector merged with ``ks.merge``.  It
is what the CSR-flattened axis runs on, and the base class of
:class:`repro.translator.spanlower.SpanVectorizer`, which lowers
everything on the plain outer axis and is the one emitter
``lower_body`` constructs.  Both only emit: the kernel's pricing model
comes from :func:`repro.translator.cost.price_body`, which walks the
body before either runs, rejects what is outside the supported statement
set, and names the inner loops whose trip counts the kernel reports.

The emitted source is kept on the compiled kernel object
(``CompiledKernel.source``) so tests and users can inspect it, just as
one would inspect the CUDA the paper's translator writes out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import cast as C
from ..frontend.analysis import InnerLoop, LoopAnalysis
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
        super().__init__(f"cannot vectorize{where}: {message}")
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


@dataclass
class KernelSourceInfo:
    """Result of vectorization: the kernel's name and source text."""

    name: str
    source: str


@dataclass
class _Axis:
    """Current lane context."""

    kind: str  # 'outer' | 'csr'
    lanes: str  # Python expression for the lane count
    axis_var: str  # loop variable this axis iterates (for coalescing analysis)
    pos: str | None = None  # csr: vector mapping flat lane -> outer lane index
    gathered: dict[str, str] = field(default_factory=dict)


class Vectorizer:
    """One-shot emitter for a single parallel loop that
    :func:`~repro.translator.cost.price_body` has priced: ``labels`` is
    its result, the name each inner loop reports its trips under.

    The statement walk, the expression-string translation and the CSR
    axis live here; what depends on how the outer axis keeps its lanes --
    ``lane_index``, ``local_src``, ``value_src``, ``emit_store``,
    ``emit_private`` -- is the subclass's."""

    def __init__(
        self,
        analysis: LoopAnalysis,
        config: LoopConfig,
        scalar_types: dict[str, str],
        local_types: dict[str, str],
        labels: dict[int, str],
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
        self.axis_stack: list[_Axis] = [
            _Axis(kind="outer", lanes="_n", axis_var=analysis.nest.var)
        ]
        #: Names of declared kernel locals -> python name.
        self.locals: dict[str, str] = {}
        #: Axis depth (index into axis_stack) at which a local was declared.
        self.local_axis: dict[str, int] = {}
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

    # -- small utilities -------------------------------------------------------

    @property
    def axis(self) -> _Axis:
        return self.axis_stack[-1]

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def tmp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def lanes_vec(self, src: str, dtype: str) -> str:
        """``src`` as a lane vector of ``dtype``, active lanes only."""
        vec = f"ks.bcv({src}, {self.axis.lanes}, {dtype})"
        return vec if self.mask is None else f"ks.msel({vec}, {self.mask})"

    # -- type inference --------------------------------------------------------

    def expr_type(self, e: C.Expr) -> str:
        """'float' or 'int' (bools count as int)."""
        return expr_type(e, self.local_types, self.scalar_types,
                         self.config.arrays)

    def lane_varying(self, e: C.Expr) -> bool:
        """Does ``e`` differ across lanes of the current axis?"""
        for x in C.walk_expr(e):
            if isinstance(x, C.Ident):
                n = x.name
                if n == self.an.nest.var or n in self.locals or n in self.csr_vars:
                    return True
        return False

    # -- expression translation ------------------------------------------------------

    def tx(self, e: C.Expr) -> str:
        if isinstance(e, C.IntLit):
            return repr(e.value)
        if isinstance(e, C.FloatLit):
            return repr(e.value)
        if isinstance(e, C.Ident):
            return self.tx_ident(e)
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
            return self.tx_call(e)
        if isinstance(e, C.Index):
            return self.tx_load(e)
        if isinstance(e, C.CastExpr):
            dt = _DTYPES.get(e.to.base if not e.to.pointers else "long", "np.float64")
            return f"ks.cast_to({self.tx(e.operand)}, {dt})"
        raise VectorizeError(f"unsupported expression {type(e).__name__}")

    def tx_ident(self, e: C.Ident) -> str:
        n = e.name
        if n == self.an.nest.var:
            return self.outer_lane_expr(self.lane_index())
        if n in self.csr_vars:
            return self.csr_vars[n]
        if n in self.scalar_vars:
            return self.scalar_vars[n]
        if n in self.reduction_vars:
            raise VectorizeError(
                f"reduction variable {n!r} may only appear in its reduction "
                "statement", e.line,
            )
        if n in self.locals:
            return self.outer_lane_expr(self.local_src(n),
                                        declared_at=self.local_axis[n])
        if n in self.config.arrays:
            raise VectorizeError(f"array {n!r} used without subscript", e.line)
        if n in self.scalar_types or n in (s for s in self.an.host_scalars):
            self.used_scalars.add(n)
            return f"v_{n}"
        raise VectorizeError(f"unknown identifier {n!r}", e.line)

    def outer_lane_expr(self, pyname: str, declared_at: int = 0) -> str:
        """Value of a lane vector, gathered into a csr axis if needed.

        Only csr loops push a new axis, so the lane structure changes
        exactly when the current axis is csr and the variable was
        declared at a shallower depth: each flat (i, e) lane then reads
        its outer lane's value through the position vector.
        """
        cur_depth = len(self.axis_stack) - 1
        if declared_at >= cur_depth or self.axis.kind != "csr":
            return pyname
        ax = self.axis
        if pyname not in ax.gathered:
            g = self.tmp("_g")
            assert ax.pos is not None
            self.emit(f"{g} = ks.ld({pyname}, {ax.pos}) if isinstance({pyname}, "
                      f"np.ndarray) else {pyname}")
            ax.gathered[pyname] = g
        return ax.gathered[pyname]

    def tx_binop(self, e: C.BinOp) -> str:
        op = e.op
        l = self.tx(e.left)
        r = self.tx(e.right)
        if op in ("&&", "||"):
            return f"({self._boolify(l)} {op[0]} {self._boolify(r)})"
        if op == "/" and "float" not in (self.expr_type(e.left),
                                         self.expr_type(e.right)):
            op = "//"
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

    def tx_call(self, e: C.Call) -> str:
        args = ", ".join(self.tx(a) for a in e.args)
        return f"{_MATH_CALLS[e.func]}({args})"

    def tx_load(self, e: C.Index) -> str:
        name = e.base_name()
        # One subscript: the walk rejects any other.
        return f"ks.ld(v_{name}, {self.tx(e.indices[0])} - _b_{name})"

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
                self.emit_assign(s.expr)
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

    def emit_decl(self, s: C.Decl) -> None:
        pyname = f"v_{s.name}"
        dt = _DTYPES.get(s.ctype.base, "np.float64")
        if s.init is not None:
            val = self.value_src(s.init)
        else:
            val = "0"
        self.emit(f"{pyname} = ks.bcv({val}, {self.axis.lanes}, {dt})")
        self.locals[s.name] = pyname
        self.local_axis[s.name] = len(self.axis_stack) - 1
        self.local_types[s.name] = s.ctype.base

    def emit_assign(self, a: C.Assign) -> None:
        if isinstance(a.target, C.Ident):
            self.emit_scalar_assign(a)
        else:
            self.emit_store(a)

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
        declared_at = self.local_axis[name]
        cur_depth = len(self.axis_stack) - 1
        if declared_at < cur_depth and self.axis.kind == "csr":
            # Cross-axis update: only '+=' (segmented accumulation) is sound.
            if a.op != "+":
                raise VectorizeError(
                    f"only '+=' updates of outer variable {name!r} are "
                    "supported inside a data-dependent inner loop", a.line)
            val = self.value_src(a.value)
            pos = self.axis.pos
            assert pos is not None
            if self.mask is None:
                self.emit(f"np.add.at({pyname}, {pos}, {val})")
            else:
                self.emit(f"np.add.at({pyname}, {pos}[{self.mask}], "
                          f"ks.msel(ks.bcv({val}, {self.axis.lanes}, None), {self.mask}))")
            # Invalidate gather cache for this variable.
            self.axis.gathered.pop(pyname, None)
            return
        if a.op:
            cur = self.outer_lane_expr(self.local_src(name), declared_at)
            val_src = self.value_src(a.value)
            is_float = self.expr_type(a.value) == "float" or \
                self.local_types.get(name) in ("float", "double")
            newv = self._apply_op(cur, a.op, val_src, is_float)
        else:
            newv = self.value_src(a.value)
        # Round to the variable's declared type (C/Fortran assignment
        # semantics): without this, a float64 literal silently upgrades
        # a float local and the accumulation precision drifts.
        dt = _DTYPES.get(self.local_types.get(name, ""), "None")
        self.emit(f"{pyname} = ks.merge({pyname}, ks.bcv({newv}, "
                  f"{self._axis_lanes_for(declared_at)}, {dt}), "
                  f"{self.mask or 'None'})")

    def _axis_lanes_for(self, declared_at: int) -> str:
        return self.axis_stack[declared_at].lanes

    @staticmethod
    def _apply_op(cur: str, op: str, val: str, is_float: bool) -> str:
        if op == "/" and not is_float:
            op = "//"
        return f"({cur} {op} {val})"

    def emit_scalar_reduction(self, name: str, a: C.Assign) -> None:
        op = self.reduction_vars[name]
        if a.op and a.op != op:
            raise VectorizeError(
                f"reduction variable {name!r} declared with {op!r} but "
                f"updated with {a.op!r}=", a.line)
        # Pattern: var op= expr  /  var = var op expr  /  var = max(var, expr)
        contrib = self.value_src(
            a.value if a.op else reduction_contrib(name, op, a.value))
        acc = f"_racc_{name}"
        self.emit(f"{acc} = ks.red_fold({op!r}, {acc}, {contrib}, "
                  f"{self.mask or 'None'}, {self.axis.lanes})")

    # -- array stores -------------------------------------------------------------------

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
        ax = self.axis
        if a.op and cfg.placement == Placement.REPLICA and classify_access(
                cfg, idx, ax.axis_var, self.locals,
                self.an.nest.var if ax.kind == "csr" else None) \
                == ACCESS_RANDOM:
            raise VectorizeError(
                f"irregular compound update of {name!r} is a complicated "
                "reduction; annotate it with '#pragma acc reductiontoarray' "
                "(paper section III-B)", a.line)
        return name, cfg, idx

    def emit_scatter(self, a: C.Assign, name: str, cfg: ArrayConfig,
                     idx: C.Expr) -> None:
        idx_src = self.tx(idx)
        val_src = self.tx(a.value)
        handling = cfg.write_handling
        gi = self.lanes_vec(idx_src, "np.int64")
        gv = self.lanes_vec(val_src, "None")
        if handling != WriteHandling.LOCAL_PROVEN:
            gi_vec, gi = gi, self.tmp("_gi")
            self.emit(f"{gi} = {gi_vec}")
        if handling == WriteHandling.MISS_CHECK:
            self.emit(f"ctx.write_checked({name!r}, {gi}, {gv}, {a.op!r})")
            return
        self.emit(f"ks.store(v_{name}, {gi} - _b_{name}, {gv}, {a.op!r})")
        if handling == WriteHandling.DIRTY_BITS:
            self.emit(f"ctx.mark_dirty({name!r}, {gi})")

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
        self.emit_reduce(name, target.indices[0], a.value, d.op)

    def emit_reduce(self, name: str, idx: C.Expr, value: C.Expr,
                    op: str) -> None:
        """One contribution per active lane to the private copy."""
        idx_src = self.tx(idx)
        val_src = self.value_src(value)
        gi = self.tmp("_gi")
        gv = self.tmp("_gv")
        self.emit(f"{gi} = {self.lanes_vec(idx_src, 'np.int64')}")
        self.emit(f"{gv} = {self.lanes_vec(val_src, 'None')}")
        self.emit(f"ctx.reduce_to_array({name!r}, {gi}, {gv}, {op!r})")

    # -- control flow ----------------------------------------------------------------------

    def emit_if(self, s: C.If) -> None:
        cond_src = self.as_bool(s.cond)
        c = self.tmp("_c")
        self.emit(f"{c} = ks.bcv({cond_src}, {self.axis.lanes}, bool)")
        self.emit_masked(s, c)

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

    def emit_inner_loop(self, s: C.For) -> None:
        il = self._inner_by_id[id(s)]
        if il.kind == "opaque":
            raise VectorizeError(
                "inner loop bounds are neither lane-invariant nor CSR-shaped",
                s.line)
        if il.kind == "csr":
            self.emit_csr_loop(s, il)
        else:
            self.emit_constant_loop(s, il)

    def emit_constant_loop(self, s: C.For, il: InnerLoop) -> None:
        assert il.lower is not None and il.upper is not None
        label = self.labels[id(s)]
        lo_varying = self.lane_varying(il.lower)
        hi_varying = self.lane_varying(il.upper)
        jname = f"_j_{il.var}"
        lo = self.tmp("_lo")
        hi = self.tmp("_hi")
        self.emit(f"{lo} = {self.tx(il.lower)}")
        self.emit(f"{hi} = {self.tx(il.upper)}")
        if not lo_varying and not hi_varying:
            self.emit(f"ctx.dyn_count({label!r}, max(0, int({hi}) - int({lo})) * "
                      f"ks.lanes_of({self.mask or 'None'}, {self.axis.lanes}))")
            self.emit(f"for {jname} in range(int({lo}), int({hi})):")
            self.scalar_vars[il.var] = jname
            self.indent += 1
            self.emit_stmt(s.body)
            self.indent -= 1
            del self.scalar_vars[il.var]
        else:
            # Lane-varying affine bounds: iterate the union range with a
            # per-lane bounds mask.
            lov = self.tmp("_lov")
            hiv = self.tmp("_hiv")
            self.emit(f"{lov} = ks.bcv({lo}, {self.axis.lanes}, np.int64)")
            self.emit(f"{hiv} = ks.bcv({hi}, {self.axis.lanes}, np.int64)")
            self.emit(f"ctx.dyn_count({label!r}, int(np.maximum("
                      f"ks.msel({hiv}, {self.mask or 'None'}) - "
                      f"ks.msel({lov}, {self.mask or 'None'}), 0).sum()))")
            self.emit(f"for {jname} in range(int({lov}.min()) if {lov}.size else 0, "
                      f"int({hiv}.max()) if {hiv}.size else 0):")
            self.scalar_vars[il.var] = jname
            self.indent += 1
            outer_mask = self.mask
            bm = self.tmp("_m")
            cond = f"(({jname} >= {lov}) & ({jname} < {hiv}))"
            if outer_mask is None:
                self.emit(f"{bm} = {cond}")
            else:
                self.emit(f"{bm} = {outer_mask} & {cond}")
            self.mask = bm
            self.emit_stmt(s.body)
            self.mask = outer_mask
            self.indent -= 1
            del self.scalar_vars[il.var]

    def emit_csr_loop(self, s: C.For, il: InnerLoop) -> None:
        if self.axis.kind != "outer":
            raise VectorizeError("nested data-dependent inner loops are not "
                                 "supported", s.line)
        assert il.lower is not None and il.upper is not None
        label = self.labels[id(s)]
        lo = self.tmp("_lo")
        hi = self.tmp("_hi")
        self.emit(f"{lo} = ks.bcv({self.tx(il.lower)}, {self.axis.lanes}, np.int64)")
        self.emit(f"{hi} = ks.bcv({self.tx(il.upper)}, {self.axis.lanes}, np.int64)")
        act = self.tmp("_act")
        if self.mask is None:
            self.emit(f"{act} = np.arange({self.axis.lanes})")
        else:
            self.emit(f"{act} = np.nonzero({self.mask})[0]")
        cnt = self.tmp("_cnt")
        self.emit(f"{cnt} = np.maximum({hi}[{act}] - {lo}[{act}], 0)")
        self.emit(f"ctx.dyn_count({label!r}, int({cnt}.sum()))")
        pos = self.tmp("_pos")
        evar = f"_e_{il.var}"
        self.emit(f"{pos} = np.repeat({act}, {cnt})")
        self.emit(f"{evar} = ks.flat_ranges({lo}[{act}], {cnt})")
        # Enter the flattened axis.
        outer_mask = self.mask
        self.mask = None
        self.axis_stack.append(
            _Axis(kind="csr", lanes=f"{evar}.size", axis_var=il.var, pos=pos)
        )
        self.csr_vars[il.var] = evar
        self.emit_stmt(s.body)
        del self.csr_vars[il.var]
        self.axis_stack.pop()
        self.mask = outer_mask

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
#: recompiles with ``cache=False``, registry thaws and repeated runs
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
