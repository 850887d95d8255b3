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
nothing when writes are statically proven local).  While emitting, the
generator charges every operation into a :class:`CostCollector`, which
becomes the kernel's pricing model.

This module is the *reference* lowering: every access is a guarded
gather or an indexed scatter (``ks.ld`` / ``ks.store``) and every
predicate a boolean lane mask.  :mod:`repro.translator.spanlower`
subclasses it with the span-native lowering, which writes the kernel
wherever a body has a unit-stride access; only the reference pass
charges the cost model, so a kernel's modeled cost cannot depend on how
its statements were lowered.

The emitted source is kept on the compiled kernel object
(``CompiledKernel.source``) so tests and users can inspect it, just as
one would inspect the CUDA the paper's translator writes out.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from typing import Any

from ..frontend import cast as C
from ..frontend.analysis import (
    InnerLoop,
    LoopAnalysis,
    affine_in,
    expr_mentions,
)
from ..frontend.directives import AccReductionToArray
from .array_config import ArrayConfig, LoopConfig, Placement, WriteHandling
from .cost import (
    ACCESS_BROADCAST,
    ACCESS_COALESCED,
    ACCESS_RANDOM,
    ACCESS_STRIDED,
    CostCollector,
    KernelCostInfo,
)


class VectorizeError(NotImplementedError):
    """Raised when a body uses a construct outside the vectorizable set."""

    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        super().__init__(f"cannot vectorize{where}: {message}")
        self.line = line


_MATH_CALLS = {
    "sqrt": ("np.sqrt", "sqrt"), "sqrtf": ("np.sqrt", "sqrt"),
    "rsqrt": ("_rsqrt", "rsqrt"), "rsqrtf": ("_rsqrt", "rsqrt"),
    "fabs": ("np.abs", "abs"), "fabsf": ("np.abs", "abs"), "abs": ("np.abs", "abs"),
    "exp": ("np.exp", "exp"), "expf": ("np.exp", "exp"),
    "log": ("np.log", "log"), "logf": ("np.log", "log"),
    "pow": ("np.power", "pow"), "powf": ("np.power", "pow"),
    "sin": ("np.sin", "sin"), "cos": ("np.cos", "cos"),
    "floor": ("np.floor", "floor"), "floorf": ("np.floor", "floor"),
    "ceil": ("np.ceil", "ceil"), "ceilf": ("np.ceil", "ceil"),
    "min": ("np.minimum", "minmax"), "fmin": ("np.minimum", "minmax"),
    "fminf": ("np.minimum", "minmax"),
    "max": ("np.maximum", "minmax"), "fmax": ("np.maximum", "minmax"),
    "fmaxf": ("np.maximum", "minmax"),
}

_DTYPES = {"float": "np.float32", "double": "np.float64", "char": "np.int8",
           "int": "np.int32", "unsigned int": "np.uint32",
           "long": "np.int64", "unsigned long": "np.uint64"}


@dataclass
class KernelSourceInfo:
    """Result of vectorization: source text + metadata the runtime needs."""

    name: str
    source: str
    cost: KernelCostInfo
    array_names: list[str]
    scalar_names: list[str]
    inner_labels: list[str]
    #: (op, var) scalar reductions the kernel reports via ctx.
    scalar_reductions: list[tuple[str, str]]


@dataclass
class _Axis:
    """Current lane context."""

    kind: str  # 'outer' | 'csr'
    lanes: str  # Python expression for the lane count
    axis_var: str  # loop variable this axis iterates (for coalescing analysis)
    pos: str | None = None  # csr: vector mapping flat lane -> outer lane index
    gathered: dict[str, str] = field(default_factory=dict)


class Vectorizer:
    """One-shot translator for a single parallel loop."""

    def __init__(
        self,
        kernel_name: str,
        analysis: LoopAnalysis,
        config: LoopConfig,
        scalar_types: dict[str, str],
        local_types: dict[str, str],
    ) -> None:
        self.kernel_name = kernel_name
        self.an = analysis
        self.config = config
        self.scalar_types = scalar_types
        self.local_types = local_types
        self.cost = CostCollector()
        self.lines: list[str] = []
        self.indent = 1
        self._tmp = 0
        self._label = 0
        self.inner_labels: list[str] = []
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

    def new_label(self) -> str:
        label = f"L{self._label}"
        self._label += 1
        self.inner_labels.append(label)
        return label

    # -- type inference --------------------------------------------------------

    def expr_type(self, e: C.Expr) -> str:
        """'float' or 'int' (bools count as int)."""
        if isinstance(e, C.FloatLit):
            return "float"
        if isinstance(e, C.IntLit):
            return "int"
        if isinstance(e, C.Ident):
            n = e.name
            if n in self.local_types:
                return "float" if self.local_types[n] in ("float", "double") else "int"
            if n in self.scalar_types:
                return "float" if self.scalar_types[n] in ("float", "double") else "int"
            return "int"  # loop vars and unknowns
        if isinstance(e, C.Index):
            name = e.base_name() if isinstance(e.array, C.Ident) else ""
            cfg = self.config.arrays.get(name)
            if cfg is not None:
                return "float" if cfg.ctype in ("float", "double") else "int"
            return "int"
        if isinstance(e, C.BinOp):
            if e.op in ("<", ">", "<=", ">=", "==", "!=", "&&", "||"):
                return "int"
            lt, rt = self.expr_type(e.left), self.expr_type(e.right)
            return "float" if "float" in (lt, rt) else "int"
        if isinstance(e, C.UnOp):
            return self.expr_type(e.operand) if e.op in ("-", "+") else "int"
        if isinstance(e, C.Ternary):
            lt, rt = self.expr_type(e.then), self.expr_type(e.other)
            return "float" if "float" in (lt, rt) else "int"
        if isinstance(e, C.Call):
            if e.func in ("min", "max", "abs"):
                return self.expr_type(e.args[0]) if e.args else "float"
            return "float"
        if isinstance(e, C.CastExpr):
            return "float" if e.to.is_float else "int"
        if isinstance(e, C.Assign):
            return self.expr_type(e.value)
        raise VectorizeError(f"untyped expression {type(e).__name__}")

    def lane_varying(self, e: C.Expr) -> bool:
        """Does ``e`` differ across lanes of the current axis?"""
        for x in C.walk_expr(e):
            if isinstance(x, C.Ident):
                n = x.name
                if n == self.an.nest.var or n in self.locals or n in self.csr_vars:
                    return True
        return False

    # -- access classification ----------------------------------------------------

    def classify_access(self, name: str, idx: C.Expr) -> str:
        """Coalescing class of an access wrt the current lane axis.

        Kernel locals are data-dependent values (forward substitution is
        not attempted), so an index through one is priced as random --
        the paper's "irregular" accesses.  Affine indices in the axis
        variable are coalesced at |coeff| == 1, lane-invariant at
        coeff == 0, and strided otherwise unless the layout
        transformation (section IV-B4) was applied to this array.
        """
        axis_var = self.axis.axis_var
        if expr_mentions(idx, set(self.locals)):
            return ACCESS_RANDOM
        if self.axis.kind == "csr" and expr_mentions(idx, {self.an.nest.var}):
            # Outer-loop-var index inside the flattened axis: a gather
            # through the position vector.
            return ACCESS_RANDOM
        cfg = self.config.arrays.get(name)
        aff = affine_in(idx, axis_var)
        if aff is None:
            # Symbolic stride (e.g. ``i*nfeatures + f``): not affine with an
            # integer coefficient, but a localaccess window bounds it to a
            # per-iteration strip -- price as strided, not random.
            if cfg is not None and cfg.has_localaccess:
                return (ACCESS_COALESCED if cfg.coalesced_hint
                        else ACCESS_STRIDED)
            return ACCESS_RANDOM
        if aff.coeff == 0:
            return ACCESS_BROADCAST
        if abs(aff.coeff) == 1:
            return ACCESS_COALESCED
        if cfg is not None and cfg.coalesced_hint:
            return ACCESS_COALESCED
        return ACCESS_STRIDED

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
            self.cost.flop("cmp")
            return f"np.where({c}, {a}, {b})"
        if isinstance(e, C.Call):
            return self.tx_call(e)
        if isinstance(e, C.Index):
            return self.tx_load(e)
        if isinstance(e, C.CastExpr):
            dt = _DTYPES.get(e.to.base if not e.to.pointers else "long", "np.float64")
            return f"ks.cast_to({self.tx(e.operand)}, {dt})"
        if isinstance(e, C.Assign):
            raise VectorizeError("assignment used as a value", e.line)
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

    def lane_index(self) -> str:
        """Name of the vector of global lane indices of the outer axis."""
        self.uses_iota = True
        return "_i"

    def local_src(self, name: str) -> str:
        """Python expression for the lane vector of kernel local ``name``."""
        return self.locals[name]

    def value_src(self, e: C.Expr) -> str:
        """Translate the value operand of a statement."""
        return self.tx(e)

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
        lt = self.expr_type(e.left)
        rt = self.expr_type(e.right)
        is_float = "float" in (lt, rt)
        l = self.tx(e.left)
        r = self.tx(e.right)
        if op == "&&":
            self.cost.intop()
            return f"({self._boolify(l)} & {self._boolify(r)})"
        if op == "||":
            self.cost.intop()
            return f"({self._boolify(l)} | {self._boolify(r)})"
        if op in ("<", ">", "<=", ">=", "==", "!="):
            self.cost.flop("cmp") if is_float else self.cost.intop()
            return f"({l} {op} {r})"
        if op == "/":
            if is_float:
                self.cost.flop("/")
                return f"({l} / {r})"
            self.cost.intop(4)
            return f"({l} // {r})"
        if op == "%":
            self.cost.flop("%") if is_float else self.cost.intop(4)
            return f"({l} % {r})"
        if op in ("+", "-", "*"):
            self.cost.flop(op) if is_float else self.cost.intop()
            return f"({l} {op} {r})"
        if op in ("<<", ">>", "&", "|", "^"):
            self.cost.intop()
            return f"({l} {op} {r})"
        raise VectorizeError(f"unsupported binary operator {op!r}", e.line)

    def _boolify(self, src: str) -> str:
        return f"(np.asarray({src}) != 0)"

    def tx_unop(self, e: C.UnOp) -> str:
        v = self.tx(e.operand)
        if e.op == "-":
            self.cost.flop("-") if self.expr_type(e.operand) == "float" else self.cost.intop()
            return f"(-{v})"
        if e.op == "+":
            return v
        if e.op == "!":
            self.cost.intop()
            return f"(~{self._boolify(v)})"
        if e.op == "~":
            self.cost.intop()
            return f"(~{v})"
        raise VectorizeError(f"unsupported unary operator {e.op!r}", e.line)

    def as_bool(self, e: C.Expr) -> str:
        src = self.tx(e)
        if isinstance(e, C.BinOp) and e.op in ("<", ">", "<=", ">=", "==", "!=",
                                               "&&", "||"):
            return src
        if isinstance(e, C.UnOp) and e.op == "!":
            return src
        return self._boolify(src)

    def tx_call(self, e: C.Call) -> str:
        if e.func in _MATH_CALLS:
            pyfn, costkind = _MATH_CALLS[e.func]
            args = ", ".join(self.tx(a) for a in e.args)
            self.cost.flop(costkind)
            return f"{pyfn}({args})"
        raise VectorizeError(f"unsupported function call {e.func!r}", e.line)

    def tx_load(self, e: C.Index) -> str:
        name = e.base_name()
        cfg = self.config.arrays.get(name)
        if cfg is None:
            raise VectorizeError(f"access to unmanaged array {name!r}", e.line)
        idx = self.linear_index(e)
        idx_src = self.tx(idx)
        self.cost.intop(1)
        self.cost.access(_itemsize(cfg.ctype), self.classify_access(name, idx))
        return f"ks.ld(v_{name}, {idx_src} - _b_{name})"

    def linear_index(self, e: C.Index) -> C.Expr:
        if len(e.indices) != 1:
            raise VectorizeError(
                "multi-dimensional subscripts must be linearized (the paper's "
                "prototype shares this 1-D limitation, section VI)", e.line)
        return e.indices[0]

    # -- statements -----------------------------------------------------------------

    def emit_stmt(self, s: C.Stmt) -> None:
        red = self._reduction_directive(s)
        if red is not None:
            self.emit_reduction_to_array(s, red)
            return
        if isinstance(s, C.Compound):
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
        elif isinstance(s, (C.Break, C.Continue)):
            raise VectorizeError("break/continue not allowed in parallel bodies",
                                 s.line)
        elif isinstance(s, C.Return):
            raise VectorizeError("return not allowed in parallel bodies", s.line)
        elif isinstance(s, C.While):
            raise VectorizeError("while loops not allowed in parallel bodies",
                                 s.line)
        else:
            raise VectorizeError(f"unsupported statement {type(s).__name__}", s.line)

    def _reduction_directive(self, s: C.Stmt) -> AccReductionToArray | None:
        for d in s.directives:
            if isinstance(d, AccReductionToArray):
                return d
        return None

    def emit_decl(self, s: C.Decl) -> None:
        if s.ctype.is_arraylike:
            raise VectorizeError("local arrays are not supported in kernels",
                                 s.line)
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
        elif isinstance(a.target, C.Index):
            self.emit_store(a)
        elif isinstance(a.target, C.UnOp) and a.target.op == "*":
            raise VectorizeError(
                "pointer-dereference stores are not supported; use a scalar "
                "reduction clause or reductiontoarray", a.line)
        else:
            raise VectorizeError("unsupported assignment target", a.line)

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
            self.cost.intop(2)
            self.cost.serialize(2.0)
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
                  f"{self.mask_for(declared_at)})")

    def _axis_lanes_for(self, declared_at: int) -> str:
        return self.axis_stack[declared_at].lanes

    def mask_for(self, declared_at: int) -> str:
        """Mask applicable to a variable declared at the given axis depth."""
        if declared_at == len(self.axis_stack) - 1:
            return self.mask if self.mask is not None else "None"
        # Variable lives on an outer axis while we're deeper: assignment to
        # it from a nested *same-axis* construct (constant inner loop) uses
        # the current mask directly since lanes coincide.
        if self.axis.kind != "csr":
            return self.mask if self.mask is not None else "None"
        raise VectorizeError("direct assignment to an outer variable from a "
                             "flattened inner loop")

    def _apply_op(self, cur: str, op: str, val: str, is_float: bool) -> str:
        if op == "/" and not is_float:
            self.cost.intop(4)
            return f"({cur} // {val})"
        kind = op if op in ("+", "-", "*", "/", "%") else None
        if kind and is_float:
            self.cost.flop(kind)
        else:
            self.cost.intop()
        if op in ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"):
            return f"({cur} {op} {val})"
        raise VectorizeError(f"unsupported compound op {op!r}")

    def emit_scalar_reduction(self, name: str, a: C.Assign) -> None:
        op = self.reduction_vars[name]
        if a.op:
            if not _op_matches(a.op, op):
                raise VectorizeError(
                    f"reduction variable {name!r} declared with {op!r} but "
                    f"updated with {a.op!r}=", a.line)
            contrib = self.value_src(a.value)
        else:
            # Pattern: var = var op expr  /  var = max(var, expr) etc.
            contrib = self._extract_reduction_contrib(name, op, a.value)
        acc = f"_racc_{name}"
        self.emit(f"{acc} = ks.red_fold({op!r}, {acc}, {contrib}, "
                  f"{self.mask or 'None'}, {self.axis.lanes})")
        self.cost.flop("minmax" if op in ("max", "min") else "cmp")

    def _extract_reduction_contrib(self, name: str, op: str, value: C.Expr) -> str:
        if isinstance(value, C.BinOp) and _op_matches(value.op, op):
            if isinstance(value.left, C.Ident) and value.left.name == name:
                return self.value_src(value.right)
            if isinstance(value.right, C.Ident) and value.right.name == name:
                return self.value_src(value.left)
        if isinstance(value, C.Call) and value.func in ("min", "max", "fmin",
                                                        "fmax", "fminf", "fmaxf") \
                and _op_matches(value.func.lstrip("f").rstrip("f") , op):
            args = value.args
            if isinstance(args[0], C.Ident) and args[0].name == name:
                return self.value_src(args[1])
            if isinstance(args[1], C.Ident) and args[1].name == name:
                return self.value_src(args[0])
        raise VectorizeError(
            f"statement does not match the declared {op!r} reduction on "
            f"{name!r}")

    # -- array stores -------------------------------------------------------------------

    def emit_store(self, a: C.Assign) -> None:
        target: C.Index = a.target  # type: ignore[assignment]
        name = target.base_name()
        cfg = self.config.arrays.get(name)
        if cfg is None:
            raise VectorizeError(f"store to unmanaged array {name!r}", a.line)
        if cfg.write_handling == WriteHandling.REDUCTION:
            raise VectorizeError(
                f"store to reduction destination {name!r} without a "
                "reductiontoarray annotation", a.line)
        idx = self.linear_index(target)
        idx_src = self.tx(idx)
        access = self.classify_access(name, idx)
        if a.op and access == ACCESS_RANDOM and cfg.placement == Placement.REPLICA:
            raise VectorizeError(
                f"irregular compound update of {name!r} is a complicated "
                "reduction; annotate it with '#pragma acc reductiontoarray' "
                "(paper section III-B)", a.line)
        val_src = self.tx(a.value)
        self.cost.intop(1)
        self.cost.access(_itemsize(cfg.ctype), access)
        if a.op:
            # Compound store: read-modify-write -- one extra access plus
            # the combining operation itself.
            self.cost.access(_itemsize(cfg.ctype), access)
            if cfg.ctype in ("float", "double"):
                self.cost.flop(a.op if a.op in ("+", "-", "*", "/") else "cmp")
            else:
                self.cost.intop()
        if a.op:
            self.cost.serialize(2.0)
        handling = cfg.write_handling
        if handling == WriteHandling.DIRTY_BITS:
            # Dirty-bit instrumentation cost (one byte flag + chunk bit).
            self.cost.access(1, ACCESS_RANDOM)
            self.cost.intop(2)
        elif handling == WriteHandling.MISS_CHECK:
            self.cost.intop(4)
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
        if not (isinstance(s, C.ExprStmt) and isinstance(s.expr, C.Assign)
                and isinstance(s.expr.target, C.Index)):
            raise VectorizeError(
                "reductiontoarray must annotate a single 'dest[idx] op= value' "
                "statement", s.line)
        a = s.expr
        target: C.Index = a.target  # type: ignore[assignment]
        name = target.base_name()
        if name != d.array:
            raise VectorizeError(
                f"reductiontoarray names {d.array!r} but the statement updates "
                f"{name!r}", s.line)
        if not a.op or not _op_matches(a.op, d.op):
            raise VectorizeError(
                f"reductiontoarray({d.op}) must annotate a compound "
                f"'{d.op}=' update", s.line)
        idx_src = self.tx(self.linear_index(target))
        val_src = self.value_src(a.value)
        self.cost.intop(2)
        # Priced as coalesced read-modify-write: the translator emits the
        # hierarchical reduction (shared memory within a block, then per
        # GPU, section IV-B4), so the accumulations never hit DRAM at
        # scatter cost; the serialization factor covers the merge steps.
        self.cost.access(_itemsize(self.config.arrays[name].ctype) * 2,
                         ACCESS_COALESCED)
        self.cost.serialize(2.0)
        gi = self.tmp("_gi")
        gv = self.tmp("_gv")
        self.emit(f"{gi} = {self.lanes_vec(idx_src, 'np.int64')}")
        self.emit(f"{gv} = {self.lanes_vec(val_src, 'None')}")
        self.emit(f"ctx.reduce_to_array({name!r}, {gi}, {gv}, {d.op!r})")

    # -- control flow ----------------------------------------------------------------------

    def emit_if(self, s: C.If) -> None:
        cond_src = self.as_bool(s.cond)
        c = self.tmp("_c")
        self.emit(f"{c} = ks.bcv({cond_src}, {self.axis.lanes}, bool)")
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
        il = self._inner_by_id.get(id(s))
        if il is None:
            raise VectorizeError("unanalyzed inner loop", s.line)
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
        label = self.new_label()
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
            self.cost.push(label)
            self.emit_stmt(s.body)
            self.cost.pop()
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
            self.cost.push(label)
            self.emit_stmt(s.body)
            self.cost.pop()
            self.mask = outer_mask
            self.indent -= 1
            del self.scalar_vars[il.var]

    def emit_csr_loop(self, s: C.For, il: InnerLoop) -> None:
        if self.axis.kind != "outer":
            raise VectorizeError("nested data-dependent inner loops are not "
                                 "supported", s.line)
        assert il.lower is not None and il.upper is not None
        label = self.new_label()
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
        self.cost.push(label)
        self.emit_stmt(s.body)
        self.cost.pop()
        del self.csr_vars[il.var]
        self.axis_stack.pop()
        self.mask = outer_mask

    # -- driver ------------------------------------------------------------------------------

    def emit_private(self, name: str) -> None:
        """A ``private`` clause variable: a zeroed local of the outer axis."""
        dt = _DTYPES.get(self.local_types.get(name, "float"), "np.float64")
        self.emit(f"v_{name} = ks.bcv(0, {self.axis.lanes}, {dt})")
        self.locals[name] = f"v_{name}"
        self.local_axis[name] = 0

    def body_pieces(self) -> list[C.Stmt | str]:
        """The loop body cut at its top level: ``private`` clause names,
        then the statements of the body."""
        body = self.an.nest.body
        top = body.body if isinstance(body, C.Compound) \
            and self._reduction_directive(body) is None else [body]
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


def _itemsize(ctype: str) -> int:
    return {"char": 1, "int": 4, "unsigned int": 4, "float": 4,
            "long": 8, "unsigned long": 8, "double": 8}.get(ctype, 4)


def _op_matches(stmt_op: str, red_op: str) -> bool:
    if stmt_op == red_op:
        return True
    return {"max": "max", "min": "min"}.get(stmt_op) == red_op


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


def format_source(info: KernelSourceInfo) -> str:
    """Generated source with a provenance banner (for dumps/tests)."""
    banner = f"# kernel {info.name}: generated by repro.translator.vectorizer\n"
    return banner + textwrap.dedent(info.source)
