"""Static work estimation for generated kernels.

:func:`price_body` walks a parallel-loop body once, before any code is
generated, and charges each C operation into a :class:`CostCollector`
bucket from facts of the *statement*: the ``float``/``int`` type of an
expression, the coalescing class of an access
(:func:`classify_access`), the array's write handling, the inner loop a
statement sits in.  No emitter holds a collector, so a kernel's modeled
cost cannot depend on how its statements were lowered.  The walk is
also the gate on the supported statement set: a construct with no
charge (``while``, ``break``, an unknown call, ...) is a
:class:`PriceError`, and the loop runs on the interpreter.

The result is a :class:`KernelCostInfo`: a per-outer-iteration
``base`` :class:`~repro.vcuda.device.KernelWork` plus one bucket per
inner loop, priced *per trip*.  At launch time the runtime combines
these with the actual outer-slice length and the dynamic trip totals
the generated code reports through ``ctx.dyn_count`` -- so
data-dependent loops (BFS's edge visits) are priced by what actually
happened, exactly as real hardware would charge for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import cast as C
from ..frontend.analysis import LoopAnalysis, affine_in, expr_mentions
from ..frontend.directives import AccReductionToArray
from ..vcuda.device import KernelWork
from .array_config import ArrayConfig, LoopConfig, WriteHandling

#: FLOP charges per operation (Fermi-era throughput ratios).
FLOP_COST = {
    "+": 1.0, "-": 1.0, "*": 1.0,
    "/": 4.0, "%": 4.0,
    "cmp": 1.0,
    "sqrt": 8.0, "rsqrt": 4.0,
    "exp": 16.0, "log": 16.0, "pow": 24.0,
    "sin": 16.0, "cos": 16.0,
    "abs": 1.0, "minmax": 1.0, "floor": 1.0, "ceil": 1.0,
}

#: Memory access classes (decided from affine analysis wrt the lane axis).
ACCESS_COALESCED = "coalesced"
ACCESS_BROADCAST = "broadcast"  # lane-invariant: served by cache
ACCESS_STRIDED = "strided"
ACCESS_RANDOM = "random"

#: Effective bytes charged per 4-byte element by access class; strided
#: and random accesses waste most of each 128-byte transaction.
_CLASS_FACTOR = {
    ACCESS_COALESCED: 1.0,
    ACCESS_BROADCAST: 1.0 / 32.0,
    ACCESS_STRIDED: 2.5,
    ACCESS_RANDOM: 4.0,
}


@dataclass
class CostCollector:
    """Accumulates work into the bucket for the current loop level."""

    buckets: dict[str, KernelWork] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=lambda: ["base"])

    def __post_init__(self) -> None:
        self.buckets.setdefault("base", KernelWork())

    @property
    def current(self) -> KernelWork:
        return self.buckets[self._stack[-1]]

    def push(self, label: str) -> None:
        self.buckets.setdefault(label, KernelWork())
        self._stack.append(label)

    def pop(self) -> None:
        if len(self._stack) == 1:
            raise RuntimeError("cost bucket stack underflow")
        self._stack.pop()

    def flop(self, kind: str, count: float = 1.0) -> None:
        self.current.flops += FLOP_COST[kind] * count

    def intop(self, count: float = 1.0) -> None:
        self.current.int_ops += count

    def access(self, nbytes: int, access_class: str) -> None:
        eff = nbytes * _CLASS_FACTOR[access_class]
        if access_class in (ACCESS_COALESCED, ACCESS_BROADCAST):
            self.current.coalesced_bytes += eff
        else:
            self.current.random_bytes += eff

    def serialize(self, factor: float) -> None:
        self.current.serialization = max(self.current.serialization, factor)


@dataclass
class KernelCostInfo:
    """Per-iteration work, split by loop level."""

    buckets: dict[str, KernelWork]

    @property
    def base(self) -> KernelWork:
        return self.buckets["base"]

    def inner_labels(self) -> list[str]:
        return [k for k in self.buckets if k != "base"]

    def total(self, n_outer: int, dyn_totals: dict[str, int]) -> KernelWork:
        """Total launch work given the outer slice length and the
        dynamic trip totals reported by the kernel execution."""
        work = self.base.scaled(n_outer)
        for label, per_trip in self.buckets.items():
            if label == "base":
                continue
            trips = dyn_totals.get(label, 0)
            work = work + per_trip.scaled(trips)
        return work


# -- statement facts shared by the pricing walk and the emitters -----------

#: ``FLOP_COST`` kind of every math call a kernel body may make.
CALL_KIND = {
    "sqrt": "sqrt", "sqrtf": "sqrt", "rsqrt": "rsqrt", "rsqrtf": "rsqrt",
    "fabs": "abs", "fabsf": "abs", "abs": "abs",
    "exp": "exp", "expf": "exp", "log": "log", "logf": "log",
    "pow": "pow", "powf": "pow", "sin": "sin", "cos": "cos",
    "floor": "floor", "floorf": "floor", "ceil": "ceil", "ceilf": "ceil",
    "min": "minmax", "fmin": "minmax", "fminf": "minmax",
    "max": "minmax", "fmax": "minmax", "fmaxf": "minmax",
}

_COMPARISONS = ("<", ">", "<=", ">=", "==", "!=")
_ITEMSIZE = {"char": 1, "int": 4, "unsigned int": 4, "float": 4,
             "long": 8, "unsigned long": 8, "double": 8}


def _is_float(ctype: str | None) -> bool:
    return ctype in ("float", "double")


def expr_type(e: C.Expr, local_types: dict[str, str],
              scalar_types: dict[str, str],
              arrays: dict[str, ArrayConfig]) -> str:
    """'float' or 'int' (bools count as int)."""
    def rec(x: C.Expr) -> str:
        return expr_type(x, local_types, scalar_types, arrays)

    if isinstance(e, C.FloatLit):
        return "float"
    if isinstance(e, C.Ident):
        # Loop variables and unknowns are ints.
        ctype = local_types.get(e.name) or scalar_types.get(e.name)
        return "float" if _is_float(ctype) else "int"
    if isinstance(e, C.Index):
        cfg = arrays.get(e.array.name) if isinstance(e.array, C.Ident) \
            else None
        return "float" if cfg is not None and _is_float(cfg.ctype) else "int"
    if isinstance(e, C.BinOp):
        if e.op in _COMPARISONS or e.op in ("&&", "||"):
            return "int"
        return "float" if "float" in (rec(e.left), rec(e.right)) else "int"
    if isinstance(e, C.UnOp):
        return rec(e.operand) if e.op in ("-", "+") else "int"
    if isinstance(e, C.Ternary):
        return "float" if "float" in (rec(e.then), rec(e.other)) else "int"
    if isinstance(e, C.Call):
        if e.func in ("min", "max", "abs") and e.args:
            return rec(e.args[0])
        return "float"
    if isinstance(e, C.CastExpr):
        return "float" if e.to.is_float else "int"
    if isinstance(e, C.Assign):
        return rec(e.value)
    return "int"  # IntLit


def classify_access(cfg: ArrayConfig | None, idx: C.Expr, axis_var: str,
                    locals_, outer_var: str | None = None) -> str:
    """Coalescing class of an access ``array[idx]`` wrt the lane axis.

    ``axis_var`` iterates the lanes; ``outer_var`` is the parallel loop
    variable when the axis is a flattened CSR inner loop, None on the
    plain outer axis.  Kernel locals (``locals_``, the names declared so
    far) are data-dependent values (forward substitution is not
    attempted), so an index through one is priced as random -- the
    paper's "irregular" accesses.  Affine indices in the axis variable
    are coalesced at |coeff| == 1, lane-invariant at coeff == 0, and
    strided otherwise unless the layout transformation (section IV-B4)
    was applied to this array.
    """
    if expr_mentions(idx, locals_):
        return ACCESS_RANDOM
    if outer_var is not None and expr_mentions(idx, {outer_var}):
        # Outer-loop-var index inside the flattened axis: a gather
        # through the position vector.
        return ACCESS_RANDOM
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


def reduction_directive(s: C.Stmt) -> AccReductionToArray | None:
    """The ``reductiontoarray`` annotation of a statement, if any."""
    return next((d for d in s.directives
                 if isinstance(d, AccReductionToArray)), None)


def reduction_contrib(name: str, op: str, value: C.Expr) -> C.Expr | None:
    """The operand folded into reduction variable ``name`` by
    ``name = name op expr`` / ``name = max(name, expr)``, or None."""
    if isinstance(value, C.BinOp) and value.op == op:
        pair = (value.left, value.right)
    elif isinstance(value, C.Call) and len(value.args) == 2 and value.func \
            in ("min", "max", "fmin", "fmax", "fminf", "fmaxf") \
            and value.func.strip("f") == op:
        pair = tuple(value.args)
    else:
        return None
    for this, other in (pair, pair[::-1]):
        if isinstance(this, C.Ident) and this.name == name:
            return other
    return None


# -- the pricing walk ------------------------------------------------------


class PriceError(NotImplementedError):
    """The body holds a construct outside the supported statement set:
    it has no charge and no lowering, so the loop runs on the
    interpreter and is modeled with zero work."""

    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        super().__init__(f"cannot price{where}: {message} "
                         "-- modeled with zero work")
        self.line = line


class _Pricer:
    """State of one :func:`price_body` walk."""

    def __init__(self, analysis: LoopAnalysis, config: LoopConfig,
                 scalar_types: dict[str, str], local_types: dict[str, str],
                 cost: CostCollector, label_base: int) -> None:
        self.var = analysis.nest.var
        self.arrays = config.arrays
        self.scalar_types = scalar_types
        self.local_types = dict(local_types)
        self.cost = cost
        self.reductions = {v: op for op, v in analysis.scalar_reductions}
        self.inner = {id(il.stmt): il for il in analysis.inner_loops}
        self.label_base = label_base
        self.labels: dict[int, str] = {}
        directive = analysis.nest.directive
        #: Locals declared so far -> lane-axis depth of the declaration.
        self.locals = dict.fromkeys(
            directive.private if directive is not None else (), 0)
        #: Variable of the lane axis; depth 1 inside a flattened CSR loop.
        self.axis_var = self.var
        self.depth = 0

    def is_float(self, e: C.Expr) -> bool:
        return expr_type(e, self.local_types, self.scalar_types,
                         self.arrays) == "float"

    # -- expressions -----------------------------------------------------------

    def expr(self, e: C.Expr) -> None:
        """Charge one evaluation of ``e`` per lane."""
        cost = self.cost
        if isinstance(e, C.BinOp):
            self.expr(e.left)
            self.expr(e.right)
            self.arith(e.op, self.is_float(e.left) or self.is_float(e.right),
                       e.line)
        elif isinstance(e, C.UnOp):
            self.expr(e.operand)
            if e.op == "-":
                self.arith("-", self.is_float(e.operand))
            elif e.op in ("!", "~"):
                cost.intop()
            elif e.op != "+":
                raise PriceError(f"unsupported unary operator {e.op!r}",
                                 e.line)
        elif isinstance(e, C.Ternary):
            for part in (e.cond, e.then, e.other):
                self.expr(part)
            cost.flop("cmp")
        elif isinstance(e, C.Call):
            if e.func not in CALL_KIND:
                raise PriceError(f"unsupported function call {e.func!r}",
                                 e.line)
            for arg in e.args:
                self.expr(arg)
            cost.flop(CALL_KIND[e.func])
        elif isinstance(e, C.Index):
            cfg, idx = self.subscript(e, "access to")
            self.expr(idx)
            cost.intop()
            cost.access(_ITEMSIZE.get(cfg.ctype, 4),
                        self.access_class(cfg, idx))
        elif isinstance(e, C.CastExpr):
            self.expr(e.operand)
        elif isinstance(e, C.Assign):
            raise PriceError("assignment used as a value", e.line)

    def arith(self, op: str, is_float: bool, line: int = 0) -> None:
        cost = self.cost
        if op in ("+", "-", "*", "/", "%"):
            if is_float:
                cost.flop(op)
            else:
                cost.intop(4 if op in ("/", "%") else 1)
        elif op in _COMPARISONS:
            cost.flop("cmp") if is_float else cost.intop()
        elif op in ("&&", "||", "<<", ">>", "&", "|", "^"):
            cost.intop()
        else:
            raise PriceError(f"unsupported operator {op!r}", line)

    def subscript(self, e: C.Index,
                  what: str) -> tuple[ArrayConfig, C.Expr]:
        """Config and linear index of ``array[idx]``."""
        cfg = self.arrays.get(e.base_name())
        if cfg is None:
            raise PriceError(f"{what} unmanaged array {e.base_name()!r}",
                             e.line)
        if len(e.indices) != 1:
            raise PriceError(
                "multi-dimensional subscripts must be linearized (the paper's "
                "prototype shares this 1-D limitation, section VI)", e.line)
        return cfg, e.indices[0]

    def access_class(self, cfg: ArrayConfig, idx: C.Expr) -> str:
        return classify_access(cfg, idx, self.axis_var, self.locals,
                               self.var if self.depth else None)

    # -- statements ------------------------------------------------------------

    def stmt(self, s: C.Stmt) -> None:
        if reduction_directive(s) is not None:
            self.reduction_to_array(s)
        elif isinstance(s, C.Compound):
            for st in s.body:
                self.stmt(st)
        elif isinstance(s, C.Decl):
            if s.ctype.is_arraylike:
                raise PriceError("local arrays are not supported in kernels",
                                 s.line)
            if s.init is not None:
                self.expr(s.init)
            self.locals[s.name] = self.depth
            self.local_types[s.name] = s.ctype.base
        elif isinstance(s, C.ExprStmt):
            if isinstance(s.expr, C.Assign):
                self.assign(s.expr)
            elif s.expr is not None and not (
                    isinstance(s.expr, C.Call)
                    and s.expr.func in ("printf", "fprintf")):
                self.expr(s.expr)
        elif isinstance(s, C.If):
            self.expr(s.cond)
            self.stmt(s.then)
            if s.orelse is not None:
                self.stmt(s.orelse)
        elif isinstance(s, C.For):
            self.inner_loop(s)
        else:  # break, continue, return
            raise PriceError(f"{type(s).__name__.lower()} not allowed in "
                             "parallel bodies", s.line)

    def inner_loop(self, s: C.For) -> None:
        """Bounds are charged where the loop stands, the body per trip
        into the loop's own bucket."""
        il = self.inner[id(s)]
        label = f"L{self.label_base + len(self.labels)}"
        self.labels[id(s)] = label
        self.expr(il.lower)
        self.expr(il.upper)
        outer = self.axis_var, self.depth
        if il.kind == "csr":
            # Flattened: one lane per (i, e) pair.
            self.axis_var, self.depth = il.var, self.depth + 1
        self.cost.push(label)
        self.stmt(s.body)
        self.cost.pop()
        self.axis_var, self.depth = outer

    def assign(self, a: C.Assign) -> None:
        if isinstance(a.target, C.Index):
            self.store(a)
        elif not isinstance(a.target, C.Ident):
            raise PriceError(
                "pointer-dereference stores are not supported; use a scalar "
                "reduction clause or reductiontoarray"
                if isinstance(a.target, C.UnOp) and a.target.op == "*"
                else "unsupported assignment target", a.line)
        elif a.target.name in self.reductions:
            self.scalar_reduction(a.target.name, a)
        elif self.locals.get(a.target.name, self.depth) < self.depth:
            # Update of an outer local from a flattened inner loop: a
            # segmented accumulation.
            self.expr(a.value)
            self.cost.intop(2)
            self.cost.serialize(2.0)
        else:
            self.expr(a.value)
            if a.op:
                is_float = self.is_float(a.value) or _is_float(
                    self.local_types.get(a.target.name))
                if a.op == "%" and not is_float:
                    self.cost.intop()  # '%=' on an int local: one op
                else:
                    self.arith(a.op, is_float, a.line)

    def scalar_reduction(self, name: str, a: C.Assign) -> None:
        op = self.reductions[name]
        contrib = a.value if a.op else reduction_contrib(name, op, a.value)
        if contrib is None:
            raise PriceError(f"statement does not match the declared {op!r} "
                             f"reduction on {name!r}", a.line)
        self.expr(contrib)
        self.cost.flop("minmax" if op in ("max", "min") else "cmp")

    def store(self, a: C.Assign) -> None:
        cost = self.cost
        cfg, idx = self.subscript(a.target, "store to")
        self.expr(idx)
        self.expr(a.value)
        size = _ITEMSIZE.get(cfg.ctype, 4)
        access = self.access_class(cfg, idx)
        cost.intop()
        cost.access(size, access)
        if a.op:
            # Compound store: read-modify-write -- one extra access plus
            # the combining operation itself.
            cost.access(size, access)
            if _is_float(cfg.ctype):
                cost.flop(a.op if a.op in ("+", "-", "*", "/") else "cmp")
            else:
                cost.intop()
            cost.serialize(2.0)
        if cfg.write_handling == WriteHandling.DIRTY_BITS:
            # Dirty-bit instrumentation (one byte flag + chunk bit).
            cost.access(1, ACCESS_RANDOM)
            cost.intop(2)
        elif cfg.write_handling == WriteHandling.MISS_CHECK:
            cost.intop(4)

    def reduction_to_array(self, s: C.Stmt) -> None:
        if not (isinstance(s, C.ExprStmt) and isinstance(s.expr, C.Assign)
                and isinstance(s.expr.target, C.Index)):
            raise PriceError(
                "reductiontoarray must annotate a single 'dest[idx] op= value' "
                "statement", s.line)
        cfg, idx = self.subscript(s.expr.target, "reduction to")
        self.expr(idx)
        self.expr(s.expr.value)
        self.cost.intop(2)
        # Priced as coalesced read-modify-write: the translator emits the
        # hierarchical reduction (shared memory within a block, then per
        # GPU, section IV-B4), so the accumulations never hit DRAM at
        # scatter cost; the serialization factor covers the merge steps.
        self.cost.access(_ITEMSIZE.get(cfg.ctype, 4) * 2, ACCESS_COALESCED)
        self.cost.serialize(2.0)


def price_body(analysis: LoopAnalysis, config: LoopConfig,
               scalar_types: dict[str, str], local_types: dict[str, str],
               cost: CostCollector, label_base: int = 0) -> dict[int, str]:
    """Charge one parallel-loop body into ``cost``, one AST walk.

    Returns the bucket label of every inner loop (``id(For) -> 'L<k>'``,
    numbered from ``label_base`` in source order): the emitters report
    trip counts under these names.  Raises :class:`PriceError` at a
    construct outside the supported statement set.
    """
    pricer = _Pricer(analysis, config, scalar_types, local_types, cost,
                     label_base)
    pricer.stmt(analysis.nest.body)
    return pricer.labels
