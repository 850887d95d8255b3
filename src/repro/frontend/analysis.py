"""Access-pattern analysis over parallel-loop bodies.

This pass produces, per parallel loop, exactly the facts the paper's
translator summarizes into "array configuration information"
(section IV-B5):

* which arrays each loop reads / writes (and read-only / write-only
  classification),
* whether each subscript is *affine* in the parallel loop variable
  (``a*i + b`` with ``a``/``b`` free of the loop var and of any
  kernel-local data-dependent values) -- affine, stride-1 accesses are
  coalesced and eligible for static bounds reasoning; non-affine ones
  are the "irregular" accesses that need dirty bits / write-miss
  checks,
* the loop's normal form (``for (i = lo; i < hi; i++)``),
* inner loops and their classification (constant-trip vs CSR pattern),
  which drives the vectorizer's strategy choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import cast as C
from .directives import AccLoop, AccReductionToArray
from .typer import libm


class AnalysisError(ValueError):
    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        super().__init__(f"analysis error{where}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Affine forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineForm:
    """``coeff * var + offset`` where neither part mentions ``var``.

    ``coeff`` is an integer (symbolic coefficients are treated as
    non-affine: the translator then falls back to conservative
    handling, as the paper's compiler does when it "cannot safely
    analyze the memory access pattern").  ``offset`` is an arbitrary
    expression free of ``var``.
    """

    coeff: int
    offset: C.Expr


def expr_mentions(e: C.Expr, names: set[str]) -> bool:
    """True if expression ``e`` references any identifier in ``names``."""
    if not names:
        return False
    for x in C.walk_expr(e):
        if isinstance(x, C.Ident) and x.name in names:
            return True
    return False


def const_value(e: C.Expr) -> int | None:
    """Fold an integer-constant expression, or None."""
    if isinstance(e, C.IntLit):
        return e.value
    if isinstance(e, C.UnOp) and e.op == "-":
        v = const_value(e.operand)
        return None if v is None else -v
    if isinstance(e, C.BinOp):
        a = const_value(e.left)
        b = const_value(e.right)
        if a is None or b is None:
            return None
        try:
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                return a // b if b != 0 else None
            if e.op == "%":
                return a % b if b != 0 else None
        except (ZeroDivisionError, OverflowError):  # pragma: no cover
            return None
    return None


def _add(a: C.Expr, b: C.Expr) -> C.Expr:
    av, bv = const_value(a), const_value(b)
    if av == 0:
        return b
    if bv == 0:
        return a
    if av is not None and bv is not None:
        return C.IntLit(av + bv)
    return C.BinOp("+", a, b)


def _sub(a: C.Expr, b: C.Expr) -> C.Expr:
    av, bv = const_value(a), const_value(b)
    if bv == 0:
        return a
    if av is not None and bv is not None:
        return C.IntLit(av - bv)
    return C.BinOp("-", a, b)


def _mul(a: C.Expr, k: int) -> C.Expr:
    av = const_value(a)
    if av is not None:
        return C.IntLit(av * k)
    if k == 1:
        return a
    if k == 0:
        return C.IntLit(0)
    return C.BinOp("*", a, C.IntLit(k))


def affine_in(e: C.Expr, var: str, opaque: set[str] | None = None) -> AffineForm | None:
    """Decompose ``e`` as ``coeff*var + offset`` or return None.

    Identifiers in ``opaque`` (data-dependent kernel locals) poison the
    decomposition: any subexpression mentioning them is only acceptable
    inside the offset when it does not also mention ``var`` -- but as a
    *whole-expression* offset the caller usually wants to know, so such
    expressions yield ``coeff=0`` with the expression as offset, which
    is still "non-affine in var" only when var occurs.
    """
    opaque = opaque or set()

    def rec(x: C.Expr) -> AffineForm | None:
        if isinstance(x, C.IntLit):
            return AffineForm(0, x)
        if isinstance(x, C.Ident):
            if x.name == var:
                return AffineForm(1, C.IntLit(0))
            return AffineForm(0, x)
        if isinstance(x, C.UnOp) and x.op in ("-", "+"):
            f = rec(x.operand)
            if f is None:
                return None
            if x.op == "+":
                return f
            return AffineForm(-f.coeff, _sub(C.IntLit(0), f.offset))
        if isinstance(x, C.BinOp):
            if x.op in ("+", "-"):
                lf, rf = rec(x.left), rec(x.right)
                if lf is None or rf is None:
                    return None
                if x.op == "+":
                    return AffineForm(lf.coeff + rf.coeff, _add(lf.offset, rf.offset))
                return AffineForm(lf.coeff - rf.coeff, _sub(lf.offset, rf.offset))
            if x.op == "*":
                lf, rf = rec(x.left), rec(x.right)
                if lf is None or rf is None:
                    return None
                # One side must be a constant for affinity in var.
                lc, rc = const_value(x.left), const_value(x.right)
                if rc is not None:
                    return AffineForm(lf.coeff * rc, _mul(lf.offset, rc))
                if lc is not None:
                    return AffineForm(rf.coeff * lc, _mul(rf.offset, lc))
                # var-free product is a fine offset.
                if lf.coeff == 0 and rf.coeff == 0:
                    return AffineForm(0, x)
                return None
            if x.op in ("/", "%", "<<", ">>", "&", "|", "^"):
                lf, rf = rec(x.left), rec(x.right)
                if lf is not None and rf is not None and lf.coeff == 0 and rf.coeff == 0:
                    return AffineForm(0, x)
                return None
            return None
        # Calls / subscripts / casts: var-free -> constant offset.
        if not expr_mentions(x, {var}):
            return AffineForm(0, x)
        return None

    return rec(e)


def strided_in(e: C.Expr, var: str) -> tuple[C.Expr, C.Expr] | None:
    """Decompose ``e`` as ``stride*var + offset``, or return None.

    Where :func:`affine_in` wants an integer coefficient, the stride here
    may be any ``var``-free expression: ``i*nfeatures + f`` is
    ``(nfeatures, f)`` and ``(i-1)*w + j`` is ``(w, -1*w + j)`` -- the
    "symbolic stride" of a ``localaccess stride(S)`` strip.  Whether the
    parts are lane-invariant, and the stride positive, is the caller's
    to check.
    """
    aff = affine_in(e, var)
    if aff is not None:
        return C.IntLit(aff.coeff), aff.offset

    def scale(a: C.Expr, k: C.Expr) -> C.Expr:
        av, kv = const_value(a), const_value(k)
        if kv is not None:
            return _mul(a, kv)
        return k if av == 1 else C.IntLit(0) if av == 0 \
            else C.BinOp("*", a, k)

    def rec(x: C.Expr) -> tuple[C.Expr, C.Expr] | None:
        if not expr_mentions(x, {var}):
            return C.IntLit(0), x
        if isinstance(x, C.Ident):
            return C.IntLit(1), C.IntLit(0)
        if isinstance(x, C.UnOp) and x.op == "+":
            return rec(x.operand)
        if not (isinstance(x, C.BinOp) and x.op in ("+", "-", "*")):
            return None
        lf, rf = rec(x.left), rec(x.right)
        if lf is None or rf is None:
            return None
        if x.op == "*":
            # One side is the var-free factor.
            for (stride, off), (other, k) in ((lf, rf), (rf, lf)):
                if const_value(other) == 0:
                    return scale(stride, k), scale(off, k)
            return None
        join = _add if x.op == "+" else _sub
        return join(lf[0], rf[0]), join(lf[1], rf[1])

    return rec(e)


# ---------------------------------------------------------------------------
# Access records
# ---------------------------------------------------------------------------


@dataclass
class ArrayAccess:
    """One subscripted access to an array inside a loop body."""

    array: str
    indices: list[C.Expr]
    is_read: bool
    is_write: bool
    line: int = 0
    #: Affine decomposition of the *linearized* index in the parallel
    #: loop variable; None when data-dependent ("irregular").
    affine: AffineForm | None = None
    #: True when the subscript mentions values loaded from memory
    #: (e.g. ``levels[edges[e]]``): the paper's irregular writes.
    data_dependent: bool = False


@dataclass
class ArrayUsage:
    """Aggregate of all accesses to one array in one parallel loop."""

    name: str
    accesses: list[ArrayAccess] = field(default_factory=list)

    @property
    def is_read(self) -> bool:
        return any(a.is_read for a in self.accesses)

    @property
    def is_written(self) -> bool:
        return any(a.is_write for a in self.accesses)

    @property
    def read_only(self) -> bool:
        return self.is_read and not self.is_written

    @property
    def write_only(self) -> bool:
        return self.is_written and not self.is_read

    @property
    def writes_affine(self) -> bool:
        return all(a.affine is not None for a in self.accesses if a.is_write)

    def write_accesses(self) -> Iterator[ArrayAccess]:
        return (a for a in self.accesses if a.is_write)


@dataclass
class InnerLoop:
    """An inner sequential loop inside a parallel-loop body."""

    stmt: C.For
    var: str
    #: 'constant' -- trip bounds free of memory values (vectorize by
    #: sequential outer iteration over the inner index);
    #: 'csr' -- bounds of the form start[i] .. end-expr (flattened with
    #: the repeat/cumsum transform); 'opaque' -- anything else (no
    #: lowering: the parallel loop is a compile error).
    kind: str
    lower: C.Expr | None = None
    upper: C.Expr | None = None


@dataclass
class LoopNest:
    """Normal form of a parallel loop: ``for (var = lo; var < hi; var++)``."""

    stmt: C.For
    var: str
    lower: C.Expr
    upper: C.Expr
    body: C.Stmt
    directive: AccLoop | None = None


@dataclass
class LoopAnalysis:
    """Everything later passes need to know about one parallel loop."""

    nest: LoopNest
    arrays: dict[str, ArrayUsage] = field(default_factory=dict)
    #: Host scalars referenced by the body (become kernel arguments).
    host_scalars: list[str] = field(default_factory=list)
    #: Names declared inside the body (kernel-private).
    locals_: list[str] = field(default_factory=list)
    inner_loops: list[InnerLoop] = field(default_factory=list)
    #: Scalar reduction clauses from the loop directive.
    scalar_reductions: list[tuple[str, str]] = field(default_factory=list)
    #: ``reductiontoarray`` statements found in the body.
    array_reductions: list[AccReductionToArray] = field(default_factory=list)

    def usage(self, name: str) -> ArrayUsage:
        return self.arrays[name]


# ---------------------------------------------------------------------------
# Loop normalization
# ---------------------------------------------------------------------------


def normalize_loop(stmt: C.For, directive: AccLoop | None = None) -> LoopNest:
    """Check the canonical parallel-loop shape and extract bounds.

    Accepted: ``for (i = lo; i < hi; i++)`` / ``i += 1`` / ``++i`` with
    ``i`` declared in the init or earlier.  OpenACC already requires
    countable loops for ``loop`` constructs; we additionally pin step 1
    (the paper's equal-block task split assumes it).
    """
    line = stmt.line
    # init
    if isinstance(stmt.init, C.Decl):
        var = stmt.init.name
        if stmt.init.init is None:
            raise AnalysisError("loop variable must be initialized", line)
        lower = stmt.init.init
    elif isinstance(stmt.init, C.ExprStmt) and isinstance(stmt.init.expr, C.Assign) \
            and isinstance(stmt.init.expr.target, C.Ident) and stmt.init.expr.op == "":
        var = stmt.init.expr.target.name
        lower = stmt.init.expr.value
    else:
        raise AnalysisError("parallel loop init must be 'i = lo'", line)
    # cond
    if not (isinstance(stmt.cond, C.BinOp) and stmt.cond.op in ("<", "<=")
            and isinstance(stmt.cond.left, C.Ident) and stmt.cond.left.name == var):
        raise AnalysisError("parallel loop condition must be 'i < hi'", line)
    upper = stmt.cond.right
    if stmt.cond.op == "<=":
        upper = C.BinOp("+", upper, C.IntLit(1))
    # step
    step_ok = False
    if isinstance(stmt.step, C.Assign) and isinstance(stmt.step.target, C.Ident) \
            and stmt.step.target.name == var:
        if stmt.step.op == "+" and const_value(stmt.step.value) == 1:
            step_ok = True
        if stmt.step.op == "" and isinstance(stmt.step.value, C.BinOp) \
                and stmt.step.value.op == "+" \
                and isinstance(stmt.step.value.left, C.Ident) \
                and stmt.step.value.left.name == var \
                and const_value(stmt.step.value.right) == 1:
            step_ok = True
    if not step_ok:
        raise AnalysisError("parallel loop step must be 'i++' (unit stride)", line)
    return LoopNest(stmt=stmt, var=var, lower=lower, upper=upper,
                    body=stmt.body, directive=directive)


# ---------------------------------------------------------------------------
# Body analysis
# ---------------------------------------------------------------------------


def _classify_inner_loop(f: C.For, parallel_var: str,
                         array_names: set[str]) -> InnerLoop:
    nest = normalize_inner(f)
    lower, upper, var = nest
    # CSR pattern: bounds are loads from arrays indexed by the parallel var.
    def is_memory(e: C.Expr) -> bool:
        return any(isinstance(x, C.Index) for x in C.walk_expr(e))

    if is_memory(lower) or is_memory(upper):
        if _is_csr_bound(lower, array_names) and _is_csr_bound(upper, array_names):
            return InnerLoop(stmt=f, var=var, kind="csr", lower=lower, upper=upper)
        return InnerLoop(stmt=f, var=var, kind="opaque", lower=lower, upper=upper)
    return InnerLoop(stmt=f, var=var, kind="constant", lower=lower, upper=upper)


def _is_csr_bound(e: C.Expr, array_names: set[str]) -> bool:
    """Bound is a single load ``arr[idx]`` (plus constant arithmetic)."""
    loads = [x for x in C.walk_expr(e) if isinstance(x, C.Index)]
    if len(loads) != 1:
        return False
    ld = loads[0]
    return isinstance(ld.array, C.Ident) and ld.array.name in array_names


def normalize_inner(f: C.For) -> tuple[C.Expr, C.Expr, str]:
    """Extract (lower, upper, var) of an inner loop in canonical form."""
    line = f.line
    if isinstance(f.init, C.Decl):
        var = f.init.name
        lower = f.init.init
    elif isinstance(f.init, C.ExprStmt) and isinstance(f.init.expr, C.Assign) \
            and isinstance(f.init.expr.target, C.Ident):
        var = f.init.expr.target.name
        lower = f.init.expr.value
    else:
        raise AnalysisError("inner loop init must assign the loop variable", line)
    if lower is None:
        raise AnalysisError("inner loop variable must be initialized", line)
    if not (isinstance(f.cond, C.BinOp) and f.cond.op in ("<", "<=")
            and isinstance(f.cond.left, C.Ident) and f.cond.left.name == var):
        raise AnalysisError("inner loop condition must be 'j < hi'", line)
    upper = f.cond.right
    if f.cond.op == "<=":
        upper = C.BinOp("+", upper, C.IntLit(1))
    return lower, upper, var


def analyze_loop(nest: LoopNest, array_names: set[str],
                 host_scalar_names: set[str]) -> LoopAnalysis:
    """Run the full body analysis for one parallel loop."""
    la = LoopAnalysis(nest=nest)
    private_names: list[str] = []
    if nest.directive is not None:
        for rc in nest.directive.reductions:
            for v in rc.variables:
                la.scalar_reductions.append((rc.op, v))
        private_names = list(nest.directive.private)

    # Locals declared in the body (includes inner loop vars), plus any
    # names the loop directive lists as private: those live outside the
    # loop syntactically but are per-iteration scratch semantically.
    la.locals_.extend(private_names)
    stmts = list(C.walk(nest.body))
    for st in stmts:
        if isinstance(st, C.Decl):
            la.locals_.append(st.name)
    local_set = set(la.locals_)

    # Inner loops.
    for st in stmts:
        if isinstance(st, C.For):
            la.inner_loops.append(_classify_inner_loop(st, nest.var, array_names))
        elif isinstance(st, C.While):
            raise AnalysisError("while loops are not allowed in parallel bodies",
                                st.line)
        # Collect reductiontoarray directives attached to statements.
        for d in st.directives:
            if isinstance(d, AccReductionToArray):
                la.array_reductions.append(d)

    # Data-dependence: a name is "opaque" if derived from memory loads.
    opaque = _opaque_locals(stmts, array_names, local_set)

    # Accesses, and host scalars: identifiers used in the body that are
    # neither locals, the loop var, nor arrays.
    seen: set[str] = set()
    for st in stmts:
        for e in C.stmt_exprs(st):
            nodes = list(C.walk_expr(e))
            _collect_accesses(nodes, nest.var, array_names, opaque, la,
                              st.line)
            for x in nodes:
                if isinstance(x, C.Ident) and x.name not in array_names \
                        and x.name not in local_set and x.name != nest.var \
                        and x.name not in seen and not _is_builtin(x.name):
                    seen.add(x.name)
                    la.host_scalars.append(x.name)
    # Bounds may also reference host scalars.
    for bound in (nest.lower, nest.upper):
        for x in C.walk_expr(bound):
            if isinstance(x, C.Ident) and x.name not in seen \
                    and x.name not in array_names and x.name != nest.var \
                    and not _is_builtin(x.name):
                seen.add(x.name)
                la.host_scalars.append(x.name)
    return la


def _is_builtin(name: str) -> bool:
    return name == "sizeof" or libm(name) is not None


def _opaque_locals(stmts: list[C.Stmt], array_names: set[str],
                   local_set: set[str]) -> set[str]:
    """Locals whose value depends on memory loads (fixed point) among
    the statements ``stmts`` of a loop body."""
    opaque: set[str] = set()
    changed = True
    while changed:
        changed = False
        for st in stmts:
            target_name = None
            value = None
            if isinstance(st, C.Decl) and st.init is not None:
                target_name, value = st.name, st.init
            elif isinstance(st, C.ExprStmt) and isinstance(st.expr, C.Assign) \
                    and isinstance(st.expr.target, C.Ident):
                target_name, value = st.expr.target.name, st.expr.value
            if target_name is None or target_name not in local_set \
                    or target_name in opaque or value is None:
                continue
            loads = any(isinstance(x, C.Index) for x in C.walk_expr(value))
            uses_opaque = expr_mentions(value, opaque)
            if loads or uses_opaque:
                opaque.add(target_name)
                changed = True
    return opaque


def _collect_accesses(nodes: list[C.Expr], var: str, array_names: set[str],
                      opaque: set[str], la: LoopAnalysis, line: int) -> None:
    """Record the array accesses among ``nodes``, the pre-order walk of
    one expression of the loop body."""
    #: Subscripts that are assignment targets -> their assignment.
    stores = {id(x.target): x for x in nodes if isinstance(x, C.Assign)}
    for x in nodes:
        if not isinstance(x, C.Index):
            continue
        if not isinstance(x.array, C.Ident) or x.array.name not in array_names:
            continue
        name = x.array.name
        store = stores.get(id(x))
        is_write = store is not None
        # Compound assignment reads the target too.
        is_read = not is_write or bool(store.op)
        lin = linearize_index(x, var)
        opaque_index = lin is not None and expr_mentions(lin, opaque)
        aff = affine_in(lin, var, opaque) \
            if lin is not None and not opaque_index else None
        acc = ArrayAccess(
            array=name,
            indices=list(x.indices),
            is_read=is_read,
            is_write=is_write,
            line=x.line or line,
            affine=aff,
            data_dependent=opaque_index
            or any(isinstance(y, C.Index) for idx in x.indices
                   for y in C.walk_expr(idx)),
        )
        la.arrays.setdefault(name, ArrayUsage(name=name)).accesses.append(acc)


def linearize_index(ix: C.Index, var: str) -> C.Expr | None:
    """Linearized index of a (possibly multi-dim) subscript.

    Multi-dimensional subscripts are only linearizable when the array's
    extents are known to the caller; at this level we simply return the
    single index for 1-D accesses and the raw first index otherwise
    (2-D arrays are handled by the layout pass before vectorization).
    """
    if len(ix.indices) == 1:
        return ix.indices[0]
    return None
