"""AST node definitions for the C subset.

Nodes are plain dataclasses; passes walk them with ``isinstance``
dispatch (see :func:`walk`).  Every node records the source line of its
first token so diagnostics from later passes (analysis, translation)
can point at the user's OpenACC program.

Directives parsed from ``#pragma acc`` lines are attached to the
statement they precede via ``Stmt.directives`` (a list of
:class:`repro.frontend.directives.Directive` subclasses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CType:
    """A (possibly pointer / array) C type.

    ``base`` is the canonical scalar name: ``int``, ``unsigned int``,
    ``long``, ``float``, ``double``, ``char``, ``void``.
    ``pointers`` counts ``*`` levels; ``array_dims`` holds one entry per
    ``[]`` dimension -- either an :class:`Expr` (the declared extent) or
    ``None`` for unsized dimensions in parameters.
    """

    base: str
    pointers: int = 0
    array_dims: tuple[Optional["Expr"], ...] = ()
    const: bool = False
    restrict: bool = False

    @property
    def is_pointer(self) -> bool:
        return self.pointers > 0

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)

    @property
    def is_arraylike(self) -> bool:
        """Pointer or array: something a subscript can apply to."""
        return self.is_pointer or self.is_array

    @property
    def rank(self) -> int:
        """Number of subscriptable dimensions."""
        return self.pointers + len(self.array_dims)

    def element(self) -> "CType":
        """Type after one subscript."""
        if self.array_dims:
            return CType(self.base, self.pointers, self.array_dims[1:], self.const)
        if self.pointers:
            return CType(self.base, self.pointers - 1, (), self.const)
        raise TypeError(f"cannot subscript scalar type {self.base}")

    def itemsize(self) -> int:
        """Bytes per scalar element."""
        return {"char": 1, "int": 4, "unsigned int": 4, "float": 4,
                "long": 8, "unsigned long": 8, "double": 8, "void": 1}[self.base]

    def __str__(self) -> str:
        s = self.base + "*" * self.pointers
        for d in self.array_dims:
            s += "[]" if d is None else "[...]"
        return s


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    #: The C type of the value, set where the front end builds the node
    #: (:mod:`repro.frontend.typer`: a base-type name; ``float*`` for an
    #: array name).
    ty: str = field(default="", kw_only=True, repr=False, compare=False)


@dataclass
class IntLit(Expr):
    value: int
    line: int = 0


@dataclass
class FloatLit(Expr):
    value: float
    line: int = 0


@dataclass
class Ident(Expr):
    name: str
    line: int = 0


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    line: int = 0


@dataclass
class UnOp(Expr):
    op: str  # '-', '+', '!', '~', '*', '&'
    operand: Expr
    line: int = 0


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr
    line: int = 0


@dataclass
class Call(Expr):
    func: str
    args: list[Expr] = field(default_factory=list)
    line: int = 0


@dataclass
class Index(Expr):
    """Array subscript ``array[index]...`` with all dims collected."""

    array: Expr
    indices: list[Expr] = field(default_factory=list)
    line: int = 0

    def base_name(self) -> str:
        """Name of the subscripted identifier (subset: always an Ident)."""
        if isinstance(self.array, Ident):
            return self.array.name
        raise TypeError("subscript of a non-identifier expression")


@dataclass
class CastExpr(Expr):
    to: CType
    operand: Expr
    line: int = 0


@dataclass
class Assign(Expr):
    """Assignment, including compound forms (``op`` is '' or '+', ...)."""

    target: Expr
    value: Expr
    op: str = ""  # '' -> '=', '+' -> '+=', etc.
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    directives: list = field(default_factory=list)
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class Decl(Stmt):
    """Variable declaration (one declarator per Decl node)."""

    name: str = ""
    ctype: CType = CType("int")
    init: Expr | None = None


@dataclass
class Compound(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    orelse: Stmt | None = None


@dataclass
class For(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    ctype: CType
    line: int = 0


@dataclass
class FunctionDef:
    name: str
    return_type: CType
    params: list[Param]
    body: Compound
    line: int = 0


@dataclass
class Program:
    """A translation unit: global declarations and function definitions."""

    functions: list[FunctionDef] = field(default_factory=list)
    globals: list[Decl] = field(default_factory=list)
    #: The text this tree was parsed from and the front end that parsed
    #: it (``"c"`` / ``"fortran"``); empty for a tree built by hand.  A
    #: frozen compiled program keeps them to re-translate on demand.
    source: str = field(default="", init=False, repr=False, compare=False)
    frontend: str = field(default="", init=False, repr=False, compare=False)

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def child_exprs(e: Expr) -> Iterator[Expr]:
    """Direct sub-expressions of ``e``."""
    if isinstance(e, BinOp):
        yield e.left
        yield e.right
    elif isinstance(e, UnOp):
        yield e.operand
    elif isinstance(e, Ternary):
        yield e.cond
        yield e.then
        yield e.other
    elif isinstance(e, Call):
        yield from e.args
    elif isinstance(e, Index):
        yield e.array
        yield from e.indices
    elif isinstance(e, CastExpr):
        yield e.operand
    elif isinstance(e, Assign):
        yield e.target
        yield e.value


def walk_expr(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    # One generator and an explicit stack: the translator walks every
    # expression many times, and nested ``yield from`` costs a frame
    # per tree level per node.
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, BinOp):
            stack.append(e.right)
            stack.append(e.left)
        elif not isinstance(e, (Ident, IntLit, FloatLit)):
            stack.extend(reversed(list(child_exprs(e))))


def child_stmts(s: Stmt) -> Iterator[Stmt]:
    if isinstance(s, Compound):
        yield from s.body
    elif isinstance(s, If):
        yield s.then
        if s.orelse is not None:
            yield s.orelse
    elif isinstance(s, For):
        if s.init is not None:
            yield s.init
        yield s.body
    elif isinstance(s, While):
        yield s.body


def stmt_exprs(s: Stmt) -> Iterator[Expr]:
    """Expressions directly owned by statement ``s`` (not nested stmts)."""
    if isinstance(s, ExprStmt) and s.expr is not None:
        yield s.expr
    elif isinstance(s, Decl) and s.init is not None:
        yield s.init
    elif isinstance(s, If):
        yield s.cond
    elif isinstance(s, For):
        if s.cond is not None:
            yield s.cond
        if s.step is not None:
            yield s.step
    elif isinstance(s, While):
        yield s.cond
    elif isinstance(s, Return) and s.value is not None:
        yield s.value


def walk(s: Stmt) -> Iterator[Stmt]:
    """Pre-order traversal of a statement tree."""
    stack = [s]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(list(child_stmts(s))))


def all_exprs(s: Stmt) -> Iterator[Expr]:
    """Every expression anywhere under statement ``s``."""
    for st in walk(s):
        for e in stmt_exprs(st):
            yield from walk_expr(e)


def render_expr(e: Expr) -> str:
    """C source text of an expression, for diagnostics and reports.

    Aimed at human readers (``repro.explain`` window formulas, error
    messages), not round-tripping: sub-expressions are parenthesized
    whenever precedence could be ambiguous, and constant folds already
    applied by earlier passes are rendered as folded.
    """
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, BinOp):
        lhs, rhs = render_expr(e.left), render_expr(e.right)
        if isinstance(e.left, (BinOp, Ternary, Assign, CastExpr)):
            lhs = f"({lhs})"
        if isinstance(e.right, (BinOp, Ternary, Assign, CastExpr, UnOp)):
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, UnOp):
        inner = render_expr(e.operand)
        if not isinstance(e.operand, (IntLit, FloatLit, Ident, Index, Call)):
            inner = f"({inner})"
        return f"{e.op}{inner}"
    if isinstance(e, Ternary):
        return (f"{render_expr(e.cond)} ? {render_expr(e.then)}"
                f" : {render_expr(e.other)}")
    if isinstance(e, Call):
        return f"{e.func}({', '.join(render_expr(a) for a in e.args)})"
    if isinstance(e, Index):
        subs = "".join(f"[{render_expr(i)}]" for i in e.indices)
        return f"{render_expr(e.array)}{subs}"
    if isinstance(e, CastExpr):
        return f"({e.to}){render_expr(e.operand)}"
    if isinstance(e, Assign):
        return (f"{render_expr(e.target)} {e.op or ''}="
                f" {render_expr(e.value)}")
    raise TypeError(f"cannot render expression node {type(e).__name__}")
