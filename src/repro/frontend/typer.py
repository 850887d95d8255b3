"""The C type of every expression: one pass over the tree.

:func:`type_program` runs once per parsed program (``parse`` and
``parse_fortran`` call it) and sets ``ty`` on every expression of every
function body and directive by C99's usual arithmetic conversions
(section 6.3.1.8): the integer promotions, then ``double`` over
``float`` over the integers, and among the integers the higher rank
(``unsigned`` at equal rank).  A type is a base-type name (``char``,
``int``, ``unsigned int``, ``long``, ``unsigned long``, ``float``,
``double``) or, for an array or pointer, its element type and a ``*``.

The emitters read ``ty`` and decide no type.  What else they need is
here: :func:`computes_in`, the type a node is evaluated in -- its C
type, except that ``fabs`` / ``fmax`` / ``fmin`` of ``float`` operands
(and the negation of such a value) stay ``float``: C's ``double``
result is that ``float`` value, so float32 gives C's bits -- and
:func:`operand_type`, the type each operand is converted to first.

A Fortran program's intrinsics are generic (``sqrt`` of a ``real`` is a
``real``); its real literals are typed by their kind as C's are by their
suffix (the scanner spells ``0.1`` as ``0.1f`` and ``0.1d0`` as
``0.1e0``).
"""

from __future__ import annotations

import numpy as np

from . import cast as C

#: Integer types in conversion rank order (``long`` is 64 bits).
INTEGERS = ("char", "int", "unsigned int", "long", "unsigned long")
FLOATS = ("float", "double")
#: The math library: return type of each call (None: the common type of
#: the arguments -- ``min`` / ``max``, macros in C).  A ``double`` call's
#: name with an ``f`` is its ``float`` variant (``sqrtf``); the other
#: tables of math calls (emitters, prices) are keyed as this one.
LIBM = {**dict.fromkeys(("sqrt", "rsqrt", "fabs", "exp", "log", "pow", "sin",
                         "cos", "floor", "ceil", "fmin", "fmax"), "double"),
        "abs": "int", "min": None, "max": None}
#: Calls exact on ``float`` operands (see :func:`computes_in`).
EXACT = ("fabs", "fmax", "fmin")
COMPARISONS = ("<", ">", "<=", ">=", "==", "!=", "&&", "||")


def libm(name: str) -> str | None:
    """The :data:`LIBM` call ``name`` is, or is the ``float`` variant of
    (``sqrtf`` -> ``sqrt``); None where it is no math call."""
    if name in LIBM:
        return name
    return name[:-1] if LIBM.get(name[:-1]) == "double" \
        and name[-1:] == "f" else None


def is_float(ty: str) -> bool:
    return ty in FLOATS


def is_integer(ty: str) -> bool:
    """An integer type.  A node built after the pass (a normalized loop
    bound, a subscript) has no type and is an integer."""
    return ty in INTEGERS or not ty


def arith(a: str, b: str) -> str:
    """The common type of two operands; a pointer keeps its type."""
    for t in (a, b):
        if t.endswith("*"):
            return t
    for t in ("double", "float"):
        if t in (a, b):
            return t
    a, b = ("int" if t == "char" else t for t in (a, b))
    if a not in INTEGERS or b not in INTEGERS:
        return "int"
    return max(a, b, key=INTEGERS.index)


def literal_type(text: str) -> str:
    """The type a floating literal's spelling gives it (C99 section
    6.4.4.2); an integer literal is an ``int``, or a ``long`` where it
    does not fit."""
    return "float" if text[-1] in "fF" else "double"


def literal_value(e: C.IntLit | C.FloatLit, ty: str = "double"):
    """A literal's value as an operand of a ``ty`` operation: a ``float``
    literal in ``double`` arithmetic is its float32 value (in ``float``
    arithmetic NumPy rounds it to the float32 it meets)."""
    if e.ty == "float" and ty == "double":
        return float(np.float32(e.value))
    return e.value


def computes_in(e: C.Expr) -> str:
    """The type ``e`` is evaluated in (see the module docstring)."""
    if isinstance(e, C.Call) and e.func in EXACT and e.args \
            and all(computes_in(a) == "float" for a in e.args):
        return "float"
    if isinstance(e, C.UnOp) and e.op in "-+":
        return arith(computes_in(e.operand), "char")
    return e.ty


def operand_type(e: C.Expr) -> str:
    """The type each operand of ``e`` is converted to before ``e``
    evaluates: a comparison's common type, a compound assignment's
    operation type, an assignment's target type, else
    :func:`computes_in`."""
    if isinstance(e, C.BinOp) and e.op in COMPARISONS:
        return arith(computes_in(e.left), computes_in(e.right))
    if isinstance(e, C.Assign):
        return arith(e.target.ty, computes_in(e.value)) if e.op \
            else e.target.ty
    return computes_in(e)


def _rule(e: C.Expr, names: dict[str, str], returns: dict[str, str],
          fortran: bool) -> str:
    """The type of ``e``, its operands typed."""
    if isinstance(e, C.Ident):
        return names.get(e.name, "int")
    if isinstance(e, C.BinOp):
        if e.op in COMPARISONS:
            return "int"
        # A shift has its promoted left operand's type.
        return arith(e.left.ty, "char" if e.op in ("<<", ">>")
                     else e.right.ty)
    if isinstance(e, C.IntLit):
        return "int" if abs(e.value) < 2 ** 31 else "long"
    if isinstance(e, C.Index):
        return e.array.ty.rstrip("*") or "int"
    if isinstance(e, C.FloatLit):
        return e.ty
    if isinstance(e, C.UnOp):
        if e.op == "*":
            return e.operand.ty[:-1] if e.operand.ty.endswith("*") else "int"
        return e.operand.ty + "*" if e.op == "&" else "int" \
            if e.op == "!" else arith(e.operand.ty, "char")
    if isinstance(e, C.Ternary):
        return arith(e.then.ty, e.other.ty)
    if isinstance(e, C.CastExpr):
        return e.to.base + "*" * e.to.pointers
    if isinstance(e, C.Assign):
        return e.target.ty
    if isinstance(e, C.Call) and libm(e.func):
        common = "int"
        for a in e.args:
            common = arith(common, a.ty)
        if not fortran:
            return LIBM.get(e.func, "float") or common
        # Fortran's intrinsics are generic in their argument.
        if e.func in ("floor", "ceil"):
            return "int"
        return common if e.func in ("abs", "fabs", "min", "max") \
            or is_float(common) else "float"
    if isinstance(e, C.Call):
        return returns.get(e.func, "int")
    return "int"


def _exprs_in(x, out: list) -> list:
    """Every expression tree held in ``x`` (a directive's fields too),
    appended to ``out``."""
    if isinstance(x, (str, int, type(None))):
        pass
    elif isinstance(x, C.Expr):
        out.append(x)
    elif isinstance(x, (list, tuple)):
        for item in x:
            _exprs_in(item, out)
    elif isinstance(x, dict):
        _exprs_in(list(x.values()), out)
    elif hasattr(x, "__dataclass_fields__"):
        for name in x.__dataclass_fields__:
            _exprs_in(getattr(x, name), out)
    return out


def type_program(program: C.Program, fortran: bool = False) -> C.Program:
    """Set ``ty`` on every expression of ``program`` (in place)."""
    def name_type(ctype: C.CType) -> str:
        return ctype.base + "*" if ctype.is_arraylike else ctype.base

    def typed(e: C.Expr) -> None:
        if isinstance(e, C.BinOp):
            typed(e.left)
            typed(e.right)
        elif not isinstance(e, (C.Ident, C.IntLit, C.FloatLit)):
            for x in C.child_exprs(e):
                typed(x)
        e.ty = _rule(e, names, returns, fortran)

    returns = {f.name: f.return_type.base for f in program.functions}
    names = globals_ = {d.name: name_type(d.ctype) for d in program.globals}
    for e in _exprs_in([(d.init, d.ctype.array_dims)
                        for d in program.globals], []):
        typed(e)
    for func in program.functions:
        stmts = list(C.walk(func.body))
        names = {**globals_,
                 **{p.name: name_type(p.ctype) for p in func.params},
                 **{st.name: name_type(st.ctype) for st in stmts
                    if isinstance(st, C.Decl)}}
        for st in stmts:
            for e in C.stmt_exprs(st):
                typed(e)
            dims = st.ctype.array_dims if isinstance(st, C.Decl) else ()
            if dims or st.directives:
                for e in _exprs_in([dims, st.directives], []):
                    typed(e)
    return program
