"""The C type of every expression: one rule per kind of node.

The parsers set ``ty`` on each node as they build it, from its operands'
types and the names declared so far, by C99's usual arithmetic
conversions (section 6.3.1.8) -- the integer promotions, then ``double``
over ``float`` over the integers, and among the integers the higher
rank (``unsigned`` at equal rank) -- and an integer literal's type by
its spelling.  A type is a base-type name (``char``, ``int``,
``unsigned int``, ``long``, ``unsigned long``, ``float``, ``double``)
or, for an array or pointer, its element type and a ``*``.

The emitters read ``ty`` and decide no type.  What else they need is
here: :func:`computes_in`, the type a node is evaluated in -- its C
type, except that ``fabs`` / ``fmax`` / ``fmin`` of ``float`` operands
(and the negation of such a value) stay ``float``: C's ``double``
result is that ``float`` value, so float32 gives C's bits -- and
:func:`operand_type`, the type each operand is converted to first.

A Fortran program's intrinsics are generic (``sqrt`` of a ``real`` is a
``real``, ``i ** 2`` of an ``integer`` an ``integer``); its real
literals are typed by their kind as C's are by their suffix (the scanner
spells ``0.1`` as ``0.1f`` and ``0.1d0`` as ``0.1e0``).
"""

from __future__ import annotations

from functools import cache

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
    """An integer type.  A node the translator builds (a normalized loop
    bound, a subscript) has no type and is an integer."""
    return ty in INTEGERS or not ty


@cache
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
    6.4.4.2)."""
    return "float" if text[-1] in "fF" else "double"


def int_type(value: int, suffix: str = "", decimal: bool = True) -> str:
    """An integer literal's type (C99 section 6.4.4.1): the first of
    ``int``, ``unsigned int``, ``long``, ``unsigned long`` that holds its
    value, of those its spelling allows -- a ``u`` suffix only the
    unsigned ones, an ``l`` suffix (``suffix`` is lower case) only the
    longs, and an unsuffixed decimal literal only the signed ones."""
    if not suffix and abs(value) < 2 ** 31:
        return "int"
    for ty, bits in (("int", 31), ("unsigned int", 32), ("long", 63),
                     ("unsigned long", 64)):
        unsigned = ty[0] == "u"
        if abs(value) < 2 ** bits and ("l" not in suffix or "long" in ty) \
                and (unsigned if "u" in suffix
                     else not (unsigned and decimal)):
            return ty
    return "unsigned long"


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


def name_type(ctype: C.CType) -> str:
    """The type of a declared name: an array or a pointer is its element
    type and a ``*``."""
    return ctype.base + "*" if ctype.is_arraylike else ctype.base


def binary(op: str, left: str, right: str) -> str:
    """A comparison is an ``int``, a shift its promoted left operand."""
    if op in COMPARISONS:
        return "int"
    return arith(left, "char" if op in ("<<", ">>") else right)


def unary(op: str, operand: str) -> str:
    if op == "*":
        return operand[:-1] if operand.endswith("*") else "int"
    return operand + "*" if op == "&" else "int" if op == "!" \
        else arith(operand, "char")


def element(array: str) -> str:
    return array.rstrip("*") or "int"


def call(func: str, args: list[C.Expr], fortran: bool, returns) -> str:
    """A call: a math call by :data:`LIBM` (a Fortran intrinsic is
    generic in its argument: ``**`` of integers is an integer), any
    other by ``returns(func)``."""
    if not libm(func):
        return returns(func)
    common = "int"
    for a in args:
        common = arith(common, a.ty)
    if not fortran:
        return LIBM.get(func, "float") or common
    if func in ("floor", "ceil"):
        return "int"
    return common if func in ("abs", "fabs", "min", "max", "pow") \
        or is_float(common) else "float"
