"""C scalar semantics of the generated host program.

The host program (:mod:`repro.translator.hostgen`) computes on Python
``int``/``float`` values and NumPy scalars.  Where C's rule differs from
Python's -- ``/`` and ``%`` truncate toward zero, compound assignment,
the math library, the dtype of a declared C type, ``unsigned``
arithmetic modulo ``2**bits`` -- the emitted text calls one of these
helpers.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from ..frontend.typer import INTEGERS, is_integer

_NP_DTYPES = {"float": np.float32, "double": np.float64, "char": np.int8,
              "int": np.int32, "unsigned int": np.uint32,
              "long": np.int64, "unsigned long": np.uint64}


class ScalarError(RuntimeError):
    """A C operation failed at run time: an integer division by zero, an
    unsupported operator, a name or a host-array element that is not
    there."""

    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        super().__init__(f"run-time error{where}: {message}")


def c_fmax(x: Any, y: Any) -> Any:
    """C's ``fmax``: a NaN argument is missing data, so the other wins
    (Python's ``max`` keeps or drops a NaN by position)."""
    return y if x != x or y > x else x


def c_fmin(x: Any, y: Any) -> Any:
    """C's ``fmin``, NaN as missing data like :func:`c_fmax`."""
    return y if x != x or y < x else x


def c_pow(x: Any, y: Any) -> Any:
    """``pow``, exact on integers (Fortran's ``**``; C's takes doubles)."""
    exact = _is_int(x) and _is_int(y) and y >= 0
    return int(x) ** int(y) if exact else math.pow(x, y)


#: Python function of every math call, keyed as ``typer.LIBM``.
_MATH_FUNCS: dict[str, Callable[..., Any]] = {
    "sqrt": math.sqrt, "rsqrt": lambda x: 1.0 / math.sqrt(x),
    "fabs": abs, "abs": abs, "exp": math.exp, "log": math.log,
    "pow": c_pow, "sin": math.sin, "cos": math.cos,
    "floor": math.floor, "ceil": math.ceil,
    "min": min, "fmin": c_fmin, "max": max, "fmax": c_fmax,
}


#: The unsigned types: values and arithmetic modulo ``2**bits``.
UNSIGNED = ("unsigned int", "unsigned long")


def _modulo(bits: int, signed: bool) -> Callable[[Any], int]:
    """Conversion to a ``bits``-wide integer type, modulo ``2**bits``."""
    low = -(1 << bits - 1) if signed else 0
    return lambda v: (int(v) - low) % (1 << bits) + low


#: The constructor, by its name in the host program, that converts a
#: value to a C type: a ``float`` is a float32 NumPy scalar, a
#: ``double`` a Python float, an integer a Python int (truncated toward
#: zero) modulo ``2**bits``, as gcc converts it.
CONVERT = {"float": "np.float32", "double": "float", "char": "int",
           "int": "_i32", "unsigned int": "_u32", "long": "_i64",
           "unsigned long": "_u64"}
_CONSTRUCTORS = {"np.float32": np.float32, "float": float, "int": int,
                 **{f"_{k}{b}": _modulo(b, k == "i")
                    for k in "iu" for b in (32, 64)}}


def converter(have: str | None, want: str) -> str:
    """The name in :data:`CONVERT` that converts a value of C type
    ``have`` (None: any value -- a cast) to ``want`` -- at an
    assignment, a parameter, an operand, or (``have`` is ``want``) the
    result of an operation; "" where the host holds both alike: one type
    or two signed integer types (but an element of an ``int`` array is a
    32-bit NumPy scalar, made a Python int for a ``long`` operation).
    An unsigned value is always taken modulo ``2**bits``."""
    if have is not None and have not in UNSIGNED and want not in UNSIGNED \
            and (want == have or is_integer(want) and is_integer(have)
                 and not (want == "long" and have in INTEGERS[:3])):
        return ""
    return CONVERT.get(want, "")


def c_convert(value: Any, have: str | None, want: str) -> Any:
    """``value``, of C type ``have``, converted to type ``want``."""
    name = converter(have, want)
    return _CONSTRUCTORS[name](value) if name else value


def _is_int(v: Any) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def c_div(l: Any, r: Any, line: int = 0) -> Any:
    """``l / r`` of two scalars: the quotient truncated toward zero when
    both are integers (C99), true division otherwise."""
    if _is_int(l) and _is_int(r):
        l, r = int(l), int(r)
        if r == 0:
            raise ScalarError("integer division by zero", line)
        q = abs(l) // abs(r)
        return q if (l < 0) == (r < 0) else -q
    return l / r


def c_mod(l: Any, r: Any, line: int = 0) -> Any:
    """``l % r``: the remainder of :func:`c_div` (the sign of ``l``)
    when both are integers, else ``fmod``."""
    if _is_int(l) and _is_int(r):
        if r == 0:
            raise ScalarError("integer modulo by zero", line)
        return int(l) - int(r) * c_div(l, r)
    return math.fmod(l, r)


def _apply_scalar_op(cur, op, value, line=0):
    """``cur op= value``."""
    if op == "+":
        return cur + value
    if op == "-":
        return cur - value
    if op == "*":
        return cur * value
    if op == "/":
        return c_div(cur, value, line)
    if op == "%":
        return c_mod(cur, value, line)
    if op == "&":
        return int(cur) & int(value)
    if op == "|":
        return int(cur) | int(value)
    if op == "^":
        return int(cur) ^ int(value)
    if op == "<<":
        return int(cur) << int(value)
    if op == ">>":
        return int(cur) >> int(value)
    raise ScalarError(f"unsupported compound op {op!r}", line)
