"""The C-type pass the parser replaced: one walk over a parsed tree.

Until every expression was typed where the parser builds it, ``parse``
and ``parse_fortran`` ended with :func:`type_program`, a second walk
that set ``ty`` on every expression of every function body, global
initializer, declaration dimension and directive.  It is kept here,
verbatim, as the differential oracle of ``tests/test_typer_oracle.py``:
on every node it types, the type the parser gave must be its type.

It looks up a name in one flat map per function (globals, parameters,
every local the body declares, wherever) and a call in the return
types of every function the file defines.  Parameter dimensions it
does not type.  An integer literal it types by value alone (``int``,
else ``long``); a floating literal's type it reads off the node.  One
rule moved with the parser's since: a Fortran ``**`` of integers is an
integer (the pass typed it ``real``, and ``i ** 2`` lost its last digit
above 2**24).
"""

from __future__ import annotations

from repro.frontend import cast as C
from repro.frontend.typer import COMPARISONS, LIBM, arith, is_float, libm


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
        return common if e.func in ("abs", "fabs", "min", "max", "pow") \
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
