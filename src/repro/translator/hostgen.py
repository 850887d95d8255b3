"""Host-program emitter: every C function becomes one Python function.

The paper's translator emits "CUDA kernels + host code" (section IV-B);
this module is the host half.  After fusion has settled the region
table, each :class:`~repro.frontend.cast.FunctionDef` is lowered to

    def host_<name>(E, rt): ...

where ``E`` is the function's environment dict -- the one object
``AccExecutor.run_loop``, the loader's window evaluator, the sanitizer
and the reduction write-back share, and ``RunResult.env`` returns -- and
``rt`` is the :class:`~repro.translator.host.HostExecutor` of the run
(``rt.loader``, ``rt.executor``, ``rt.regions``).  Control flow is
native Python; expressions are Python operators on the objects the C
semantics prescribe (below; NumPy scalars for array elements); OpenACC
constructs are direct calls into the runtime.  The text holds no per-run state, so every run and
every serve thread of a program shares one exec'd module.

*C types, static conversions.*  Every expression node carries its C
type (:mod:`repro.frontend.typer`), so each conversion C makes -- an
operand of a wider operation, an assignment, a parameter, a return --
is written into the text where it happens: a ``float`` is a float32
NumPy scalar, a ``double`` a Python float, an integer a Python int.
What only the run can tell -- whether a name was declared on the path
taken, whether it holds an array -- goes through a helper of this
module, specialised to a plain ``E[name]`` wherever a declaration ran
on every path to the use.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..frontend import cast as C
from ..frontend.directives import AccData, AccParallel, AccUpdate
from .compiler import CompiledProgram, CompileError
from ..frontend.typer import (
    FLOATS,
    INTEGERS,
    computes_in,
    is_integer,
    libm,
    literal_value,
    operand_type,
)
from .cscalar import (
    _CONSTRUCTORS,
    _MATH_FUNCS,
    _NP_DTYPES,
    UNSIGNED,
    ScalarError,
    _apply_scalar_op,
    c_convert,
    c_div,
    c_fmax,
    c_fmin,
    c_mod,
    converter,
)
from .vectorizer import exec_source

#: Calls the host program treats as no-ops (arguments unevaluated).
_IGNORED_CALLS = ("printf", "fprintf", "puts", "exit", "free", "srand",
                  "assert")
_COMPARE = ("<", ">", "<=", ">=", "==", "!=")
#: ``co_filename`` of every generated host function.
HOST_FILENAME = "<host program>"


class HostError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Run-time helpers bound into the generated module's namespace
# ---------------------------------------------------------------------------


def _fail(exc: Exception, *_evaluated: Any) -> Any:
    """Raise ``exc`` in expression position, after the operands the C
    semantics evaluate first."""
    raise exc


def _var(E: dict, name: str) -> Any:
    if name in E:
        return E[name]
    raise ScalarError(f"undefined host variable {name!r}")


def _elem(E: dict, name: str, idx: int) -> Any:
    arr = E.get(name)
    if not isinstance(arr, np.ndarray):
        raise ScalarError(f"{name!r} is not a host array")
    if not 0 <= idx < arr.shape[0]:
        raise ScalarError(f"host read {name}[{idx}] out of range")
    return arr[idx]


def _ndarray(E: dict, name: str, message: str) -> np.ndarray:
    arr = E.get(name)
    if not isinstance(arr, np.ndarray):
        raise HostError(message)
    return arr


def _oob(name: str, idx: int, line: int) -> None:
    raise HostError(f"host write {name}[{idx}] out of range (line {line})")


def _store(value: Any, arr: np.ndarray, idx: int, name: str, line: int,
           before_write: Any, ty: str, op: str = "", opty: str = "") -> Any:
    """``name[idx] op= value`` in value position (``value`` already in
    the operation type ``opty``); the element's new value."""
    if not 0 <= idx < arr.shape[0]:
        _oob(name, idx, line)
    if op:
        value = c_convert(_apply_scalar_op(
            c_convert(arr[idx], ty, opty), op, value, line), opty, ty)
    before_write(arr)
    arr[idx] = value
    return value


def _assign(E: dict, name: str, value: Any, line: int, ty: str,
            op: str = "", opty: str = "") -> Any:
    """``name op= value`` in value position (``value`` already in the
    operation type ``opty``, or in ``ty`` for a plain store)."""
    if name not in E:
        raise HostError(f"assignment to undeclared {name!r} (line {line})")
    if op:
        value = c_convert(_apply_scalar_op(
            c_convert(E[name], ty, opty), op, value, line), opty, ty)
    E[name] = value
    return value


def _present(rt: Any, name: str) -> tuple:
    if name not in rt.loader.arrays:
        raise HostError(
            f"present({name}) but the array is not on the device")
    return ()


_NAMESPACE: dict[str, Any] = {
    "np": np, "math": math, "ScalarError": ScalarError,
    "HostError": HostError, "c_div": c_div, "c_mod": c_mod,
    "_aop": _apply_scalar_op, "_fail": _fail, "_var": _var, "_elem": _elem,
    "_ndarray": _ndarray, "_oob": _oob, "_store": _store, "_assign": _assign,
    "_present": _present, **_CONSTRUCTORS,
    # A math call and its ``float`` variant (``_m_sqrt``, ``_m_sqrtf``).
    **{f"_m_{n}{f}": fn for n, fn in _MATH_FUNCS.items() for f in ("", "f")},
}


def host_functions(compiled: CompiledProgram) -> dict[str, Any]:
    """The exec'd module of ``compiled.host_source`` (``host_<name>``
    callables); exec'd once per process and source text."""
    return exec_source(compiled.host_source, HOST_FILENAME, _NAMESPACE)


def format_host_source(compiled: CompiledProgram, func: str) -> str:
    """One function's generated text with a provenance banner."""
    compiled.signature(func)
    source = compiled.host_source
    start = source.index(f"def host_{func}(E, rt):")
    end = source.find("\n\ndef host_", start)
    text = source[start:] if end < 0 else source[start:end + 1]
    return f"# host {func}: generated by repro.translator.hostgen\n" + text


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------
#
# Every expression node carries its C type (``ty``, set by
# :mod:`repro.frontend.typer`).  An operand whose type differs from the
# type its operation computes in is converted first, as C converts it; a
# stored value is converted to its object's type.


def _convert(text: str, have: str, want: str) -> str:
    """Text of ``c_convert(text, have, want)``."""
    name = converter(have, want)
    return f"{name}({text})" if name else text


def _pure(e: C.Expr) -> bool:
    """No assignment and no call to a host function inside ``e``."""
    return not any(
        isinstance(n, C.Assign)
        or (isinstance(n, C.Call) and libm(n.func) is None)
        for n in C.walk_expr(e))


def _binds_continue(s: C.Stmt) -> bool:
    """A ``continue`` under ``s`` that belongs to the enclosing loop."""
    if isinstance(s, C.Continue):
        return True
    if isinstance(s, (C.For, C.While)) or \
            any(isinstance(d, AccParallel) for d in s.directives):
        return False
    return any(_binds_continue(c) for c in C.child_stmts(s))


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------


class _FunctionEmitter:
    """Lowers one function."""

    def __init__(self, func: C.FunctionDef, compiled: CompiledProgram,
                 ordinals: dict[int, int]) -> None:
        self.func = func
        self.symbols = compiled.scopes[func.name].symbols
        self.compiled = compiled
        self.ordinals = ordinals
        self.lines: list[str] = []
        self.depth = 1
        #: Names declared on every path to the statement being emitted.
        self.defined = {p.name for p in func.params}
        #: Arrays the enclosing ``data`` constructs of this function hold
        #: open (a region's names stay registered until its exit).
        self.open: set[str] = set()
        self.loops = 0
        self.flags = 0
        self.uses_before_write = False

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def block(self, emit_body) -> None:
        """An indented suite; ``pass`` when ``emit_body`` emits nothing."""
        self.depth += 1
        n = len(self.lines)
        emit_body()
        if len(self.lines) == n:
            self.emit("pass")
        self.depth -= 1

    def source(self) -> str:
        self.stmt(self.func.body)
        head = [f"def host_{self.func.name}(E, rt):"]
        if self.uses_before_write:
            head.append("    _bhw = rt.loader.before_host_write")
        return "\n".join(head + (self.lines or ["    pass"])) + "\n"

    # -- names -----------------------------------------------------------------

    def load(self, name: str) -> str:
        return f"E[{name!r}]" if name in self.defined \
            else f"_var(E, {name!r})"

    def array(self, name: str, message: str) -> str:
        """The host array ``name``; ``HostError(message)`` if it is none."""
        sym = self.symbols.get(name)
        if name in self.defined and sym is not None \
                and sym.ctype.is_arraylike:
            return f"E[{name!r}]"
        return f"_ndarray(E, {name!r}, {message!r})"

    def index(self, e: C.Expr) -> str:
        """``e`` as a Python int: an element or a call may be a NumPy
        one."""
        text = self.expr(e)
        if is_integer(e.ty) and not any(isinstance(x, (C.Index, C.Call))
                                        for x in C.walk_expr(e)):
            return text
        return f"int({text})"

    def operand(self, e: C.Expr, want: str) -> str:
        """``e`` converted to ``want`` where it computes in another type."""
        return _convert(self.expr(e), computes_in(e), want)

    def stored(self, e: C.Expr, want: str) -> str:
        """``e`` converted to the type of the object it is stored in (the
        text of a floating literal is a Python float; an integer is
        stored as a Python int)."""
        if isinstance(e, C.FloatLit):
            return _convert(self.expr(e), "double", want)
        if want in INTEGERS and not converter(computes_in(e), want):
            return self.index(e)
        return self.operand(e, want)

    # -- expressions -------------------------------------------------------------

    def expr(self, e: C.Expr) -> str:
        """Python text of ``e`` in value position."""
        if isinstance(e, C.IntLit):
            return str(e.value) if e.value >= 0 else f"({e.value})"
        if isinstance(e, C.FloatLit):
            value = literal_value(e)
            text = repr(value)
            if not math.isfinite(value):
                text = f"float({text!r})"
            return text if value >= 0 else f"({text})"
        if isinstance(e, C.Ident):
            return self.load(e.name)
        if isinstance(e, C.BinOp):
            return self.binop(e)
        if isinstance(e, C.UnOp):
            if e.op == "!":
                return f"(0 if {self.cond(e.operand)} else 1)"
            v = self.expr(e.operand)
            if e.op == "-":
                return _convert(f"(-{v})", e.ty, e.ty)
            if e.op == "+":
                return v
            if e.op == "~":
                return _convert(f"(~{_convert(v, e.operand.ty, 'int')})",
                                e.ty, e.ty)
            return self.fail(ScalarError, f"unsupported unary op {e.op!r}",
                             e.line, after=(v,))
        if isinstance(e, C.Ternary):
            a = self.operand(e.then, e.ty)
            b = self.operand(e.other, e.ty)
            return f"({a} if {self.cond(e.cond)} else {b})"
        if isinstance(e, C.Call):
            return self.call(e)
        if isinstance(e, C.Index):
            if len(e.indices) != 1:
                return self.fail(ScalarError, "multi-dimensional subscript",
                                 e.line)
            idx = self.index(e.indices[0])
            if not isinstance(e.array, C.Ident):
                return self.fail(
                    TypeError, "subscript of a non-identifier expression",
                    after=(idx,))
            return f"_elem(E, {e.array.name!r}, {idx})"
        if isinstance(e, C.CastExpr):
            v = self.expr(e.operand)
            if e.to.pointers:
                return self.fail(ScalarError, "pointer casts unsupported",
                                 e.line, after=(v,))
            return _convert(v, None, e.to.base)
        if isinstance(e, C.Assign):
            return self.assign_value(e)
        return self.fail(
            ScalarError, f"unsupported expression {type(e).__name__}")

    def fail(self, cls: type, *args: Any, after: tuple[str, ...] = ()) -> str:
        """Text that raises ``cls(*args)`` once ``after`` is evaluated."""
        ctor = f"{cls.__name__}({', '.join(map(repr, args))})"
        return f"_fail({', '.join([ctor, *after])})"

    def cond(self, e: C.Expr) -> str:
        """Python text of ``e`` where only its truth matters."""
        if isinstance(e, C.BinOp):
            if e.op in _COMPARE:
                t = operand_type(e)
                return (f"({self.operand(e.left, t)} {e.op} "
                        f"{self.operand(e.right, t)})")
            if e.op in ("&&", "||"):
                word = "and" if e.op == "&&" else "or"
                return f"({self.cond(e.left)} {word} {self.cond(e.right)})"
        if isinstance(e, C.UnOp) and e.op == "!":
            return f"(not {self.cond(e.operand)})"
        return self.expr(e)

    def binop(self, e: C.BinOp) -> str:
        op, t = e.op, e.ty
        if op in _COMPARE or op in ("&&", "||"):
            return f"(1 if {self.cond(e)} else 0)"
        if op in ("+", "-", "*", "/", "%"):
            l, r = self.operand(e.left, t), self.operand(e.right, t)
            if op in ("+", "-", "*"):
                return _convert(f"({l} {op} {r})", t, t)
            if t in FLOATS:
                if op == "/":
                    return f"({l} / {r})"
                return _convert(f"math.fmod({l}, {r})", "double", t)
            helper = "c_div" if op == "/" else "c_mod"
            return f"{helper}({l}, {r}, {e.line})"
        if op in ("<<", ">>", "&", "|", "^"):
            return _convert(f"({self.operand(e.left, t)} {op} "
                            f"{self.operand(e.right, t)})", t, t)
        return self.fail(ScalarError, f"unsupported binary op {op!r}", e.line,
                         after=(self.expr(e.left), self.expr(e.right)))

    def call(self, e: C.Call) -> str:
        if libm(e.func):
            fn = _MATH_FUNCS[libm(e.func)]
            t = computes_in(e)
            args = ", ".join(self.operand(a, t) if t in FLOATS
                             else self.expr(a) for a in e.args)
            # ``math`` computes in double; ``floor`` / ``ceil`` return an
            # int, the others of ``abs`` / ``min`` / ``max`` an operand.
            have = "long" if fn in (math.floor, math.ceil) else t \
                if fn in (abs, min, max, c_fmin, c_fmax) else "double"
            return _convert(f"_m_{e.func}({args})", have, t)
        if e.func in _IGNORED_CALLS:
            return "0"
        try:
            callee = self.compiled.program.function(e.func)
        except KeyError:
            return self.fail(
                HostError,
                f"call to unknown function {e.func!r} at line {e.line}")
        if len(e.args) != len(callee.params):
            return self.fail(
                HostError,
                f"{e.func} expects {len(callee.params)} arguments, got "
                f"{len(e.args)} (line {e.line})")
        items = []
        for p, a in zip(callee.params, e.args):
            if not p.ctype.is_arraylike:
                value = self.stored(a, p.ctype.base)
            elif isinstance(a, C.Ident):
                # By reference, as in C.
                value = self.array(a.name, f"{a.name!r} is not an array")
            else:
                value = self.fail(
                    HostError,
                    f"array argument {p.name!r} must be passed by name")
            items.append(f"{p.name!r}: {value}")
        return f"host_{e.func}({{{', '.join(items)}}}, rt)"

    # -- assignments -------------------------------------------------------------

    def store_target(self, a: C.Assign, value: str) -> tuple[str, str] | str:
        """``(array text, index text)`` of an array store, or the text
        of the failure the target raises once ``value`` is evaluated."""
        if not isinstance(a.target, C.Index):
            return self.fail(
                HostError, f"unsupported assignment target (line {a.line})",
                after=(value,))
        if not isinstance(a.target.array, C.Ident):
            return self.fail(
                TypeError, "subscript of a non-identifier expression",
                after=(value,))
        name = a.target.array.name
        arr = self.array(
            name, f"{name!r} is not a host array (line {a.line})")
        return arr, self.index(a.target.indices[0])

    def assign_value(self, a: C.Assign) -> str:
        """An assignment whose value is used: through the helpers, which
        apply a compound operator in its operation type and convert the
        result to the target's."""
        opty = operand_type(a)
        v = self.stored(a.value, opty)
        op = f", {a.op!r}, {opty!r}" if a.op else ""
        if isinstance(a.target, C.Ident):
            return (f"_assign(E, {a.target.name!r}, {v}, {a.line}, "
                    f"{a.target.ty!r}{op})")
        target = self.store_target(a, v)
        if isinstance(target, str):
            return target
        self.uses_before_write = True
        arr, idx = target
        name = a.target.array.name
        return (f"_store({v}, {arr}, {idx}, {name!r}, {a.line}, _bhw, "
                f"{a.target.ty!r}{op})")

    def compound(self, cur: str, op: str, v: str, t: str, line: int) -> str:
        """``cur op v`` in type ``t`` by the compound-assignment rules."""
        if op in ("+", "-", "*") or op == "/" and t in FLOATS:
            return _convert(f"({cur} {op} {v})", t, t)
        return _convert(f"_aop({cur}, {op!r}, {v}, {line})", t, t)

    def assign_stmt(self, a: C.Assign) -> None:
        """An assignment whose value is dropped: native statements."""
        if isinstance(a.target, C.Ident):
            name, ty = a.target.name, a.target.ty
            if name not in self.defined:
                self.emit(self.assign_value(a))
                return
            opty = operand_type(a)
            v = self.stored(a.value, opty)
            if a.op:
                if not _pure(a.value):
                    # The value is evaluated before the target is read.
                    self.emit(f"_v = {v}")
                    v = "_v"
                v = _convert(self.compound(
                    _convert(f"E[{name!r}]", ty, opty), a.op, v, opty,
                    a.line), opty, ty)
            self.emit(f"E[{name!r}] = {v}")
            return
        opty = operand_type(a)
        # A plain store converts as the element is assigned (an unsigned
        # value into a signed element wraps first: NumPy would refuse it).
        v = self.stored(a.value, opty) if a.op or computes_in(
            a.value) in UNSIGNED else self.expr(a.value)
        target = self.store_target(a, v)
        if isinstance(target, str):
            self.emit(target)
            return
        arr, idx = target
        name = a.target.array.name
        self.uses_before_write = True
        self.emit(f"_v = {v}")
        self.emit(f"_a = {arr}")
        self.emit(f"_i = {idx}")
        self.emit(f"if not 0 <= _i < _a.shape[0]: "
                  f"_oob({name!r}, _i, {a.line})")
        if a.op:
            self.emit("_v = " + self.compound(
                _convert("_a[_i]", a.target.ty, opty), a.op, "_v", opty,
                a.line))
        self.emit("_bhw(_a)")
        self.emit("_a[_i] = _v")

    def expr_stmt(self, e: C.Expr | None) -> None:
        if isinstance(e, C.Assign):
            self.assign_stmt(e)
        elif e is not None:
            self.emit(self.expr(e))

    # -- statements ----------------------------------------------------------------

    def stmt(self, s: C.Stmt) -> None:
        """One statement with its directives."""
        # A non-leading member of a cross-region fusion group: its loop
        # runs inside the first member's fused region, so the statement
        # (and its directives -- extension past an ``update`` bails in
        # the fusion pass) is not emitted.
        if id(s) in self.compiled.fused_stmts:
            return
        if not s.directives:
            self.inner(s)
            return
        # Standalone executable directives run before the statement.
        for d in s.directives:
            if isinstance(d, AccUpdate):
                if d.host:
                    self.emit("rt.loader.update_host("
                              f"{[sec.name for sec in d.host]!r})")
                if d.device:
                    self.emit("rt.loader.update_device("
                              f"{[sec.name for sec in d.device]!r})")
        data = next((d for d in s.directives if isinstance(d, AccData)), None)
        par = any(isinstance(d, AccParallel) for d in s.directives)
        inner = self.region if par else self.inner
        if data is None:
            inner(s)
            return
        entries, listed = self.clause_entries(data.clauses)
        self.emit(f"rt.loader.enter_region([{', '.join(entries)}])")
        self.emit("try:")
        outer = self.open
        self.open = outer | listed
        self.block(lambda: inner(s))
        self.open = outer
        self.emit("finally:")
        self.emit("    rt.loader.exit_region()")

    def clause_entries(self, clauses) -> tuple[list[str], set[str]]:
        """List-display items of the region entries the data clauses
        name, and the names they list."""
        entries: list[str] = []
        listed: set[str] = set()
        for cl in clauses:
            for sec in cl.sections:
                listed.add(sec.name)
                if cl.kind == "present":
                    entries.append(f"*_present(rt, {sec.name!r})")
                    continue
                arr = self.array(sec.name, f"data clause names {sec.name!r} "
                                           "which is not a host array")
                entries.append(f"({sec.name!r}, {arr}, {cl.kind!r})")
        return entries, listed

    def region(self, s: C.Stmt) -> None:
        """A ``parallel``/``kernels`` construct: region-local data
        clauses, an implicit ``copy`` of every other array no open
        region holds, then the kernel launches."""
        k = self.ordinals.get(id(s))
        if k is None:
            self.emit(self.fail(
                HostError, "parallel construct was not compiled"))
            return
        region = self.compiled.regions_by_stmt[id(s)]
        entries, listed = self.clause_entries(region.directive.clauses)
        implicit = [n for n in dict.fromkeys(
            name for plan in region.plans for name in plan.config.arrays)
            if n not in listed and n not in self.open]
        launches = []
        for j, plan in enumerate(region.plans):
            lower, upper = self.index(plan.lower), self.index(plan.upper)
            launches.append(f"rt.executor.run_loop(rt.regions[{k}].plans[{j}]"
                            f", {lower}, {upper}, E)")
        if not entries and not implicit:
            for line in launches:
                self.emit(line)
            return
        self.emit(f"_e = [{', '.join(entries)}]")
        if implicit:
            self.emit("_n = rt.loader.arrays")
        for name in implicit:
            arr = self.array(name, f"parallel region uses array {name!r} "
                                   "which is not a host array in scope")
            self.emit(f"if {name!r} not in _n: "
                      f"_e.append(({name!r}, {arr}, 'copy'))")
        self.emit("if _e: rt.loader.enter_region(_e)")
        self.emit("try:")
        for line in launches:
            self.emit("    " + line)
        self.emit("finally:")
        self.emit("    if _e: rt.loader.exit_region()")

    def scoped(self, emit_body) -> None:
        """A suite that may not run: what it declares is not declared
        after it."""
        saved = set(self.defined)
        self.block(emit_body)
        self.defined = saved

    def inner(self, s: C.Stmt) -> None:
        """One statement without its directives."""
        if isinstance(s, C.Compound):
            for st in s.body:
                self.stmt(st)
        elif isinstance(s, C.Decl):
            self.decl(s)
        elif isinstance(s, C.ExprStmt):
            self.expr_stmt(s.expr)
        elif isinstance(s, C.If):
            self.emit(f"if {self.cond(s.cond)}:")
            self.scoped(lambda: self.stmt(s.then))
            if s.orelse is not None:
                self.emit("else:")
                self.scoped(lambda: self.stmt(s.orelse))
        elif isinstance(s, C.For):
            self.for_loop(s)
        elif isinstance(s, C.While):
            self.emit(f"while {self.cond(s.cond)}:")
            self.loops += 1
            self.scoped(lambda: self.stmt(s.body))
            self.loops -= 1
        elif isinstance(s, C.Return):
            self.emit("return" if s.value is None
                      else "return " + self.stored(
                          s.value, self.func.return_type.base))
        elif isinstance(s, (C.Break, C.Continue)):
            word = "break" if isinstance(s, C.Break) else "continue"
            if not self.loops:
                raise CompileError(
                    f"'{word}' outside a loop in function "
                    f"{self.func.name!r}", s.line)
            self.emit(word)
        else:
            self.emit(self.fail(
                HostError, f"unsupported host statement {type(s).__name__}"))

    def decl(self, s: C.Decl) -> None:
        if s.ctype.array_dims:
            dims = [self.index(d) for d in s.ctype.array_dims
                    if d is not None]
            if len(dims) != 1:
                self.emit(self.fail(
                    HostError,
                    f"host array {s.name!r} must be 1-D (line {s.line})",
                    after=tuple(dims)))
                return
            dt = _NP_DTYPES.get(s.ctype.base, np.float64)
            self.emit(f"E[{s.name!r}] = np.zeros({dims[0]}, "
                      f"dtype=np.{dt.__name__})")
        elif s.ctype.pointers:
            self.emit(self.fail(
                HostError,
                f"pointer declaration {s.name!r} without array extent is not "
                f"supported on the host (line {s.line})"))
            return
        else:
            ty = s.ctype.base
            v = _convert("0", "int", ty) if s.init is None \
                else self.stored(s.init, ty)
            self.emit(f"E[{s.name!r}] = {v}")
        self.defined.add(s.name)

    def for_loop(self, s: C.For) -> None:
        # The init statement runs without its directives.
        if isinstance(s.init, C.Decl):
            self.decl(s.init)
        elif s.init is not None:
            self.inner(s.init)
        cond = "True" if s.cond is None else self.cond(s.cond)
        outer = set(self.defined)

        def step() -> None:
            # The step sees the declarations the condition sees.
            self.defined = set(outer)
            self.expr_stmt(s.step)

        self.loops += 1
        if s.step is not None and _binds_continue(s.body):
            # ``continue`` must still run the step: the step leads the
            # loop, skipped on the first trip.
            self.flags += 1
            flag = f"_c{self.flags}"

            def body() -> None:
                self.emit(f"if {flag}:")
                self.block(step)
                self.emit(f"{flag} = True")
                if s.cond is not None:
                    self.emit(f"if not {cond}: break")
                self.stmt(s.body)

            self.emit(f"{flag} = False")
            self.emit("while True:")
            self.scoped(body)
        else:
            def body() -> None:
                self.stmt(s.body)
                step()

            self.emit(f"while {cond}:")
            self.scoped(body)
        self.loops -= 1


def emit_host_program(compiled: CompiledProgram) -> str:
    """Generated Python module text of every function of the program."""
    ordinals = {key: k for k, key in enumerate(compiled.regions_by_stmt)}
    return "\n\n".join(_FunctionEmitter(func, compiled, ordinals).source()
                       for func in compiled.program.functions)


# ---------------------------------------------------------------------------
# localaccess window bounds
# ---------------------------------------------------------------------------


class _BoundEmitter(_FunctionEmitter):
    """A ``localaccess`` bound, lowered like a host expression of no
    function: the loop variable is the argument ``i``; every other name
    and every element the bound reads is looked up in ``E`` at run time
    (the dynamic helpers apply C's integer rules)."""

    def __init__(self, loop_var: str) -> None:
        self.loop_var = loop_var
        self.symbols: dict = {}
        self.defined: set[str] = set()

    def load(self, name: str) -> str:
        return "i" if name == self.loop_var else f"_var(E, {name!r})"

    def index(self, e: C.Expr) -> str:
        return f"int({self.expr(e)})"

    def call(self, e: C.Call) -> str:
        if libm(e.func):
            return super().call(e)
        return self.fail(ScalarError, f"unsupported call {e.func!r}", e.line)

    def assign_value(self, a: C.Assign) -> str:
        return self.fail(ScalarError, "assignment in value position", a.line)


def bound_functions(lower: C.Expr, upper: C.Expr, loop_var: str,
                    lookups: dict[str, Any]) -> tuple[Any, Any]:
    """The bounds of a ``localaccess`` window as ``(i, E) -> int``
    callables; ``lookups`` binds ``_var(E, name)`` and ``_elem(E, name,
    idx)``, which find what the bounds read.  Exec'd once per process
    and text."""
    lines = []
    for fname, bound in (("lower", lower), ("upper", upper)):
        lines += [f"def {fname}(i, E):",
                  f"    return {_BoundEmitter(loop_var).index(bound)}"]
    ns = exec_source("\n".join(lines) + "\n", "<localaccess bounds>",
                     {**_NAMESPACE, **lookups})
    return ns["lower"], ns["upper"]
