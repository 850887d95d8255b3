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
semantics prescribe (Python ``int``/``float`` for declared scalars,
NumPy scalars for array elements); OpenACC constructs are direct calls
into the runtime.  The text holds no per-run state, so every run and
every serve thread of a program shares one exec'd module.

*Static facts, dynamic rules.*  Whatever depends on an operand's type at
run time -- ``/`` and ``%`` (integer or floating), the coercion of a
scalar store, whether a name holds an array -- goes through a helper of
this module that applies the dynamic rule, and is specialised to the
plain operator only where the emitter knows the type: a name has the
one C type the function declares it with (the frontend rejects a second)
wherever a declaration ran on every path to the use.  A name a store
could leave holding something else (``int x; x = a;`` with ``a`` an
array) loses its static type for the whole function.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..frontend import cast as C
from ..frontend.directives import AccData, AccParallel, AccUpdate
from .compiler import CompiledProgram, CompileError
from .cscalar import (
    _MATH_FUNCS,
    _NP_DTYPES,
    ScalarError,
    _apply_scalar_op,
    c_div,
    c_fmax,
    c_fmin,
    c_mod,
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
           before_write: Any, op: str = "") -> Any:
    """``name[idx] op= value`` in value position."""
    if not 0 <= idx < arr.shape[0]:
        _oob(name, idx, line)
    if op:
        value = _apply_scalar_op(arr[idx], op, value, line)
    before_write(arr)
    arr[idx] = value
    return value


def _assign(E: dict, name: str, value: Any, line: int, op: str = "") -> Any:
    """``name op= value`` where the emitter does not know what ``name``
    holds: the stored value takes the type of the current one."""
    if name not in E:
        raise HostError(f"assignment to undeclared {name!r} (line {line})")
    cur = E[name]
    if op:
        value = _apply_scalar_op(cur, op, value, line)
    if isinstance(cur, float):
        value = float(value)
    elif isinstance(cur, int) and not isinstance(value, np.ndarray):
        value = int(value)
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
    "_present": _present,
    **{f"_m_{name}": fn for name, fn in _MATH_FUNCS.items()},
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
# Static types
# ---------------------------------------------------------------------------
#
# An expression's type is ``"i"``/``"f"`` (exactly a Python int/float),
# ``"I"``/``"F"`` (integer/floating, possibly a NumPy scalar) or None
# (unknown: may even be an array).  A name's kind is ``"i"``/``"f"`` or
# ``"a" + element type`` for arrays.


def _declared_kind(ctype: C.CType, is_param: bool) -> str:
    if ctype.is_arraylike:
        # Array arguments are dtype-checked only for the known C types;
        # a host-declared array of any other type is float64.
        dt = _NP_DTYPES.get(ctype.base, None if is_param else np.float64)
        if dt is None:
            return "a"
        return "aI" if np.issubdtype(dt, np.integer) else "aF"
    return "f" if ctype.is_float else "i"


def _arith(lt: str | None, rt: str | None) -> str | None:
    """Type of ``l + r`` / ``l - r`` / ``l * r``."""
    if lt is None or rt is None:
        return None
    if lt in "iI" and rt in "iI":
        return "i" if lt == rt == "i" else "I"
    return "f" if lt in "if" and rt in "if" else "F"


def _join(types: list[str | None]) -> str | None:
    """Type of a value that is one of several (ternary, ``min``)."""
    if not types or None in types:
        return None
    if len(set(types)) == 1:
        return types[0]
    if all(t in "iI" for t in types):
        return "I"
    if all(t in "fF" for t in types):
        return "F"
    return None


def _coerce(text: str, have: str | None, want: str) -> str:
    if have == want:
        return text
    return f"float({text})" if want == "f" else f"int({text})"


def _pure(e: C.Expr) -> bool:
    """No assignment and no call to a host function inside ``e``."""
    return not any(
        isinstance(n, C.Assign)
        or (isinstance(n, C.Call) and n.func not in _MATH_FUNCS)
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
    """Lowers one function; ``demoted`` names have no static kind."""

    def __init__(self, func: C.FunctionDef, demoted: set[str],
                 compiled: CompiledProgram, ordinals: dict[int, int]) -> None:
        self.func = func
        self.symbols = compiled.scopes[func.name].symbols
        #: Kind of each name looked up so far (None: no static kind).
        self.kinds: dict[str, str | None] = dict.fromkeys(demoted)
        self.compiled = compiled
        self.ordinals = ordinals
        self.lines: list[str] = []
        self.depth = 1
        #: Names declared on every path to the statement being emitted.
        self.defined = {p.name for p in func.params}
        #: Names whose static kind a store of this function can break.
        self.demoted = demoted
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

    def kind(self, name: str) -> str | None:
        """What ``name`` holds once a declaration ran: the frontend
        rejects a name declared with two types in one function."""
        if name not in self.kinds:
            sym = self.symbols.get(name)
            self.kinds[name] = None if sym is None else \
                _declared_kind(sym.ctype, sym.storage == "param")
        return self.kinds[name]

    def load(self, name: str) -> tuple[str, str | None]:
        kind = self.kind(name)
        text = f"E[{name!r}]" if name in self.defined \
            else f"_var(E, {name!r})"
        return text, kind if kind in ("i", "f") else None

    def array(self, name: str, message: str) -> str:
        """The host array ``name``; ``HostError(message)`` if it is none."""
        if name in self.defined and (self.kind(name) or "")[:1] == "a":
            return f"E[{name!r}]"
        return f"_ndarray(E, {name!r}, {message!r})"

    def element_type(self, name: str) -> str | None:
        kind = self.kind(name) or ""
        return kind[1] if kind[:1] == "a" and len(kind) == 2 else None

    def index(self, e: C.Expr) -> str:
        text, t = self.expr(e)
        return _coerce(text, t, "i")

    # -- expressions -------------------------------------------------------------

    def expr(self, e: C.Expr) -> tuple[str, str | None]:
        """Python text of ``e`` in value position, and its static type."""
        if isinstance(e, C.IntLit):
            return (str(e.value) if e.value >= 0 else f"({e.value})"), "i"
        if isinstance(e, C.FloatLit):
            text = repr(e.value)
            if not math.isfinite(e.value):
                text = f"float({text!r})"
            return (text if e.value >= 0 else f"({text})"), "f"
        if isinstance(e, C.Ident):
            return self.load(e.name)
        if isinstance(e, C.BinOp):
            return self.binop(e)
        if isinstance(e, C.UnOp):
            if e.op == "!":
                return f"(0 if {self.cond(e.operand)} else 1)", "i"
            v, t = self.expr(e.operand)
            if e.op == "-":
                return f"(-{v})", t
            if e.op == "+":
                return v, t
            if e.op == "~":
                return f"(~{_coerce(v, t, 'i')})", "i"
            return self.fail(ScalarError, f"unsupported unary op {e.op!r}",
                             e.line, after=(v,)), None
        if isinstance(e, C.Ternary):
            a, at = self.expr(e.then)
            b, bt = self.expr(e.other)
            return f"({a} if {self.cond(e.cond)} else {b})", _join([at, bt])
        if isinstance(e, C.Call):
            return self.call(e)
        if isinstance(e, C.Index):
            if len(e.indices) != 1:
                return self.fail(ScalarError, "multi-dimensional subscript",
                                 e.line), None
            idx = self.index(e.indices[0])
            if not isinstance(e.array, C.Ident):
                return self.fail(
                    TypeError, "subscript of a non-identifier expression",
                    after=(idx,)), None
            return (f"_elem(E, {e.array.name!r}, {idx})",
                    self.element_type(e.array.name))
        if isinstance(e, C.CastExpr):
            v, t = self.expr(e.operand)
            if e.to.pointers:
                return self.fail(ScalarError, "pointer casts unsupported",
                                 e.line, after=(v,)), None
            dt = _NP_DTYPES.get(e.to.base, np.float64)
            if np.issubdtype(dt, np.integer):
                return f"np.{dt.__name__}({v}).item()", "i"
            return f"np.{dt.__name__}({v})", "F" if t else None
        if isinstance(e, C.Assign):
            return self.assign_value(e)
        return self.fail(
            ScalarError, f"unsupported expression {type(e).__name__}"), None

    def fail(self, cls: type, *args: Any, after: tuple[str, ...] = ()) -> str:
        """Text that raises ``cls(*args)`` once ``after`` is evaluated."""
        ctor = f"{cls.__name__}({', '.join(map(repr, args))})"
        return f"_fail({', '.join([ctor, *after])})"

    def cond(self, e: C.Expr) -> str:
        """Python text of ``e`` where only its truth matters."""
        if isinstance(e, C.BinOp):
            if e.op in _COMPARE:
                return f"({self.expr(e.left)[0]} {e.op} {self.expr(e.right)[0]})"
            if e.op in ("&&", "||"):
                word = "and" if e.op == "&&" else "or"
                return f"({self.cond(e.left)} {word} {self.cond(e.right)})"
        if isinstance(e, C.UnOp) and e.op == "!":
            return f"(not {self.cond(e.operand)})"
        return self.expr(e)[0]

    def binop(self, e: C.BinOp) -> tuple[str, str | None]:
        op = e.op
        if op in _COMPARE or op in ("&&", "||"):
            return f"(1 if {self.cond(e)} else 0)", "i"
        l, lt = self.expr(e.left)
        r, rt = self.expr(e.right)
        t = _arith(lt, rt)
        if op in ("+", "-", "*"):
            return f"({l} {op} {r})", t
        if op in ("/", "%"):
            if t in ("f", "F"):
                if op == "/":
                    return f"({l} / {r})", t
                return f"math.fmod({l}, {r})", "f"
            helper = "c_div" if op == "/" else "c_mod"
            return f"{helper}({l}, {r}, {e.line})", "i" if t else None
        if op in ("<<", ">>", "&", "|", "^"):
            return (f"({_coerce(l, lt, 'i')} {op} {_coerce(r, rt, 'i')})",
                    "i")
        return self.fail(ScalarError, f"unsupported binary op {op!r}", e.line,
                         after=(l, r)), None

    def call(self, e: C.Call) -> tuple[str, str | None]:
        fn = _MATH_FUNCS.get(e.func)
        if fn is not None:
            args = [self.expr(a) for a in e.args]
            types = [t for _, t in args]
            if fn in (math.floor, math.ceil):
                t = "i"
            elif fn in (abs, min, max, c_fmin, c_fmax):
                # The result is one of the operands, of that operand's type.
                t = _join(types)
            else:
                t = "f"
            return f"_m_{e.func}({', '.join(a for a, _ in args)})", t
        if e.func in _IGNORED_CALLS:
            return "0", "i"
        try:
            callee = self.compiled.program.function(e.func)
        except KeyError:
            return self.fail(
                HostError,
                f"call to unknown function {e.func!r} at line {e.line}"), None
        if len(e.args) != len(callee.params):
            return self.fail(
                HostError,
                f"{e.func} expects {len(callee.params)} arguments, got "
                f"{len(e.args)} (line {e.line})"), None
        items = []
        for p, a in zip(callee.params, e.args):
            if not p.ctype.is_arraylike:
                v, t = self.expr(a)
                value = _coerce(v, t, "f" if p.ctype.is_float else "i")
            elif isinstance(a, C.Ident):
                # By reference, as in C.
                value = self.array(a.name, f"{a.name!r} is not an array")
            else:
                value = self.fail(
                    HostError,
                    f"array argument {p.name!r} must be passed by name")
            items.append(f"{p.name!r}: {value}")
        return f"host_{e.func}({{{', '.join(items)}}}, rt)", None

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

    def scalar_target_type(self, name: str, vt: str | None) -> str | None:
        """Static kind of scalar ``name`` if a store of a ``vt`` value
        keeps it, else None (and the name is demoted)."""
        kind = self.kind(name)
        if kind == "f" or (kind == "i" and vt is not None):
            return kind
        if kind is not None:
            self.demoted.add(name)
        return None

    def assign_value(self, a: C.Assign,
                     value: tuple[str, str | None] | None = None
                     ) -> tuple[str, str | None]:
        """An assignment whose value is used: through the helpers."""
        v, vt = value or self.expr(a.value)
        op = f", {a.op!r}" if a.op else ""
        if isinstance(a.target, C.Ident):
            name = a.target.name
            return (f"_assign(E, {name!r}, {v}, {a.line}{op})",
                    self.scalar_target_type(name, vt))
        target = self.store_target(a, v)
        if isinstance(target, str):
            return target, None
        self.uses_before_write = True
        arr, idx = target
        name = a.target.array.name
        return (f"_store({v}, {arr}, {idx}, {name!r}, {a.line}, _bhw{op})",
                None if a.op else vt)

    def compound(self, cur: str, ct: str | None, op: str, v: str,
                 vt: str | None, line: int) -> tuple[str, str | None]:
        """``cur op v`` by the compound-assignment rules."""
        t = _arith(ct, vt)
        if op in ("+", "-", "*"):
            return f"({cur} {op} {v})", t
        if op == "/" and t in ("f", "F"):
            return f"({cur} / {v})", t
        return f"_aop({cur}, {op!r}, {v}, {line})", None

    def assign_stmt(self, a: C.Assign) -> None:
        """An assignment whose value is dropped: native statements."""
        v, vt = self.expr(a.value)
        if isinstance(a.target, C.Ident):
            name = a.target.name
            kind = self.scalar_target_type(name, vt)
            if kind is None or name not in self.defined:
                self.emit(self.assign_value(a, (v, vt))[0])
                return
            if a.op:
                if not _pure(a.value):
                    # The value is evaluated before the target is read.
                    self.emit(f"_v = {v}")
                    v = "_v"
                v, vt = self.compound(f"E[{name!r}]", kind, a.op, v, vt,
                                      a.line)
            self.emit(f"E[{name!r}] = {_coerce(v, vt, kind)}")
            return
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
                "_a[_i]", self.element_type(name), a.op, "_v", vt, a.line)[0])
        self.emit("_bhw(_a)")
        self.emit("_a[_i] = _v")

    def expr_stmt(self, e: C.Expr | None) -> None:
        if isinstance(e, C.Assign):
            self.assign_stmt(e)
        elif e is not None:
            self.emit(self.expr(e)[0])

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
                      else f"return {self.expr(s.value)[0]}")
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
            want = "f" if s.ctype.is_float else "i"
            v, t = self.expr(s.init) if s.init is not None else ("0", "i")
            if s.init is None and want == "f":
                v, t = "0.0", "f"
            self.emit(f"E[{s.name!r}] = {_coerce(v, t, want)}")
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


def _emit_function(func: C.FunctionDef, compiled: CompiledProgram,
                   ordinals: dict[int, int]) -> str:
    demoted: set[str] = set()
    while True:
        known = len(demoted)
        source = _FunctionEmitter(func, demoted, compiled, ordinals).source()
        if len(demoted) == known:
            return source


def emit_host_program(compiled: CompiledProgram) -> str:
    """Generated Python module text of every function of the program."""
    ordinals = {key: k for k, key in enumerate(compiled.regions_by_stmt)}
    return "\n\n".join(_emit_function(func, compiled, ordinals)
                       for func in compiled.program.functions)


# ---------------------------------------------------------------------------
# localaccess window bounds
# ---------------------------------------------------------------------------


class _BoundEmitter(_FunctionEmitter):
    """A ``localaccess`` bound, lowered like a host expression of no
    function: the loop variable is the argument ``i``; every other name
    and every element the bound reads is looked up in ``E`` at run time,
    with no static type (the dynamic helpers apply C's rules)."""

    def __init__(self, loop_var: str) -> None:
        self.loop_var = loop_var
        self.symbols: dict = {}
        self.kinds: dict[str, str | None] = {}
        self.defined: set[str] = set()

    def load(self, name: str) -> tuple[str, str | None]:
        if name == self.loop_var:
            return "i", "i"
        return f"_var(E, {name!r})", None

    def call(self, e: C.Call) -> tuple[str, str | None]:
        if e.func in _MATH_FUNCS:
            return super().call(e)
        return self.fail(ScalarError, f"unsupported call {e.func!r}",
                         e.line), None

    def assign_value(self, a: C.Assign, value=None) -> tuple[str, None]:
        return self.fail(ScalarError, "assignment in value position",
                         a.line), None


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
