"""The scalar reference interpreter, kept as the differential oracle of
the generated kernels.

Moved from ``repro/translator/interpreter.py`` (``ExprEvaluator``,
``KernelInterpreter``) and ``repro/translator/fusion.py``
(``FusedInterpreter``) when every parallel loop became a kernel or a
located ``CompileError``.  It runs a loop body one iteration at a time
with real control flow -- no predication, no flattening -- against the
same :class:`~repro.runtime.kernelctx.KernelContext` the kernels use,
and reports every array access to ``ctx.access_hook(name, iteration,
index, kind)`` when a test sets one.  The C scalar rules (``/`` and
``%``, compound assignment, the math library, declared dtypes) are the
host program's, from :mod:`repro.translator.cscalar`.

:func:`oracle` gives a program whose every kernel is run by the
interpreter: copied plans whose ``fn`` is the interpreter's ``run``, so
``src/`` needs no seam for it.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api import AccProgram
from repro.frontend import cast as C
from repro.frontend.directives import AccReductionToArray
from repro.translator import fusion
from repro.translator.array_config import LoopConfig, WriteHandling
from repro.translator.compiler import CompiledProgram, KernelPlan
from repro.translator.cscalar import (
    _MATH_FUNCS,
    _NP_DTYPES,
    ScalarError,
    _apply_scalar_op,
    c_div,
    c_mod,
)
from repro.translator.kernel_support import red_fold, red_identity

#: The interpreter's errors are the C scalar errors of the host program.
InterpError = ScalarError


class ExprEvaluator:
    """Evaluates C expressions against name-resolution callbacks.

    ``load_var(name)`` returns a scalar value; ``load_elem(name, idx)``
    returns one array element; ``store`` callbacks are supplied by the
    statement executors built on top.
    """

    def __init__(
        self,
        load_var: Callable[[str], Any],
        load_elem: Callable[[str, int], Any],
        assign_hook: Callable[[C.Assign], Any] | None = None,
        call_hook: Callable[[C.Call], Any] | None = None,
    ) -> None:
        self.load_var = load_var
        self.load_elem = load_elem
        self.assign_hook = assign_hook
        self.call_hook = call_hook

    def eval(self, e: C.Expr) -> Any:
        if isinstance(e, C.IntLit):
            return e.value
        if isinstance(e, C.FloatLit):
            return e.value
        if isinstance(e, C.Ident):
            return self.load_var(e.name)
        if isinstance(e, C.BinOp):
            return self._binop(e)
        if isinstance(e, C.UnOp):
            v = self.eval(e.operand)
            if e.op == "-":
                return -v
            if e.op == "+":
                return v
            if e.op == "!":
                return 1 if not v else 0
            if e.op == "~":
                return ~int(v)
            raise InterpError(f"unsupported unary op {e.op!r}", e.line)
        if isinstance(e, C.Ternary):
            return self.eval(e.then) if self.eval(e.cond) else self.eval(e.other)
        if isinstance(e, C.Call):
            fn = _MATH_FUNCS.get(e.func)
            if fn is not None:
                return fn(*(self.eval(a) for a in e.args))
            if self.call_hook is not None:
                return self.call_hook(e)
            raise InterpError(f"unsupported call {e.func!r}", e.line)
        if isinstance(e, C.Index):
            if len(e.indices) != 1:
                raise InterpError("multi-dimensional subscript", e.line)
            idx = int(self.eval(e.indices[0]))
            return self.load_elem(e.base_name(), idx)
        if isinstance(e, C.CastExpr):
            v = self.eval(e.operand)
            if e.to.pointers:
                raise InterpError("pointer casts unsupported", e.line)
            dt = _NP_DTYPES.get(e.to.base, np.float64)
            return dt(v).item() if np.issubdtype(dt, np.integer) else dt(v)
        if isinstance(e, C.Assign):
            if self.assign_hook is None:
                raise InterpError("assignment in value position", e.line)
            return self.assign_hook(e)
        raise InterpError(f"unsupported expression {type(e).__name__}")

    def _binop(self, e: C.BinOp) -> Any:
        op = e.op
        if op == "&&":
            return 1 if (self.eval(e.left) and self.eval(e.right)) else 0
        if op == "||":
            return 1 if (self.eval(e.left) or self.eval(e.right)) else 0
        l = self.eval(e.left)
        r = self.eval(e.right)
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            return c_div(l, r, e.line)
        if op == "%":
            return c_mod(l, r, e.line)
        if op == "<":
            return 1 if l < r else 0
        if op == ">":
            return 1 if l > r else 0
        if op == "<=":
            return 1 if l <= r else 0
        if op == ">=":
            return 1 if l >= r else 0
        if op == "==":
            return 1 if l == r else 0
        if op == "!=":
            return 1 if l != r else 0
        if op == "<<":
            return int(l) << int(r)
        if op == ">>":
            return int(l) >> int(r)
        if op == "&":
            return int(l) & int(r)
        if op == "|":
            return int(l) | int(r)
        if op == "^":
            return int(l) ^ int(r)
        raise InterpError(f"unsupported binary op {op!r}", e.line)


class _LoopBreak(Exception):
    pass


class _LoopContinue(Exception):
    pass


@dataclass
class KernelInterpreter:
    """Executes one parallel loop scalar-wise against a kernel context."""

    body: C.Stmt
    loop_var: str
    config: LoopConfig
    scalar_reductions: list[tuple[str, str]]
    #: Names the loop directive lists as private(...): fresh per iteration.
    private_names: tuple[str, ...] = ()
    #: Declared C types of kernel locals (assignment rounds to these).
    local_types: dict | None = None

    def run(self, ctx) -> None:
        partials = {var: red_identity(op) for op, var in self.scalar_reductions}
        red_ops = {var: op for op, var in self.scalar_reductions}
        for i in range(ctx.i0, ctx.i1):
            env: dict[str, Any] = {self.loop_var: i}
            for name in self.private_names:
                env[name] = 0
            self._exec(self.body, env, ctx, partials, red_ops)
        for var, op in red_ops.items():
            ctx.reduce_scalar(op, var, partials[var])

    # -- environment ------------------------------------------------------------

    def _make_eval(self, env: dict, ctx, partials, red_ops) -> ExprEvaluator:
        def load_var(name: str) -> Any:
            if name in env:
                return env[name]
            if name in red_ops:
                raise InterpError(
                    f"reduction variable {name!r} read outside its reduction")
            if name in ctx.scalars:
                return ctx.scalars[name]
            raise InterpError(f"unknown identifier {name!r}")

        def load_elem(name: str, idx: int) -> Any:
            if name not in ctx.arrays:
                raise InterpError(f"unmanaged array {name!r}")
            hook = getattr(ctx, "access_hook", None)
            if hook is not None:
                hook(name, env.get(self.loop_var), idx, "r")
            local = idx - ctx.base[name]
            arr = ctx.arrays[name]
            if not (0 <= local < arr.shape[0]):
                raise InterpError(
                    f"read of {name}[{idx}] outside the loaded window")
            return arr[local]

        return ExprEvaluator(load_var, load_elem)

    # -- statements ---------------------------------------------------------------

    def _exec(self, s: C.Stmt, env, ctx, partials, red_ops) -> None:
        red = next((d for d in s.directives
                    if isinstance(d, AccReductionToArray)), None)
        if red is not None:
            self._exec_reduction_to_array(s, red, env, ctx, partials, red_ops)
            return
        ev = self._make_eval(env, ctx, partials, red_ops)
        if isinstance(s, C.Compound):
            for st in s.body:
                self._exec(st, env, ctx, partials, red_ops)
        elif isinstance(s, C.Decl):
            dt = _NP_DTYPES.get(s.ctype.base, np.float64)
            v = ev.eval(s.init) if s.init is not None else 0
            env[s.name] = dt(v).item() if np.issubdtype(dt, np.integer) else dt(v)
        elif isinstance(s, C.ExprStmt):
            if s.expr is None:
                return
            if isinstance(s.expr, C.Assign):
                self._exec_assign(s.expr, env, ctx, partials, red_ops)
            elif isinstance(s.expr, C.Call):
                if s.expr.func not in ("printf", "fprintf"):
                    ev.eval(s.expr)
        elif isinstance(s, C.If):
            if ev.eval(s.cond):
                self._exec(s.then, env, ctx, partials, red_ops)
            elif s.orelse is not None:
                self._exec(s.orelse, env, ctx, partials, red_ops)
        elif isinstance(s, C.For):
            self._exec_for(s, env, ctx, partials, red_ops)
        elif isinstance(s, (C.Break,)):
            raise _LoopBreak()
        elif isinstance(s, (C.Continue,)):
            raise _LoopContinue()
        elif isinstance(s, C.While):
            raise InterpError("while loops not allowed in parallel bodies",
                              s.line)
        elif isinstance(s, C.Return):
            raise InterpError("return not allowed in parallel bodies", s.line)
        else:
            raise InterpError(f"unsupported statement {type(s).__name__}")

    def _exec_for(self, s: C.For, env, ctx, partials, red_ops) -> None:
        ev = self._make_eval(env, ctx, partials, red_ops)
        if isinstance(s.init, C.Decl):
            var = s.init.name
            env[var] = int(ev.eval(s.init.init))
        elif isinstance(s.init, C.ExprStmt) and isinstance(s.init.expr, C.Assign) \
                and isinstance(s.init.expr.target, C.Ident):
            var = s.init.expr.target.name
            env[var] = int(ev.eval(s.init.expr.value))
        else:
            raise InterpError("unsupported inner loop init", s.line)
        while True:
            if s.cond is not None and not ev.eval(s.cond):
                break
            try:
                self._exec(s.body, env, ctx, partials, red_ops)
            except _LoopBreak:
                break
            except _LoopContinue:
                pass
            if s.step is not None:
                self._exec_assign(_as_assign(s.step), env, ctx, partials, red_ops)

    def _exec_assign(self, a: C.Assign, env, ctx, partials, red_ops) -> None:
        ev = self._make_eval(env, ctx, partials, red_ops)
        if isinstance(a.target, C.Ident):
            name = a.target.name
            if name in red_ops:
                self._exec_scalar_reduction(name, a, ev, partials, red_ops, ctx)
                return
            if name not in env:
                raise InterpError(
                    f"assignment to non-local {name!r} in kernel", a.line)
            value = ev.eval(a.value)
            if a.op:
                cur = env[name]
                value = _apply_scalar_op(cur, a.op, value, a.line)
            base = (self.local_types or {}).get(name)
            if base is not None and name != self.loop_var:
                dt = _NP_DTYPES.get(base)
                if dt is not None:
                    value = dt(value).item() \
                        if np.issubdtype(dt, np.integer) else dt(value)
            env[name] = value
            return
        if isinstance(a.target, C.Index):
            name = a.target.base_name()
            cfg = self.config.arrays.get(name)
            if cfg is None:
                raise InterpError(f"store to unmanaged array {name!r}", a.line)
            idx = int(ev.eval(a.target.indices[0]))
            value = ev.eval(a.value)
            hook = getattr(ctx, "access_hook", None)
            if hook is not None:
                hook(name, env.get(self.loop_var), idx, "w")
            gi = np.array([idx], dtype=np.int64)
            gv = np.array([value])
            handling = cfg.write_handling
            if handling == WriteHandling.MISS_CHECK:
                ctx.write_checked(name, gi, gv, a.op)
                return
            if handling == WriteHandling.REDUCTION:
                raise InterpError(
                    f"store to reduction destination {name!r} without "
                    "reductiontoarray annotation", a.line)
            local = idx - ctx.base[name]
            arr = ctx.arrays[name]
            if not (0 <= local < arr.shape[0]):
                raise InterpError(
                    f"write of {name}[{idx}] outside the loaded window")
            if a.op:
                arr[local] = _apply_scalar_op(arr[local], a.op, value, a.line)
            else:
                arr[local] = value
            if handling == WriteHandling.DIRTY_BITS:
                ctx.mark_dirty(name, gi)
            return
        raise InterpError("unsupported assignment target", a.line)

    def _exec_scalar_reduction(self, name, a, ev, partials, red_ops, ctx) -> None:
        op = red_ops[name]
        if a.op:
            if a.op != op:
                raise InterpError(
                    f"reduction variable {name!r} declared with {op!r} but "
                    f"updated with {a.op!r}=", a.line)
            contrib = ev.eval(a.value)
        else:
            contrib = self._reduction_contrib(name, op, a.value, ev)
        partials[name] = red_fold(op, partials[name], contrib, None, 1)

    def _reduction_contrib(self, name, op, value, ev):
        if isinstance(value, C.BinOp) and value.op == op:
            if isinstance(value.left, C.Ident) and value.left.name == name:
                return ev.eval(value.right)
            if isinstance(value.right, C.Ident) and value.right.name == name:
                return ev.eval(value.left)
        if isinstance(value, C.Call):
            stripped = value.func.lstrip("f").rstrip("f")
            if stripped == op and len(value.args) == 2:
                if isinstance(value.args[0], C.Ident) and value.args[0].name == name:
                    return ev.eval(value.args[1])
                if isinstance(value.args[1], C.Ident) and value.args[1].name == name:
                    return ev.eval(value.args[0])
        raise InterpError(
            f"statement does not match the declared {op!r} reduction on {name!r}")

    def _exec_reduction_to_array(self, s, d, env, ctx, partials, red_ops) -> None:
        if not (isinstance(s, C.ExprStmt) and isinstance(s.expr, C.Assign)
                and isinstance(s.expr.target, C.Index)):
            raise InterpError("reductiontoarray must annotate a store", s.line)
        a = s.expr
        ev = self._make_eval(env, ctx, partials, red_ops)
        idx = int(ev.eval(a.target.indices[0]))
        value = ev.eval(a.value)
        ctx.reduce_to_array(d.array, np.array([idx], dtype=np.int64),
                            np.array([value]), d.op)


def _as_assign(e: C.Expr) -> C.Assign:
    if isinstance(e, C.Assign):
        return e
    raise InterpError("loop step must be an assignment")


class FusedInterpreter:
    """Scalar-engine twin of the fused kernel: the member interpreters
    run back to back, with demoted scratch injected into the context."""

    def __init__(self, interps: list[KernelInterpreter],
                 demoted: tuple[fusion.DemotedArray, ...]) -> None:
        self.interps = interps
        self.demoted = demoted

    def run(self, ctx: Any) -> None:
        injected: list[str] = []
        n = max(0, ctx.i1 - ctx.i0)
        for d in self.demoted:
            if d.name in ctx.arrays:
                continue
            # Every access of iteration i lands in [coeff*i + lo,
            # coeff*i + hi].
            size = d.coeff * (n - 1) + d.hi - d.lo + 1 if n else 0
            ctx.arrays[d.name] = np.zeros(size, dtype=_NP_DTYPES[d.ctype])
            ctx.base[d.name] = d.coeff * ctx.i0 + d.lo
            injected.append(d.name)
        try:
            for it in self.interps:
                it.run(ctx)
        finally:
            for nm in injected:
                ctx.arrays.pop(nm, None)
                ctx.base.pop(nm, None)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def _interpreter(plan: KernelPlan, config: LoopConfig,
                 scalar_reductions: list, scope: Any) -> KernelInterpreter:
    return KernelInterpreter(
        body=plan.analysis.nest.body,
        loop_var=plan.loop_var,
        config=config,
        scalar_reductions=scalar_reductions,
        private_names=tuple(fusion._private_names(plan)),
        local_types=fusion._local_types(plan, scope),
    )


def interpreter_for(compiled: CompiledProgram, plan: KernelPlan):
    """The interpreter of one plan of ``compiled``: the loop's own, or
    -- for a fused plan -- its members' under their fused-codegen
    configs (:func:`repro.translator.fusion._member_codegen_config`)."""
    scope = compiled.scopes[plan.name.rsplit("_L", 1)[0]]
    group = next((g for g in compiled.fusion_groups if g.fused is plan),
                 None)
    if group is None:
        return _interpreter(plan, plan.config,
                            plan.analysis.scalar_reductions, scope)
    members = [compiled.plan(name) for name in group.members]
    written = {a for m in members
               for a, cfg in m.config.arrays.items() if cfg.written}
    return FusedInterpreter(
        [_interpreter(m, fusion._member_codegen_config(
            m, list(group.demoted), written), [], scope) for m in members],
        group.demoted)


def oracle_program(compiled: CompiledProgram) -> CompiledProgram:
    """``compiled`` with every kernel run by the interpreter (a thawed
    program is re-translated first: the interpreter walks the tree)."""
    compiled = compiled.full()
    copies: dict[int, KernelPlan] = {}

    def swap(plan: KernelPlan) -> KernelPlan:
        if id(plan) not in copies:
            copies[id(plan)] = dataclasses.replace(
                plan, fn=interpreter_for(compiled, plan).run)
        return copies[id(plan)]

    out = copy.copy(compiled)
    out.regions_by_stmt = {
        key: dataclasses.replace(r, plans=[swap(p) for p in r.plans])
        for key, r in compiled.regions_by_stmt.items()}
    out.regions = list(out.regions_by_stmt.values())
    out.plans = [swap(p) for p in compiled.plans]
    return out


def oracle(prog: AccProgram) -> AccProgram:
    """``prog`` with every kernel run by the interpreter."""
    return AccProgram(oracle_program(prog.compiled))
