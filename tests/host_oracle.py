"""The tree-walking host executor, kept as the oracle that
``tests/test_host_codegen.py`` checks the generated host program
(:mod:`repro.translator.hostgen`) against.

Moved verbatim from ``repro/translator/host.py`` -- a fresh
``ExprEvaluator`` per statement, control flow by exceptions, ``id(stmt)``
lookups at run time -- except that array stores are range-checked like
the generated code's, and that values convert by the C type of every
node (:mod:`repro.frontend.typer`) where the generated code converts.
"""

from __future__ import annotations

from typing import Any

import numpy as np

import repro.api
from repro.frontend import cast as C
from repro.frontend.directives import (
    AccData,
    AccParallel,
    AccUpdate,
    ArraySection,
)
from repro.frontend.typer import operand_type
from repro.translator.compiler import CompiledProgram, KernelPlan
from repro.translator.host import HostError, RunResult
from repro.translator.cscalar import _NP_DTYPES, c_convert
from tests.interp_oracle import ExprEvaluator, InterpError


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class WalkerHostExecutor:
    """The tree-walking host executor, as it shipped before the host
    program was compiled."""

    def __init__(self, compiled: CompiledProgram, executor) -> None:
        self.compiled = compiled.full()
        self.executor = executor
        self.loader = executor.loader

    # -- public API ----------------------------------------------------------------

    def call(self, func_name: str, args: dict[str, Any]) -> RunResult:
        func = self.compiled.program.function(func_name)
        env: dict[str, Any] = {}
        for p in func.params:
            if p.name not in args:
                raise HostError(f"missing argument {p.name!r} for {func_name}")
            env[p.name] = self._coerce_arg(p, args[p.name])
        unknown = set(args) - {p.name for p in func.params}
        if unknown:
            raise HostError(f"unknown arguments {sorted(unknown)}")
        value = self._run_function(func, env)
        finish = getattr(self.executor, "finish", None)
        if finish is not None:
            # Program end: retire in-flight communication and queued
            # kernel time (a no-op in synchronous mode).
            finish()
        return RunResult(value=value, env=env)

    def _coerce_arg(self, p: C.Param, value: Any) -> Any:
        if p.ctype.is_arraylike:
            arr = np.asarray(value)
            if arr.ndim != 1:
                raise HostError(
                    f"argument {p.name!r} must be a 1-D array (linearize "
                    "multi-dimensional data)")
            want = _NP_DTYPES.get(p.ctype.base)
            if want is not None and arr.dtype != want:
                raise HostError(
                    f"argument {p.name!r} must have dtype {np.dtype(want)}, "
                    f"got {arr.dtype}")
            return arr
        return c_convert(value, "", p.ctype.base)

    # -- function execution -----------------------------------------------------------

    def _run_function(self, func: C.FunctionDef, env: dict[str, Any]) -> Any:
        outer, self._func = getattr(self, "_func", None), func
        try:
            self._exec(func.body, env)
        except _Return as r:
            return r.value
        finally:
            self._func = outer
        return None

    def _evaluator(self, env: dict[str, Any]) -> ExprEvaluator:
        def load_var(name: str) -> Any:
            if name in env:
                return env[name]
            raise InterpError(f"undefined host variable {name!r}")

        def load_elem(name: str, idx: int) -> Any:
            arr = env.get(name)
            if not isinstance(arr, np.ndarray):
                raise InterpError(f"{name!r} is not a host array")
            if not (0 <= idx < arr.shape[0]):
                raise InterpError(f"host read {name}[{idx}] out of range")
            return arr[idx]

        def assign_hook(a: C.Assign) -> Any:
            return self._exec_assign(a, env, value_position=True)

        def call_hook(call: C.Call) -> Any:
            return self._call_function(call, env)

        return ExprEvaluator(load_var, load_elem, assign_hook, call_hook)

    def _call_function(self, call: C.Call, env: dict[str, Any]) -> Any:
        if call.func in ("printf", "fprintf", "puts", "exit", "free",
                         "srand", "assert"):
            return 0
        try:
            func = self.compiled.program.function(call.func)
        except KeyError:
            raise HostError(
                f"call to unknown function {call.func!r} at line {call.line}")
        ev = self._evaluator(env)
        if len(call.args) != len(func.params):
            raise HostError(
                f"{call.func} expects {len(func.params)} arguments, got "
                f"{len(call.args)} (line {call.line})")
        new_env: dict[str, Any] = {}
        for p, a in zip(func.params, call.args):
            if p.ctype.is_arraylike:
                if not isinstance(a, C.Ident):
                    raise HostError(
                        f"array argument {p.name!r} must be passed by name")
                arr = env.get(a.name)
                if not isinstance(arr, np.ndarray):
                    raise HostError(f"{a.name!r} is not an array")
                new_env[p.name] = arr  # by reference, as in C
            else:
                new_env[p.name] = ev.stored(a, p.ctype.base)
        return self._run_function(func, new_env)

    # -- statement execution ---------------------------------------------------------------

    def _exec(self, s: C.Stmt, env: dict[str, Any]) -> None:
        # A non-leading member of a cross-region fusion group: its loop
        # runs inside the first member's fused region, so the statement
        # (and its directives -- extension past an ``update`` bails in
        # the fusion pass) is skipped here.
        if id(s) in self.compiled.fused_stmts:
            return
        # Standalone executable directives run before the statement.
        for d in s.directives:
            if isinstance(d, AccUpdate):
                self._do_update(d, env)
        data_dir = next((d for d in s.directives if isinstance(d, AccData)), None)
        par_dir = next((d for d in s.directives if isinstance(d, AccParallel)),
                       None)
        if data_dir is not None:
            self._enter_data(data_dir.clauses, env)
            try:
                if par_dir is not None:
                    self._run_region(s, env)
                else:
                    self._exec_inner(s, env)
            finally:
                self.loader.exit_region()
            return
        if par_dir is not None:
            self._run_region(s, env)
            return
        self._exec_inner(s, env)

    def _exec_inner(self, s: C.Stmt, env: dict[str, Any]) -> None:
        ev = self._evaluator(env)
        if isinstance(s, C.Compound):
            for st in s.body:
                self._exec(st, env)
        elif isinstance(s, C.Decl):
            self._exec_decl(s, env, ev)
        elif isinstance(s, C.ExprStmt):
            if s.expr is None:
                return
            if isinstance(s.expr, C.Assign):
                self._exec_assign(s.expr, env)
            else:
                ev.eval(s.expr)
        elif isinstance(s, C.If):
            if ev.eval(s.cond):
                self._exec(s.then, env)
            elif s.orelse is not None:
                self._exec(s.orelse, env)
        elif isinstance(s, C.For):
            self._exec_for(s, env)
        elif isinstance(s, C.While):
            while self._evaluator(env).eval(s.cond):
                try:
                    self._exec(s.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(s, C.Return):
            raise _Return(None if s.value is None else ev.stored(
                s.value, self._func.return_type.base))
        elif isinstance(s, C.Break):
            raise _Break()
        elif isinstance(s, C.Continue):
            raise _Continue()
        else:
            raise HostError(f"unsupported host statement {type(s).__name__}")

    def _exec_decl(self, s: C.Decl, env: dict[str, Any], ev: ExprEvaluator) -> None:
        if s.ctype.array_dims:
            dims = [int(ev.eval(d)) for d in s.ctype.array_dims if d is not None]
            if len(dims) != 1:
                raise HostError(
                    f"host array {s.name!r} must be 1-D (line {s.line})")
            dt = _NP_DTYPES.get(s.ctype.base, np.float64)
            env[s.name] = np.zeros(dims[0], dtype=dt)
            return
        if s.ctype.pointers:
            raise HostError(
                f"pointer declaration {s.name!r} without array extent is not "
                f"supported on the host (line {s.line})")
        base = s.ctype.base
        env[s.name] = ev.stored(s.init, base) if s.init is not None \
            else c_convert(0, "int", base)

    def _exec_for(self, s: C.For, env: dict[str, Any]) -> None:
        ev = self._evaluator(env)
        if s.init is not None:
            if isinstance(s.init, C.Decl):
                self._exec_decl(s.init, env, ev)
            else:
                self._exec_inner(s.init, env)
        while True:
            if s.cond is not None and not self._evaluator(env).eval(s.cond):
                break
            try:
                self._exec(s.body, env)
            except _Break:
                break
            except _Continue:
                pass
            if s.step is not None:
                if isinstance(s.step, C.Assign):
                    self._exec_assign(s.step, env)
                else:
                    self._evaluator(env).eval(s.step)

    def _exec_assign(self, a: C.Assign, env: dict[str, Any],
                     value_position: bool = False) -> Any:
        ev = self._evaluator(env)
        # A plain array store in statement position converts as the
        # element is assigned.
        value = ev.eval(a.value) if not (a.op or value_position) \
            and isinstance(a.target, C.Index) \
            else ev.stored(a.value, operand_type(a))
        if isinstance(a.target, C.Ident):
            name = a.target.name
            if name not in env:
                raise HostError(f"assignment to undeclared {name!r} "
                                f"(line {a.line})")
            value = env[name] = ev.assigned(a, env[name], value)
            return value
        if isinstance(a.target, C.Index):
            arr = env.get(a.target.base_name())
            if not isinstance(arr, np.ndarray):
                raise HostError(
                    f"{a.target.base_name()!r} is not a host array "
                    f"(line {a.line})")
            idx = int(ev.eval(a.target.indices[0]))
            if not (0 <= idx < arr.shape[0]):
                # The one change from the shipped walker: it stored
                # unchecked (negative indices wrapped).
                raise HostError(
                    f"host write {a.target.base_name()}[{idx}] out of range "
                    f"(line {a.line})")
            value = ev.assigned(a, arr[idx], value)
            self.loader.before_host_write(arr)
            arr[idx] = value
            return value
        raise HostError(f"unsupported assignment target (line {a.line})")

    # -- OpenACC constructs ---------------------------------------------------------

    def _sections_to_entries(self, sections: list[ArraySection],
                             env: dict[str, Any],
                             kind: str) -> list[tuple[str, np.ndarray, str]]:
        out = []
        for sec in sections:
            arr = env.get(sec.name)
            if not isinstance(arr, np.ndarray):
                raise HostError(
                    f"data clause names {sec.name!r} which is not a host array")
            out.append((sec.name, arr, kind))
        return out

    def _enter_data(self, clauses, env: dict[str, Any]) -> None:
        entries: list[tuple[str, np.ndarray, str]] = []
        for cl in clauses:
            if cl.kind == "present":
                for sec in cl.sections:
                    if sec.name not in self.loader.arrays:
                        raise HostError(
                            f"present({sec.name}) but the array is not on the "
                            "device")
                continue
            entries.extend(self._sections_to_entries(cl.sections, env, cl.kind))
        self.loader.enter_region(entries)

    def _do_update(self, d: AccUpdate, env: dict[str, Any]) -> None:
        if d.host:
            self.loader.update_host([s.name for s in d.host])
        if d.device:
            self.loader.update_device([s.name for s in d.device])

    def _run_region(self, stmt: C.Stmt, env: dict[str, Any]) -> None:
        region = self.compiled.regions_by_stmt.get(id(stmt))
        if region is None:
            raise HostError("parallel construct was not compiled")
        # Region-local data clauses + implicit 'copy' for unlisted arrays.
        entries: list[tuple[str, np.ndarray, str]] = []
        listed: set[str] = set()
        for cl in region.directive.clauses:
            if cl.kind == "present":
                for sec in cl.sections:
                    if sec.name not in self.loader.arrays:
                        raise HostError(
                            f"present({sec.name}) but the array is not on "
                            "the device")
                listed.update(sec.name for sec in cl.sections)
                continue
            for sec in cl.sections:
                listed.add(sec.name)
            entries.extend(self._sections_to_entries(cl.sections, env, cl.kind))
        implicit: set[str] = set()
        for plan in region.plans:
            for name in plan.config.arrays:
                if name in listed or name in self.loader.arrays:
                    continue
                if name in implicit:
                    continue
                arr = env.get(name)
                if not isinstance(arr, np.ndarray):
                    raise HostError(
                        f"parallel region uses array {name!r} which is not a "
                        "host array in scope")
                implicit.add(name)
                entries.append((name, arr, "copy"))
        opened = bool(entries)
        if opened:
            self.loader.enter_region(entries)
        try:
            for plan in region.plans:
                self._run_plan(plan, env)
        finally:
            if opened:
                self.loader.exit_region()

    def _run_plan(self, plan: KernelPlan, env: dict[str, Any]) -> None:
        ev = self._evaluator(env)
        lower = int(ev.eval(plan.lower))
        upper = int(ev.eval(plan.upper))
        self.executor.run_loop(plan, lower, upper, env)


def run_with_walker(monkeypatch, prog, entry: str, args: dict[str, Any],
                    **run_kw: Any):
    """``prog.run(...)`` with the walker in place of the generated host
    program (same platform, loader and executor set-up)."""
    with monkeypatch.context() as m:
        m.setattr(repro.api, "HostExecutor", WalkerHostExecutor)
        return prog.run(entry, args, **run_kw)
