"""Host-program executor.

The translator compiles everything outside parallel regions to Python
source (:mod:`repro.translator.hostgen`): one generated function per C
function, run against a Python environment of NumPy arrays and scalars,
which hands control to the multi-GPU runtime at the OpenACC constructs:

* ``data`` regions open/close the data environment,
* ``update host/device`` directives move data eagerly,
* ``parallel``/``kernels`` regions run their compiled kernel plans via
  the :class:`~repro.runtime.context.AccExecutor`,
* arrays used by a parallel region but not in any enclosing data region
  get an implicit ``copy`` region around the construct (OpenACC default
  data attributes).

Standalone executable directives (``update``) are line-oriented: they
attach to the *following* statement and are applied before it.  An
``update`` that ends a block must be followed by an empty statement
(``;``).

:class:`HostExecutor` is what a generated function receives as ``rt``:
the loader, the executor and the region table of one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..frontend import cast as C
from .compiler import CompiledProgram
from .cscalar import _NP_DTYPES
from .hostgen import HOST_FILENAME, HostError, host_functions

if TYPE_CHECKING:  # avoid a runtime translator<->runtime package cycle
    from ..runtime.context import AccExecutor


@dataclass
class RunResult:
    """Outcome of one program execution."""

    value: Any
    env: dict[str, Any]


class HostExecutor:
    """Runs the generated host program and drives the multi-GPU runtime."""

    def __init__(self, compiled: CompiledProgram, executor: "AccExecutor") -> None:
        self.compiled = compiled
        self.executor = executor
        self.loader = executor.loader
        #: Generated code names a parallel region by its ordinal here.
        self.regions = compiled.regions

    def call(self, func_name: str, args: dict[str, Any]) -> RunResult:
        params = self.compiled.signature(func_name)
        env: dict[str, Any] = {}
        for name, base, arraylike in params:
            if name not in args:
                raise HostError(f"missing argument {name!r} for {func_name}")
            env[name] = _coerce_arg(name, base, arraylike, args[name])
        unknown = set(args) - {name for name, _, _ in params}
        if unknown:
            raise HostError(f"unknown arguments {sorted(unknown)}")
        host_fn = host_functions(self.compiled)[f"host_{func_name}"]
        try:
            value = host_fn(env, self)
        except RecursionError as exc:
            raise HostError(
                f"host recursion too deep in function "
                f"{_innermost_host_function(exc, func_name)!r}") from exc
        finish = getattr(self.executor, "finish", None)
        if finish is not None:
            # Program end: retire in-flight communication and queued
            # kernel time (a no-op in synchronous mode).
            finish()
        return RunResult(value=value, env=env)


def _coerce_arg(name: str, base: str, arraylike: bool, value: Any) -> Any:
    if arraylike:
        arr = np.asarray(value)
        if arr.ndim != 1:
            raise HostError(
                f"argument {name!r} must be a 1-D array (linearize "
                "multi-dimensional data)")
        want = _NP_DTYPES.get(base)
        if want is not None and arr.dtype != want:
            raise HostError(
                f"argument {name!r} must have dtype {np.dtype(want)}, "
                f"got {arr.dtype}")
        return arr
    if C.CType(base).is_float:
        return float(value)
    return int(value)


def _innermost_host_function(exc: BaseException, default: str) -> str:
    """Name of the deepest generated function on ``exc``'s traceback."""
    name = default
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_filename == HOST_FILENAME:
            name = code.co_name.removeprefix("host_")
        tb = tb.tb_next
    return name


def run_program(
    compiled: CompiledProgram,
    executor: "AccExecutor",
    entry: str,
    args: dict[str, Any],
) -> RunResult:
    """Convenience: run ``entry(args)`` on the given executor."""
    return HostExecutor(compiled, executor).call(entry, args)
