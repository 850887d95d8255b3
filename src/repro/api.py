"""Public API of the reproduction library.

Typical use::

    import repro

    prog = repro.compile(SOURCE)               # OpenACC C with extensions
    run = prog.run("main_fn", args={...},      # execute on a virtual machine
                   machine="desktop", ngpus=2)
    run.result.env["y"]                        # output arrays (in place)
    run.elapsed                                # modeled seconds
    run.breakdown                              # KERNELS / CPU-GPU / GPU-GPU

``machine`` is one of :data:`repro.vcuda.MACHINES` (the paper's Table I
platforms) or any :class:`~repro.vcuda.specs.MachineSpec`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .explain import ExplainReport

from .runtime.config import RunConfig
from .runtime.context import AccExecutor, LoopRunStats
from .frontend.fortran import parse_fortran
from .translator.compiler import (
    CompiledProgram,
    CompileOptions,
    compile_program,
)
from .translator.host import HostExecutor, RunResult
from .translator.hostgen import format_host_source
from .vcuda.api import Platform
from .vcuda.memory import PURPOSE_SYSTEM, PURPOSE_USER
from .vcuda.profiler import TimeBreakdown
from .vcuda.specs import CLUSTERS, MACHINES, ClusterSpec, MachineSpec


@dataclass
class ProgramRun:
    """Everything observable about one program execution."""

    result: RunResult
    platform: Platform
    executor: AccExecutor
    breakdown: TimeBreakdown
    #: The run's validated flags.
    config: RunConfig
    loop_stats: list[LoopRunStats] = field(default_factory=list)
    #: The coherence sanitizer, when the run was sanitized (else None).
    sanitizer: Any | None = None
    #: The structured tracer, when the run was traced (else None).
    #: Export with :func:`repro.trace.chrome_trace`,
    #: :func:`repro.trace.jsonl` or :func:`repro.trace.gantt`.
    tracer: Any | None = None

    @property
    def elapsed(self) -> float:
        """Modeled wall time (virtual seconds)."""
        return self.platform.elapsed()

    @property
    def value(self) -> Any:
        return self.result.value

    def memory_high_water(self, purpose: str | None = None) -> int:
        """Peak device bytes across all GPUs (Fig. 9 numbers)."""
        if purpose is None:
            return (self.platform.memory_high_water(PURPOSE_USER)
                    + self.platform.memory_high_water(PURPOSE_SYSTEM))
        return self.platform.memory_high_water(purpose)

    @property
    def kernel_launches(self) -> int:
        return sum(len(d.launches) for d in self.platform.devices)


class AccProgram:
    """A compiled OpenACC program bound to no particular machine."""

    def __init__(self, compiled: CompiledProgram) -> None:
        self.compiled = compiled

    @property
    def kernels(self):
        return self.compiled.plans

    def kernel(self, name: str):
        return self.compiled.plan(name)

    def kernel_source(self, name: str) -> str:
        """The generated vectorized NumPy source for one kernel."""
        return self.compiled.plan(name).source

    def host_source(self, func: str) -> str:
        """The generated Python source of one host function."""
        return format_host_source(self.compiled, func)

    def explain(self) -> "ExplainReport":
        """Per-loop, per-array placement report (``repro.explain``).

        Shows, for every parallel loop and array, whether placement is
        replica or distributed, whether the window was declared by a
        ``localaccess`` directive or inferred by the compiler, the
        window formula, and why inference bailed where it did.
        """
        from .explain import explain
        return explain(self.compiled)

    def run(
        self,
        entry: str,
        args: dict[str, Any],
        machine: str | MachineSpec | ClusterSpec = "desktop",
        ngpus: int = 1,
        config: RunConfig | None = None,
        **flags: Any,
    ) -> ProgramRun:
        """Execute ``entry`` with ``args`` on a virtual machine.

        Arrays in ``args`` are modified in place (C pointer semantics).
        ``machine`` may also be a :class:`~repro.vcuda.specs.ClusterSpec`
        (or a name from :data:`repro.vcuda.specs.CLUSTERS`): GPUs across
        all nodes flatten into one index space.

        The run's behaviour is one :class:`~repro.runtime.config.
        RunConfig`: ``config``, with the keyword ``flags`` (its field
        names: ``overlap=True``, ``collective="ring"``, ...) replacing
        its fields.  Each flag is documented on its field there.  The
        value is on :attr:`ProgramRun.config`.
        """
        if config is None:
            config = RunConfig(**flags)
        elif flags:
            config = replace(config, **flags)
        spec = machine
        if isinstance(machine, str):
            spec = CLUSTERS.get(machine) or MACHINES.get(machine)
            if spec is None:
                raise KeyError(
                    f"unknown machine {machine!r}: known machines are "
                    f"{sorted(MACHINES)}, known clusters {sorted(CLUSTERS)}")
        if isinstance(ngpus, bool) or not isinstance(ngpus, numbers.Integral):
            raise TypeError(f"ngpus must be an integer, got {ngpus!r}")
        ngpus = int(ngpus)
        platform = Platform(spec, ngpus)
        executor = AccExecutor(platform, config)
        result = HostExecutor(self.compiled, executor).call(entry, args)
        return ProgramRun(
            result=result,
            platform=platform,
            executor=executor,
            breakdown=platform.profiler.snapshot(),
            config=config,
            loop_stats=list(executor.history),
            sanitizer=executor.sanitizer,
            tracer=executor.tracer,
        )


def compile(source: str, options: CompileOptions | None = None,
            registry: Any | None = None) -> AccProgram:  # noqa: A001
    """Compile OpenACC C source (with the multi-GPU extensions).

    Every call with one (source, options) pair returns the same
    translation: the process's memory-only
    :data:`repro.serve.registry.PROGRAMS` keeps it.  ``registry`` may
    name a :class:`repro.serve.ProgramRegistry` (or a directory path
    for one) to use instead: compilation then consults its on-disk
    store first and persists fresh translations, so a second process
    compiling the same source with the same options loads it from disk
    instead of re-translating.
    """
    from .serve import registry as store

    if registry is None:
        registry = store.PROGRAMS
    elif not isinstance(registry, store.ProgramRegistry):
        registry = store.ProgramRegistry(registry)
    compiled, _ = registry.load_or_compile(source, options)
    return AccProgram(compiled)


def compile_fortran(source: str,
                    options: CompileOptions | None = None) -> AccProgram:
    """Compile OpenACC Fortran source (same extensions, same pipeline).

    The Fortran frontend lowers to the shared AST (1-based subscripts
    become 0-based, ``do`` loops become canonical ``for`` loops,
    ``localaccess`` windows are re-based), so analysis, code generation
    and the runtime are identical to the C path.
    """
    return AccProgram(compile_program(parse_fortran(source), options))
