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

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .explain import ExplainReport

from .runtime.context import AccExecutor, LoopRunStats
from .runtime.data_loader import DataLoader
from .runtime.dirty import DEFAULT_CHUNK_BYTES
from .frontend.fortran import parse_fortran
from .translator.compiler import (
    CompiledProgram,
    CompileOptions,
    compile_program,
    compile_source,
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
        engine: str = "vector",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        reload_skipping: bool = True,
        tree_reduction: bool = True,
        overlap: bool = False,
        coalesce: bool = False,
        adaptive: bool = False,
        sanitize: bool | None = None,
        trace: bool | None = None,
        internode: str = "staged",
        collective: str = "none",
    ) -> ProgramRun:
        """Execute ``entry`` with ``args`` on a virtual machine.

        Arrays in ``args`` are modified in place (C pointer semantics).
        ``engine='interp'`` forces the scalar reference interpreter for
        every kernel (slow; used by differential tests).
        ``overlap=True`` pipelines inter-GPU communication with later
        kernels; ``coalesce=True`` merges adjacent dirty chunks into one
        bus transaction.  ``adaptive=True`` enables profile-guided task
        mapping and placement switching (delta migration between
        splits).  All three change only *timing*, never results.

        ``sanitize=True`` (or ``REPRO_SANITIZE=1`` in the environment)
        enables the multi-GPU coherence sanitizer: every parallel loop
        is shadow-executed single-GPU and diffed, runtime coherence
        invariants are asserted, and ``localaccess`` declarations are
        audited (:mod:`repro.sanitizer`).  Checks work purely in data
        space and never touch the virtual clock, so modeled time is
        unchanged; wall-clock cost is roughly one interpreter pass per
        loop.  Violations raise
        :class:`~repro.sanitizer.CoherenceViolation`.

        ``trace=True`` (or ``REPRO_TRACE=1``) enables the structured
        tracing subsystem (:mod:`repro.trace`): every kernel launch,
        DMA transfer (tagged with its coherence mechanism), reload-skip
        hit, balancer resplit and placement switch is recorded with its
        modeled start/duration, and a metrics registry aggregates
        per-loop/per-GPU counters.  The tracer is a pure observer:
        modeled times and result arrays are bit-identical with tracing
        on or off.  The recorded :class:`repro.trace.Tracer` is on
        :attr:`ProgramRun.tracer`.

        ``machine`` may also be a :class:`~repro.vcuda.specs.ClusterSpec`
        (or a name from :data:`repro.vcuda.specs.CLUSTERS`): GPUs across
        all nodes flatten into one index space and every flag above runs
        unmodified.  ``internode`` selects the cross-node transport on
        clusters: ``"staged"`` (default) aggregates coherence traffic
        per node pair -- gather to the node host, one NIC transfer,
        scatter on arrival -- while ``"naive"``, the ablation baseline,
        ships one NIC transfer per GPU pair and takes no collective
        schedule (``collective`` must stay ``"none"``; any other pair
        is a ``ValueError``).  Both are timing-only knobs; single-node
        runs never touch the NIC and ignore the choice.

        ``collective`` upgrades the staged transport's broadcast and
        exchange schedules (docs/COLLECTIVES.md): ``"ring"`` pipelines
        chunked broadcasts around a group-contiguous node ring (and a
        hub-local GPU ring inside a node), ``"tree"`` uses a binomial
        tree, and ``"auto"`` prices both per transfer against the
        modeled topology and takes the cheaper.  Any value other than
        the default ``"none"`` also enables the staged-exchange
        progress engine, which overlaps the gather/NIC/scatter legs in
        NIC-sized chunks.  Timing-only like ``internode``: results are
        bit-identical across all five transports the two flags select
        (``naive | staged | ring | tree | auto``), and one-GPU or
        ``"none"``-mode runs reproduce the legacy schedule exactly.
        """
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        if trace is None:
            trace = os.environ.get("REPRO_TRACE", "") not in ("", "0")
        spec = machine
        if isinstance(machine, str):
            spec = CLUSTERS.get(machine) or MACHINES.get(machine)
            if spec is None:
                raise KeyError(
                    f"unknown machine {machine!r}: known machines are "
                    f"{sorted(MACHINES)}, known clusters {sorted(CLUSTERS)}")
        if chunk_bytes < 1:
            raise ValueError(
                f"chunk_bytes must be at least 1, got {chunk_bytes!r}")
        platform = Platform(spec, ngpus)
        loader = DataLoader(platform, chunk_bytes=chunk_bytes,
                            reload_skipping=reload_skipping,
                            migrate_deltas=adaptive)
        sanitizer = None
        if sanitize:
            from .sanitizer import Sanitizer

            sanitizer = Sanitizer(loader)
            for dev in platform.devices:
                dev.memory.poison_on_free = True
        tracer = None
        if trace:
            from .trace import Tracer

            tracer = Tracer(ngpus=ngpus, machine=spec.name)
        executor = AccExecutor(platform, loader, engine=engine,
                               tree_reduction=tree_reduction,
                               overlap=overlap, coalesce=coalesce,
                               adaptive=adaptive, sanitizer=sanitizer,
                               tracer=tracer, internode=internode,
                               collective=collective)
        host = HostExecutor(self.compiled, executor)
        result = host.call(entry, args)
        return ProgramRun(
            result=result,
            platform=platform,
            executor=executor,
            breakdown=platform.profiler.snapshot(),
            loop_stats=list(executor.history),
            sanitizer=sanitizer,
            tracer=tracer,
        )


def compile(source: str, options: CompileOptions | None = None,
            registry: Any | None = None) -> AccProgram:  # noqa: A001
    """Compile OpenACC C source (with the multi-GPU extensions).

    ``registry`` may name a :class:`repro.serve.ProgramRegistry` (or a
    directory path for one): compilation then consults the persistent
    on-disk compiled-program store first and persists fresh
    translations, so a second process compiling the same source with
    the same options loads it from disk instead of re-translating.
    """
    if registry is not None:
        from .serve.registry import ProgramRegistry

        if not isinstance(registry, ProgramRegistry):
            registry = ProgramRegistry(registry)
        compiled, _ = registry.load_or_compile(source, options)
        return AccProgram(compiled)
    return AccProgram(compile_source(source, options))


def compile_fortran(source: str,
                    options: CompileOptions | None = None) -> AccProgram:
    """Compile OpenACC Fortran source (same extensions, same pipeline).

    The Fortran frontend lowers to the shared AST (1-based subscripts
    become 0-based, ``do`` loops become canonical ``for`` loops,
    ``localaccess`` windows are re-based), so analysis, code generation
    and the runtime are identical to the C path.
    """
    return AccProgram(compile_program(parse_fortran(source), options))
