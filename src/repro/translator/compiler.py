"""Top-level translator: OpenACC C source -> compiled multi-GPU program.

Mirrors the paper's translator (section IV-B): every parallel loop in a
``parallel``/``kernels`` region becomes a kernel (vectorized NumPy
source) or a located :class:`CompileError` -- there is no host-side
fallback -- the host program around it becomes Python source too
(:mod:`repro.translator.hostgen`), and the per-loop array configuration
information is derived from the access analysis and the
``localaccess``/``reductiontoarray`` extensions:

* arrays *without* ``localaccess`` -> replica placement; if written,
  two-level dirty-bit instrumentation;
* arrays *with* ``localaccess`` -> distribution placement with the
  declared window; writes are left uninstrumented when the compiler
  proves them inside the window (check-code elision, section IV-D2),
  otherwise they get per-write miss checks;
* statements annotated ``reductiontoarray`` route through the private
  reduction copies merged by the communication manager.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from dataclasses import dataclass, field
from typing import Any

from ..frontend import cast as C
from ..frontend.analysis import (
    AnalysisError,
    LoopAnalysis,
    affine_in,
    analyze_loop,
    const_value,
    normalize_loop,
)
from ..frontend.directives import (
    AccLocalAccess,
    AccLoop,
    AccParallel,
    LocalAccessSpec,
)
from ..frontend.fortran import parse_fortran
from ..frontend.parser import parse
from ..frontend.symbols import Scope, build_function_scope, build_global_scope
from .array_config import (
    ArrayConfig,
    LoopConfig,
    Placement,
    ReadWindow,
    WriteHandling,
    window_from_spec,
)
from . import kernel_support
from .infer import harmonize_windows, infer_array_window
from .cost import CostCollector, KernelCostInfo, PriceError, price_body
from .spanlower import vectorize_loop
from .vectorizer import (
    KernelSourceInfo,
    VectorizeError,
    compile_kernel_source,
)


class CompileError(ValueError):
    def __init__(self, message: str, line: int = 0) -> None:
        where = f" (line {line})" if line else ""
        super().__init__(f"compile error{where}: {message}")
        self.line = line


@dataclass
class CompileOptions:
    """Translator switches (the ablation benchmarks toggle these)."""

    #: Apply the 2-D layout transformation for coalescing (IV-B4).
    layout_transform: bool = True
    #: Elide write checks proven inside the localaccess window (IV-D2).
    elide_write_checks: bool = True
    #: Infer ``localaccess`` windows for unannotated arrays from the
    #: affine access analysis (:mod:`repro.translator.infer`).  Explicit
    #: directives always take precedence; set False to reproduce the
    #: paper's manual-annotation-only behavior (unannotated arrays are
    #: then always replicated).
    infer: bool = True
    #: Fuse adjacent parallel loops with compatible iteration spaces
    #: into one launched kernel and elide the inter-loop communication
    #: round (:mod:`repro.translator.fusion`).  Off by default: fusion
    #: changes the launch schedule (never the results -- fused runs are
    #: bit-identical, the determinism matrix pins it).
    fuse: bool = False


#: What a pickled :class:`KernelPlan` keeps: everything a run reads.
_PLAN_RECORD = ("name", "config", "loop_var", "scalar_names", "cost",
                "source_info", "block_dim", "max_gangs", "fusion_members",
                "whole")


@dataclass
class KernelPlan:
    """One compiled parallel loop.

    ``lower`` / ``upper`` / ``analysis`` / ``loop_directive`` are
    front-end state (the fusion pass, the host emitter, the test
    oracles); no run reads them, and a thawed plan has None there
    (:meth:`CompiledProgram.full` re-derives them).
    """

    name: str
    config: LoopConfig
    loop_var: str
    scalar_names: list[str]
    cost: KernelCostInfo
    source_info: KernelSourceInfo
    #: The kernel callable, exec'd from ``source_info``.
    fn: Any
    #: Launch geometry from the construct clauses: ``vector_length``
    #: chooses the CUDA block size, ``num_gangs`` caps the grid.
    block_dim: int | None = None
    max_gangs: int | None = None
    #: Set on fused plans only: the member kernel names, in program
    #: order (:mod:`repro.translator.fusion`).  Trace events carry it.
    fusion_members: tuple[str, ...] | None = None
    #: Set on a fused plan whose members touch one array at different
    #: offsets (:func:`repro.translator.fusion.strips_reorder`): its
    #: launches run as one strip.
    whole: bool = False
    lower: C.Expr | None = None
    upper: C.Expr | None = None
    analysis: LoopAnalysis | None = None
    loop_directive: AccLoop | None = None

    def execute(self, ctx) -> None:
        """Run the kernel over ``ctx``'s slice as consecutive strips of
        at most :data:`~repro.translator.kernel_support.LANE_STRIP`
        lanes (``ctx.i0`` / ``ctx.i1`` are the strip's while it runs),
        or as one strip when the plan may not be cut."""
        i0, i1 = ctx.span = ctx.i0, ctx.i1
        step = kernel_support.LANE_STRIP if self.strips else max(i1 - i0, 1)
        try:
            for s in range(i0, i1, step):
                ctx.i0, ctx.i1 = s, min(s + step, i1)
                self.fn(ctx)
        finally:
            ctx.i0, ctx.i1 = i0, i1

    @functools.cached_property
    def strips(self) -> bool:
        """Whether a launch may run in strips: a strip is a GPU split
        that moves no data, except where the split regroups a result --
        a ``+`` / ``*`` scalar reduction folds each strip's ``sum()``,
        and two statements reducing into one ``reductiontoarray``
        destination would interleave per strip -- or where fused
        members would see each other's writes (:attr:`whole`)."""
        cfg = self.config
        return not (
            self.whole
            or any(op in ("+", "*") for op, _ in cfg.scalar_reductions)
            or any(a.write_handling is WriteHandling.REDUCTION
                   for a in cfg.arrays.values()))

    # -- pickling (the serve registry persists compiled programs) ----------
    #
    # A plan pickles as its runtime record.  ``fn`` is an exec'd
    # callable, a pure function of the generated source: it is re-exec'd
    # from ``source_info`` on the way back in.

    def __getstate__(self) -> dict:
        return {k: getattr(self, k) for k in _PLAN_RECORD}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state, fn=compile_kernel_source(state["source_info"]))

    @property
    def source(self) -> str:
        """Generated vectorized kernel source (inspection/tests)."""
        return self.source_info.source


@dataclass
class ParallelRegion:
    """One ``parallel``/``kernels`` construct in a function body (a
    thawed program's regions have no statement or directive)."""

    stmt: C.Stmt | None
    directive: AccParallel | None
    plans: list[KernelPlan] = field(default_factory=list)


#: Serialises :meth:`CompiledProgram.full` re-translations: serve
#: threads share thawed programs.
_FULL_LOCK = threading.Lock()


@dataclass
class CompiledProgram:
    """Everything the host executor needs to run the program.

    What a run reads: ``options``, ``plans``, ``regions``, ``params``
    and ``host_source``.  The rest -- the tree, the scopes, the
    statement-keyed maps and the fusion report -- is front-end state; a
    program thawed from the serve registry has ``program=None`` and
    empty maps there, and :meth:`full` re-derives them from ``source``.
    """

    program: C.Program | None
    options: CompileOptions
    plans: list[KernelPlan] = field(default_factory=list)
    regions_by_stmt: dict[int, ParallelRegion] = field(default_factory=dict)
    plans_by_loop: dict[int, KernelPlan] = field(default_factory=dict)
    scopes: dict[str, Scope] = field(default_factory=dict)
    global_scope: Scope | None = None
    #: Fusion pass results (populated only with ``options.fuse``):
    #: fused groups, per-pair bail reasons, and -- for cross-region
    #: groups -- the ids of member statements the host executor must
    #: skip (their loops run inside the first member's region).
    fusion_groups: list = field(default_factory=list)
    fusion_bails: list = field(default_factory=list)
    fused_stmts: set[int] = field(default_factory=set)
    #: Generated Python module of the host program, one ``host_<name>``
    #: function per C function (:mod:`repro.translator.hostgen`).
    host_source: str = ""
    #: The parallel regions in ordinal order: the generated host code
    #: launches ``rt.regions[k].plans[j]``.
    regions: list[ParallelRegion] = field(default_factory=list, init=False)
    #: Each function's parameters as ``(name, C base type, arraylike)``,
    #: which the host executor binds.
    params: dict[str, tuple[tuple[str, str, bool], ...]] = field(
        default_factory=dict, init=False)
    #: The program's source text and front end (``"c"`` / ``"fortran"``),
    #: from the tree (:attr:`repro.frontend.cast.Program.source`).
    source: str = field(default="", init=False)
    frontend: str = field(default="", init=False)
    _full: "CompiledProgram | None" = field(default=None, init=False,
                                            repr=False, compare=False)

    def plan(self, name: str) -> KernelPlan:
        for p in self.plans:
            if p.name == name:
                return p
        raise KeyError(f"no kernel named {name!r}")

    def kernel_names(self) -> list[str]:
        return [p.name for p in self.plans]

    def signature(self, func: str) -> tuple[tuple[str, str, bool], ...]:
        """The parameters of C function ``func``."""
        try:
            return self.params[func]
        except KeyError:
            raise KeyError(f"no function named {func!r}") from None

    def full(self) -> "CompiledProgram":
        """This program with its front-end state.

        A fresh translation is returned as is.  A thawed one re-parses
        and re-translates its stored source once (later calls, from any
        thread, share the result) and refuses a translation whose kernel
        or host text differs from the stored text.  ``explain`` and the
        test oracles call this; no run does.
        """
        if self.program is not None:
            return self
        with _FULL_LOCK:
            if self._full is None:
                self._full = self._retranslate()
        return self._full

    def _retranslate(self) -> "CompiledProgram":
        parse_tree = parse_fortran if self.frontend == "fortran" else parse
        fresh = compile_program(parse_tree(self.source), self.options)

        def texts(c: CompiledProgram):
            return ([p.source for p in c.plans],
                    [[p.source for p in r.plans] for r in c.regions],
                    c.host_source)

        if texts(fresh) != texts(self):
            raise CompileError(
                "re-translating the stored source does not reproduce the "
                "stored kernel and host text")
        return fresh


def canonical_options_key(
        options: CompileOptions | None) -> tuple[tuple[str, Any], ...]:
    """Canonical, name-keyed key of a :class:`CompileOptions`.

    ``None`` and ``CompileOptions()`` mean the same compilation and map
    to the same key.  Every dataclass field participates by
    construction -- a newly added option can never silently share stored
    programs across its settings -- and keys are (field name, value)
    pairs sorted by name, so they are stable across field reordering
    (the serve registry derives its entry names from them).
    """
    opts = options if options is not None else CompileOptions()
    return tuple(sorted(
        (f.name, getattr(opts, f.name))
        for f in dataclasses.fields(CompileOptions)))


def compile_source(source: str,
                   options: CompileOptions | None = None) -> CompiledProgram:
    """Parse and translate an OpenACC C program, every call afresh
    (``repro.compile`` shares programs through the serve registry)."""
    return compile_program(parse(source), options)


def compile_program(program: C.Program,
                    options: CompileOptions | None = None) -> CompiledProgram:
    """Translate an already-parsed program (any frontend: C or Fortran)."""
    options = options or CompileOptions()
    compiled = CompiledProgram(program=program, options=options)
    compiled.source, compiled.frontend = program.source, program.frontend
    compiled.global_scope = build_global_scope(program)
    for func in program.functions:
        scope = build_function_scope(func, compiled.global_scope)
        compiled.scopes[func.name] = scope
        compiled.params[func.name] = tuple(
            (p.name, p.ctype.base, p.ctype.is_arraylike) for p in func.params)
        _compile_function(func, scope, compiled, options)
    # The host program is emitted last: fusion has settled which region
    # each statement launches and which member statements disappear.
    from .hostgen import emit_host_program
    compiled.regions = list(compiled.regions_by_stmt.values())
    compiled.host_source = emit_host_program(compiled)
    return compiled


# ---------------------------------------------------------------------------
# Per-function compilation
# ---------------------------------------------------------------------------


def _compile_function(func: C.FunctionDef, scope: Scope,
                      compiled: CompiledProgram, options: CompileOptions) -> None:
    counter = 0
    func_plans: list[KernelPlan] = []
    for stmt in _walk_outside_regions(func.body, compiled):
        par = next((d for d in stmt.directives if isinstance(d, AccParallel)), None)
        if par is None:
            continue
        region = ParallelRegion(stmt=stmt, directive=par)
        loops = _collect_region_loops(stmt, par)
        if not loops:
            raise CompileError(
                f"{par.construct} region contains no parallel loop",
                par.line)
        for loop_stmt, loop_dir in loops:
            name = f"{func.name}_L{counter}"
            counter += 1
            plan = _compile_loop(name, loop_stmt, loop_dir, stmt, func,
                                 scope, options)
            region.plans.append(plan)
            compiled.plans.append(plan)
            func_plans.append(plan)
            compiled.plans_by_loop[id(loop_stmt)] = plan
        compiled.regions_by_stmt[id(stmt)] = region
    # Cross-loop window harmonization: widen inferred windows of the
    # same array to one envelope across the function's loops so the
    # loader's reload-skip + halo-exchange fast path fires exactly as it
    # does for hand-aligned annotations.  Windows are evaluated at load
    # time, never baked into kernel code, so adjusting them after
    # vectorization is safe (write handling is re-validated inside).
    if options.infer and len(func_plans) > 1:
        harmonize_windows([(p.config, p.analysis) for p in func_plans])
    # Kernel fusion runs after harmonization so merged configs carry the
    # final (envelope) windows.  A fused plan replaces its members in
    # the region plan lists only; ``compiled.plans`` keeps the member
    # plans, so per-loop reports and lookups are unchanged.
    if options.fuse and len(func_plans) > 1:
        from .fusion import fuse_function
        fuse_function(func, func_plans, scope, compiled)


def _walk_outside_regions(body: C.Stmt, compiled: CompiledProgram):
    """Source-order walk that does not descend into parallel regions.

    Source order matters: kernels are numbered in the order a reader
    sees them (``f_L0`` is the first loop of function ``f``).
    """
    stack = [body]
    while stack:
        s = stack.pop()
        yield s
        if any(isinstance(d, AccParallel) for d in s.directives):
            continue
        stack.extend(reversed(list(C.child_stmts(s))))


def _collect_region_loops(stmt: C.Stmt,
                          par: AccParallel) -> list[tuple[C.For, AccLoop]]:
    """The parallel loops of a region, in source order."""
    if par.fused_loop is not None:
        if not isinstance(stmt, C.For):
            raise CompileError(
                "'parallel loop' must annotate a for statement", par.line)
        return [(stmt, par.fused_loop)]
    loops: list[tuple[C.For, AccLoop]] = []

    def rec(s: C.Stmt) -> None:
        loop_dir = next((d for d in s.directives if isinstance(d, AccLoop)), None)
        if isinstance(s, C.For) and loop_dir is not None:
            loops.append((s, loop_dir))
            return  # do not search for nested parallel loops
        for c in C.child_stmts(s):
            rec(c)

    rec(stmt)
    return loops


# ---------------------------------------------------------------------------
# Per-loop compilation
# ---------------------------------------------------------------------------


def _compile_loop(name: str, loop_stmt: C.For, loop_dir: AccLoop,
                  region_stmt: C.Stmt, func: C.FunctionDef, scope: Scope,
                  options: CompileOptions) -> KernelPlan:
    try:
        nest = normalize_loop(loop_stmt, loop_dir)
    except AnalysisError as exc:
        raise CompileError(str(exc), loop_stmt.line) from exc

    array_names = {s.name for s in _all_symbols(scope) if s.is_array}
    scalar_names = {s.name for s in _all_symbols(scope) if not s.is_array}
    try:
        analysis = analyze_loop(nest, array_names, scalar_names)
    except AnalysisError as exc:
        raise CompileError(str(exc), loop_stmt.line) from exc

    localaccess = _gather_localaccess(loop_stmt, region_stmt)
    config = _build_loop_config(name, nest.var, analysis, localaccess,
                                scope, options)

    scalar_types = {
        s.name: s.ctype.base for s in _all_symbols(scope) if not s.is_array
    }
    local_types = {}
    for st in C.walk(nest.body):
        if isinstance(st, C.Decl):
            local_types[st.name] = st.ctype.base
    for pname in loop_dir.private:
        sym = scope.lookup(pname)
        if sym is None or sym.is_array:
            raise CompileError(
                f"private({pname}) must name a scalar variable",
                loop_dir.line)
        local_types[pname] = sym.ctype.base

    block_dim = max_gangs = None
    par_dir = next((d for d in region_stmt.directives
                    if isinstance(d, AccParallel)), None)
    if par_dir is not None:
        if par_dir.vector_length is not None:
            block_dim = const_value(par_dir.vector_length)
            if block_dim is None or not (1 <= block_dim <= 1024):
                raise CompileError(
                    "vector_length must be a constant in [1, 1024]",
                    par_dir.line)
        if par_dir.num_gangs is not None:
            max_gangs = const_value(par_dir.num_gangs)
            if max_gangs is None or max_gangs < 1:
                raise CompileError(
                    "num_gangs must be a positive constant", par_dir.line)
    # Priced first, from the C statements alone, then lowered: a loop
    # either becomes a kernel or is rejected here, at its line.
    cost = CostCollector()
    try:
        labels = price_body(analysis, config, scalar_types, local_types,
                            cost)
        info = vectorize_loop(name, analysis, config, scalar_types,
                              local_types, labels)
    except (PriceError, VectorizeError) as exc:
        raise CompileError(str(exc), loop_stmt.line) from exc
    return KernelPlan(
        name=name,
        config=config,
        loop_var=nest.var,
        lower=nest.lower,
        upper=nest.upper,
        scalar_names=list(analysis.host_scalars),
        cost=KernelCostInfo(buckets=cost.buckets),
        analysis=analysis,
        source_info=info,
        fn=compile_kernel_source(info),
        loop_directive=loop_dir,
        block_dim=block_dim,
        max_gangs=max_gangs,
    )


def _all_symbols(scope: Scope):
    s: Scope | None = scope
    while s is not None:
        yield from s
        s = s.parent


def _gather_localaccess(loop_stmt: C.Stmt,
                        region_stmt: C.Stmt) -> dict[str, LocalAccessSpec]:
    entries: dict[str, LocalAccessSpec] = {}
    sources = [region_stmt, loop_stmt] if region_stmt is not loop_stmt \
        else [loop_stmt]
    for s in sources:
        for d in s.directives:
            if isinstance(d, AccLocalAccess):
                for n, spec in d.entries.items():
                    if n in entries:
                        raise CompileError(
                            f"duplicate localaccess for array {n!r}", d.line)
                    entries[n] = spec
    return entries


def _build_loop_config(name: str, loop_var: str, analysis: LoopAnalysis,
                       localaccess: dict[str, LocalAccessSpec], scope: Scope,
                       options: CompileOptions) -> LoopConfig:
    config = LoopConfig(kernel_name=name, loop_var=loop_var,
                        scalar_reductions=list(analysis.scalar_reductions))
    reduction_dirs = {d.array: d for d in analysis.array_reductions}
    for arr_name, usage in analysis.arrays.items():
        sym = scope.lookup(arr_name)
        if sym is None:
            raise CompileError(f"undeclared array {arr_name!r} in loop {name}")
        cfg = ArrayConfig(
            name=arr_name,
            ctype=sym.ctype.base,
            read=usage.is_read,
            written=usage.is_written,
            writes_affine=usage.writes_affine,
        )
        spec = localaccess.get(arr_name)
        if spec is not None:
            if spec.kind == "all":
                # 'all' declares the whole array as the read window: the
                # loader keeps replica placement, but the array still counts
                # as localaccess-annotated (Table II column D) and is
                # eligible for the read-only optimizations.
                cfg.placement = Placement.REPLICA
                cfg.window = ReadWindow(
                    lower=C.IntLit(0),
                    upper=C.BinOp("-", _array_len_expr(sym), C.IntLit(1)),
                    spec=spec,
                )
            else:
                cfg.placement = Placement.DISTRIBUTED
                cfg.window = window_from_spec(spec, loop_var)
        elif options.infer:
            # Automatic localaccess inference: synthesize a window from
            # the affine access facts for arrays the programmer did not
            # annotate.  Explicit directives always win (checked above);
            # a bail keeps replica placement and records the reason for
            # repro.explain.
            decision = infer_array_window(
                usage, loop_var,
                is_reduction_target=arr_name in reduction_dirs,
                elide_write_checks=options.elide_write_checks)
            if decision.adopted:
                cfg.placement = Placement.DISTRIBUTED
                cfg.window = decision.window
                cfg.inferred_span = decision.span
            else:
                cfg.infer_reason = decision.reason
        else:
            cfg.infer_reason = "inference disabled (infer=False)"
        # Write handling.
        if arr_name in reduction_dirs:
            cfg.write_handling = WriteHandling.REDUCTION
            cfg.reduction_op = reduction_dirs[arr_name].op
        elif usage.is_written:
            if cfg.placement == Placement.REPLICA:
                cfg.write_handling = WriteHandling.DIRTY_BITS
            else:
                proven = options.elide_write_checks and _writes_proven_local(
                    usage, cfg.window, loop_var)
                cfg.write_handling = (WriteHandling.LOCAL_PROVEN if proven
                                      else WriteHandling.MISS_CHECK)
        # Layout-transformation hint (IV-B4): read-only + a window
        # (declared or inferred) + no data-dependent subscripts
        # (symbolic affine strides qualify).  Inferred windows qualify
        # by construction: adoption requires affine, non-data-dependent
        # subscripts.
        if (options.layout_transform and cfg.read_only
                and cfg.window is not None
                and not any(a.data_dependent for a in usage.accesses)):
            cfg.coalesced_hint = True
        # Derived window for the adaptive placement advisor: a replica
        # array whose every access (read and write) is affine in the
        # loop variable with one shared positive coefficient and
        # constant offsets is safely distributable at run time -- the
        # per-iteration footprint is exactly [coeff*i+lo, coeff*i+hi].
        if (cfg.placement == Placement.REPLICA
                and cfg.write_handling == WriteHandling.DIRTY_BITS
                and spec is None):
            span = _affine_access_span(usage, loop_var)
            if span is not None:
                coeff, lo_c, hi_c = span
                i = C.Ident(loop_var)
                scaled = C.BinOp("*", C.IntLit(coeff), i)
                cfg.inferred_window = ReadWindow(
                    lower=C.BinOp("+", scaled, C.IntLit(lo_c)),
                    upper=C.BinOp("+", scaled, C.IntLit(hi_c)),
                )
                cfg.inferred_span = span
        config.arrays[arr_name] = cfg
    # Unknown localaccess targets are programmer errors worth reporting.
    for n in localaccess:
        if n not in config.arrays:
            raise CompileError(
                f"localaccess names array {n!r} which the loop never touches")
    return config


def _array_len_expr(sym) -> C.Expr:
    if sym.ctype.array_dims and sym.ctype.array_dims[0] is not None:
        return sym.ctype.array_dims[0]
    # Pointer parameter: length unknown statically; the loader clamps the
    # window to the actual host array at run time, so any large bound works.
    return C.IntLit(1 << 62)


def _affine_access_span(usage, loop_var: str) -> tuple[int, int, int] | None:
    """Tight affine access envelope of one array in one parallel loop.

    Returns ``(coeff, lo, hi)`` such that every access of iteration
    ``i`` -- reads and writes alike -- touches only
    ``[coeff*i + lo, coeff*i + hi]``, or ``None`` when any access is
    non-affine, offsets are not compile-time constants, or the
    coefficients disagree.  ``coeff >= 1`` guarantees the window is
    monotone in the loop variable, which the runtime partitioner
    requires.
    """
    coeff: int | None = None
    lo: int | None = None
    hi: int | None = None
    for acc in usage.accesses:
        if acc.affine is None or acc.data_dependent:
            return None
        if acc.affine.coeff < 1:
            return None
        if coeff is None:
            coeff = acc.affine.coeff
        elif acc.affine.coeff != coeff:
            return None
        b = const_value(acc.affine.offset)
        if b is None:
            return None
        lo = b if lo is None else min(lo, b)
        hi = b if hi is None else max(hi, b)
    if coeff is None or lo is None or hi is None:
        return None
    return coeff, lo, hi


def _writes_proven_local(usage, window: ReadWindow | None,
                         loop_var: str) -> bool:
    """The paper's static check elision (section IV-D2).

    A write is provably inside the declared window when both window
    bounds and the write index are affine in the loop variable with the
    *same* coefficient and constant offsets satisfying
    ``lower_offset <= write_offset <= upper_offset`` -- then the
    containment holds for every iteration.  This covers the C stride
    form and the Fortran frontend's re-based bounds form alike; windows
    whose bounds read arrays (the CSR indirect form) are never
    statically provable.
    """
    if window is None:
        return False
    lo_aff = affine_in(window.lower, loop_var)
    hi_aff = affine_in(window.upper, loop_var)
    if lo_aff is None or hi_aff is None:
        return False
    lo_c = const_value(lo_aff.offset)
    hi_c = const_value(hi_aff.offset)
    if lo_c is None or hi_c is None:
        return False
    for acc in usage.write_accesses():
        if acc.affine is None:
            return False
        if acc.affine.coeff != lo_aff.coeff or \
                acc.affine.coeff != hi_aff.coeff:
            return False
        b = const_value(acc.affine.offset)
        if b is None:
            return False
        if not (lo_c <= b <= hi_c):
            return False
    return True
