"""Kernel fusion + inter-GPU communication elision (compiler pass).

ROADMAP item 3 and the paper's Fig. 8 motivate this pass: as GPU count
grows, the communication rounds *between* adjacent parallel loops --
replica dirty broadcasts, halo refreshes, and the CPU-GPU load/
writeback traffic of short-lived intermediate arrays -- come to
dominate.  When two adjacent ``parallel loop`` constructs iterate the
same space, the runtime can launch them as one kernel and run the
inter-loop communication round once instead of once per loop.

Enabled with ``CompileOptions(fuse=True)``.  The pass is structured as:

1. **Site discovery** -- maximal runs of adjacent parallel loops: the
   loops of one multi-loop region, or consecutive region statements in
   the same compound with nothing (no host statement, no data clause,
   no ``update`` directive) between them.

2. **Legality** (:func:`check_member`) -- greedy extension of a group,
   one candidate loop at a time, on top of the affine access facts from
   :mod:`repro.frontend.analysis` / :mod:`repro.translator.infer`.  A
   candidate joins only when its iteration space matches the group's
   and every dependence through a device array is provably intra-GPU:

   * *flow* (group writes A, candidate reads A): all accesses affine in
     the loop variable with one shared coefficient ``w``; every read
     offset ``c`` against every write offset ``b`` must satisfy
     ``c == b`` (the read hits exactly the iteration's own write --
     same GPU under any block split) or ``(c - b) % w != 0`` (the read
     can never alias a written element).  Anything else could read a
     peer GPU's not-yet-propagated write and bails.
   * *output* on replica-placed arrays (both write A): same rule --
     off-residue or same-iteration writes keep the merged dirty
     broadcast equal to the sequence of per-loop broadcasts.  On
     distributed arrays every surviving write is ``LOCAL_PROVEN``
     (miss-checked loops bail), so distinct offsets cannot alias across
     GPUs and output dependences are always safe.
   * *anti* (group reads A, candidate writes A): always safe across
     GPUs -- member bodies run in program order per GPU and writes
     propagate after the whole group, exactly as the unfused schedule
     ordered them.  Within a GPU they run in program order per *strip*
     (``KernelPlan.execute``), and strips share memory: a later
     member's write in one strip lands before an earlier member's
     access in the next.  :func:`strips_reorder` keeps such a plan
     whole (one strip a launch); a distributed output dependence at
     different offsets is the same hazard.

   Reductions, write-miss-checked arrays, placement or window
   mismatches, geometry clauses that differ, and host statements or
   ``update`` directives between loops all bail with a recorded
   reason (surfaced by ``repro.explain``).

3. **Demotion** (:func:`find_demotions`) -- an intermediate array whose
   whole liveness is confined to the group (function-local, no host
   reference outside its declaration, touched by no loop outside the
   group, every read covered by an unconditional same-offset write of
   an earlier member) never needs to exist on the host or in the data
   loader at all: it becomes a kernel-local scratch buffer sized to the
   GPU's slice.  Its H2D load, D2H writeback and any coherence traffic
   disappear entirely.

4. **Fused codegen** -- one kernel whose body is the members' vectorized
   bodies concatenated under a shared header (the union of array/scalar
   bindings, scratch allocation for demoted arrays).  Each member is
   priced again by :func:`repro.translator.cost.price_body` into a
   *shared* cost collector (under its fused-codegen config, labels
   numbered on from the previous member's), so the fused static cost is
   charged once per launch, and lowered again by
   :func:`repro.translator.spanlower.lower_body` with offset temporary
   counters.

The fused :class:`~repro.translator.compiler.KernelPlan` satisfies the
runtime's ``KernelPlanLike`` protocol, so ``AccExecutor.run_loop`` is
unchanged: one ``ensure_for_loop`` with the merged configs, one launch
per GPU, one ``comm.after_kernels`` round.  ``fuse=False`` (or any
bail) leaves the compiled program untouched -- the unfused schedule is
reproduced bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..frontend import cast as C
from ..frontend.analysis import AffineForm, affine_in, const_value
from ..frontend.cast import render_expr
from ..frontend.directives import AccData, AccParallel, AccUpdate
from .array_config import ArrayConfig, LoopConfig, Placement, WriteHandling
from .cost import CostCollector, KernelCostInfo, price_body
from .infer import window_from_span
from .spanlower import binding_lines, kernel_source, lower_body
from .vectorizer import (
    _DTYPES,
    KernelSourceInfo,
    VectorizeError,
    compile_kernel_source,
)

if TYPE_CHECKING:
    from .compiler import CompiledProgram, KernelPlan

# ---------------------------------------------------------------------------
# Pass results (surfaced through CompiledProgram / repro.explain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionBail:
    """Why one adjacent loop pair did not fuse."""

    first: str
    second: str
    reason: str


@dataclass(frozen=True)
class DemotedArray:
    """An intermediate demoted to a kernel-local scratch buffer.

    Every access of iteration ``i`` lands in
    ``[coeff*i + lo, coeff*i + hi]``, so a launch covering iterations
    ``[i0, i1)`` needs ``coeff*(i1-i0-1) + hi - lo + 1`` elements based
    at global index ``coeff*i0 + lo``.
    """

    name: str
    ctype: str
    coeff: int
    lo: int
    hi: int


@dataclass
class FusionGroup:
    """One fused run of adjacent parallel loops."""

    name: str
    members: tuple[str, ...]
    fused: "KernelPlan"
    demoted: tuple[DemotedArray, ...]
    #: Per-array elision note: which inter-member communication round
    #: the fusion removed (``array -> description``).
    elided: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Access shape extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Offsets:
    """Affine access shape of one (plan, array) pair.

    ``reads``/``writes`` hold offsets as ``("const", int)`` or
    ``("sym", rendered-text)`` keys; symbolic offsets compare
    structurally (host scalars cannot change between fused members --
    host statements between loops bail).
    """

    coeff: int | None  # shared coefficient, None when irregular/mixed
    reads: frozenset
    writes: frozenset
    irregular: bool


def _offset_key(aff: AffineForm):
    off = const_value(aff.offset)
    if off is not None:
        return ("const", int(off))
    return ("sym", render_expr(aff.offset))


def _access_shape(plan: "KernelPlan", name: str) -> _Offsets:
    usage = plan.analysis.arrays.get(name)
    if usage is None:
        return _Offsets(None, frozenset(), frozenset(), False)
    coeff: int | None = None
    reads, writes = set(), set()
    irregular = False
    for acc in usage.accesses:
        if acc.affine is None or acc.data_dependent:
            irregular = True
            continue
        if coeff is None:
            coeff = acc.affine.coeff
        elif coeff != acc.affine.coeff:
            irregular = True
            continue
        key = _offset_key(acc.affine)
        if acc.is_read:
            reads.add(key)
        if acc.is_write:
            writes.add(key)
    return _Offsets(coeff, frozenset(reads), frozenset(writes), irregular)


def _offsets_disjoint(b, c, coeff: int) -> bool | None:
    """True: never alias.  False: same iteration.  None: cross-iteration.

    Identical offsets touch the same element only within one iteration
    (legal: same GPU).  Constant offsets in different residue classes
    mod ``coeff`` can never touch the same element (legal: no
    dependence).  Congruent-but-different offsets alias *across*
    iterations -- iteration ``i`` touches what iteration
    ``i + (b-c)/coeff`` touched -- which may cross a GPU boundary, so
    the caller must bail.
    """
    if b == c:
        return False
    if b[0] == "const" and c[0] == "const" and \
            (c[1] - b[1]) % coeff != 0:
        return True
    return None


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


def _window_key(cfg: ArrayConfig, loop_var: str):
    """Loop-var-independent identity of a placement window."""
    if cfg.window is None:
        return None

    def bound(e: C.Expr):
        aff = affine_in(e, loop_var)
        if aff is not None:
            return (aff.coeff, render_expr(aff.offset))
        return render_expr(e)

    return (bound(cfg.window.lower), bound(cfg.window.upper))


def solo_bail(plan: "KernelPlan") -> str | None:
    """Why a plan cannot participate in *any* group, or None.

    Checked for the group seed as well as for every candidate, so a
    reduction loop can neither start nor join a group.
    """
    if getattr(plan, "fusion_members", None) is not None:
        return "already fused"
    if plan.analysis.scalar_reductions:
        return "scalar reduction"
    for cfg in plan.config.arrays.values():
        if cfg.write_handling == WriteHandling.REDUCTION:
            return f"array reduction target {cfg.name!r}"
        if cfg.write_handling == WriteHandling.MISS_CHECK:
            return f"write-miss checked array {cfg.name!r}"
    return None


def check_member(members: list["KernelPlan"],
                 cand: "KernelPlan") -> str | None:
    """Why ``cand`` cannot join the group, or None when it can."""
    first = members[0]
    reason = solo_bail(cand)
    if reason is not None:
        return reason
    if render_expr(cand.lower) != render_expr(first.lower) or \
            render_expr(cand.upper) != render_expr(first.upper):
        return "iteration spaces differ"
    if cand.loop_var != first.loop_var:
        return "loop variable names differ"
    if cand.block_dim != first.block_dim or cand.max_gangs != first.max_gangs:
        return "launch geometry clauses differ"
    for m in members:
        reason = _check_pair(m, cand)
        if reason is not None:
            return reason
    return None


def _check_pair(m: "KernelPlan", cand: "KernelPlan") -> str | None:
    shared = set(m.config.arrays) & set(cand.config.arrays)
    for name in sorted(shared):
        a, b = m.config.arrays[name], cand.config.arrays[name]
        if a.placement != b.placement:
            return f"placement-incompatible array {name!r}"
        if _window_key(a, m.loop_var) != _window_key(b, cand.loop_var):
            return f"window mismatch on {name!r}"
        if a.written and b.written and a.write_handling != b.write_handling:
            return f"write handling mismatch on {name!r}"
        reason = dependence_bail(m, cand, name)
        if reason is not None:
            return reason
    return None


def dependence_bail(m: "KernelPlan", cand: "KernelPlan",
                    name: str) -> str | None:
    """Why a flow or output dependence on the shared array ``name``
    keeps ``cand`` from running fused after ``m``, or None."""
    a, b = m.config.arrays[name], cand.config.arrays[name]
    if not (a.written and (b.read or b.written)):
        return None  # no flow/output dependence; anti deps always safe
    sm = _access_shape(m, name)
    sc = _access_shape(cand, name)
    if sm.irregular or sc.irregular:
        return f"irregular access to {name!r} across members"
    if sm.coeff is None or sc.coeff is None or sm.coeff != sc.coeff:
        return f"mixed strides on {name!r} across members"
    w = sm.coeff
    if w <= 0:
        return f"non-positive stride on {name!r}"
    for bw in sorted(sm.writes):
        for rd in sorted(sc.reads):
            if _offsets_disjoint(bw, rd, w) is None:
                return f"cross-iteration flow on {name!r}"
        if a.placement == Placement.REPLICA:
            for cw in sorted(sc.writes):
                if _offsets_disjoint(bw, cw, w) is None:
                    return f"replica write-write conflict on {name!r}"
    return None


def strips_reorder(members: list["KernelPlan"]) -> bool:
    """Whether cutting a launch of the fused members into strips would
    reorder their accesses: true when an earlier member touches an
    array that a later member writes other than at the same iteration's
    element, or irregularly.  Accesses that can never alias (another
    residue class) keep the cut invisible."""
    for j, later in enumerate(members):
        for name, cfg in later.config.arrays.items():
            if not cfg.written:
                continue
            sw = _access_shape(later, name)
            for earlier in members[:j]:
                se = _access_shape(earlier, name)
                touched = se.reads | se.writes
                if not (touched or se.irregular):
                    continue
                if sw.irregular or se.irregular or sw.coeff is None or \
                        sw.coeff != se.coeff or sw.coeff <= 0:
                    return True
                if any(_offsets_disjoint(b, c, sw.coeff) is None
                       for b in sw.writes for c in touched):
                    return True
    return False


# ---------------------------------------------------------------------------
# Demotion analysis
# ---------------------------------------------------------------------------


def _top_level_plain_writes(plan: "KernelPlan", name: str) -> bool:
    """True when every write to ``name`` in the member is a top-level,
    unconditional, plain (``=``) store -- i.e. every iteration writes
    each of the member's write offsets exactly as the analysis says."""
    body = plan.analysis.nest.body
    top: list[C.Stmt] = body.body if isinstance(body, C.Compound) else [body]
    top_writes = []
    for st in top:
        if isinstance(st, C.ExprStmt) and isinstance(st.expr, C.Assign):
            a = st.expr
            if isinstance(a.target, C.Index) and \
                    a.target.base_name() == name and not a.op:
                top_writes.append(a)
    covered = {id(a) for a in top_writes}
    for st in C.walk(body):
        for v in vars(st).values():
            for a in _walk_assigns(v):
                if isinstance(a.target, C.Index) and \
                        a.target.base_name() == name:
                    if id(a) not in covered or a.op:
                        return False
    return bool(top_writes)


def _walk_assigns(v):
    if isinstance(v, C.Assign):
        yield v
        yield from _walk_assigns(v.value)
    elif isinstance(v, C.Expr):
        for f in vars(v).values():
            yield from _walk_assigns(f)
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _walk_assigns(x)


def find_demotions(members: list["KernelPlan"], func: C.FunctionDef,
                   func_plans: list["KernelPlan"],
                   member_stmts: set[int]) -> list[DemotedArray]:
    """Arrays whose liveness is confined to the group."""
    member_names = {m.name for m in members}
    params = {p.name for p in func.params}
    out: list[DemotedArray] = []
    union = set()
    for m in members:
        union |= set(m.config.arrays)
    for name in sorted(union):
        if name in params:
            continue
        if any(name in p.config.arrays for p in func_plans
               if p.name not in member_names):
            continue
        decl = _local_decl(func, name)
        if decl is None:
            continue
        if _host_references(func, name, member_stmts, decl):
            continue
        shape = _demotable_shape(members, name)
        if shape is None:
            continue
        ctype = next(m.config.arrays[name].ctype for m in members
                     if name in m.config.arrays)
        if ctype not in _DTYPES:
            continue
        coeff, lo, hi = shape
        out.append(DemotedArray(name=name, ctype=ctype,
                                coeff=coeff, lo=lo, hi=hi))
    return out


def _local_decl(func: C.FunctionDef, name: str) -> C.Decl | None:
    for st in C.walk(func.body):
        if isinstance(st, C.Decl) and st.name == name and \
                st.ctype.is_arraylike:
            return st
    return None


def _host_references(func: C.FunctionDef, name: str,
                     member_stmts: set[int], decl: C.Decl) -> bool:
    """Does host code outside the group mention the array?"""
    stack = [func.body]
    while stack:
        s = stack.pop()
        if id(s) in member_stmts:
            continue
        if isinstance(s, C.Compound):
            stack.extend(s.body)
            continue
        if s is decl:
            continue  # its own declaration is fine
        if any(isinstance(d, AccParallel) for d in s.directives):
            # A non-member region: its plans were checked separately.
            if name in _directive_names(s):
                return True
            continue
        if name in _stmt_names_shallow(s) or name in _directive_names(s):
            return True
        stack.extend(C.child_stmts(s))
    return False


def _stmt_names_shallow(s: C.Stmt) -> set[str]:
    """Identifiers in the statement's own expressions (not child stmts),
    including the extent expressions of array declarations."""
    names: set[str] = set()
    exprs = list(C.stmt_exprs(s))
    if isinstance(s, C.Decl) and s.ctype.is_arraylike:
        exprs.extend(d for d in s.ctype.array_dims if d is not None)
    for e in exprs:
        for x in C.walk_expr(e):
            if isinstance(x, C.Ident):
                names.add(x.name)
    return names


def _directive_names(s: C.Stmt) -> set[str]:
    names: set[str] = set()
    for d in s.directives:
        for sec in (getattr(d, "host", None) or []):
            names.add(sec.name)
        for sec in (getattr(d, "device", None) or []):
            names.add(sec.name)
        for cl in (getattr(d, "clauses", None) or []):
            for sec in cl.sections:
                names.add(sec.name)
    return names


def _demotable_shape(members: list["KernelPlan"],
                     name: str) -> tuple[int, int, int] | None:
    """(coeff, lo, hi) when the group's accesses allow demotion."""
    coeff: int | None = None
    offsets: list[int] = []
    written_before: set = set()
    for m in members:
        if name not in m.config.arrays:
            continue
        shape = _access_shape(m, name)
        if shape.irregular or shape.coeff is None:
            return None
        if coeff is None:
            coeff = shape.coeff
        elif coeff != shape.coeff:
            return None
        for kind, off in sorted(shape.reads):
            if kind != "const":
                return None
            if ("const", off) not in written_before:
                return None  # read not covered by an earlier member's write
            offsets.append(off)
        if shape.writes:
            if not _top_level_plain_writes(m, name):
                return None
            for kind, off in sorted(shape.writes):
                if kind != "const":
                    return None
                offsets.append(off)
            written_before |= shape.writes
    if coeff is None or coeff <= 0 or not offsets:
        return None
    return coeff, min(offsets), max(offsets)


# ---------------------------------------------------------------------------
# Fused plan construction
# ---------------------------------------------------------------------------


def _subst_var(e: C.Expr, old: str, new: str) -> C.Expr:
    if isinstance(e, C.Ident):
        return C.Ident(new, ty=e.ty) if e.name == old else e
    if not isinstance(e, C.Expr):
        return e
    kwargs = {}
    changed = False
    for k, v in vars(e).items():
        if isinstance(v, C.Expr):
            nv = _subst_var(v, old, new)
            changed |= nv is not v
            kwargs[k] = nv
        elif isinstance(v, list):
            nl = [_subst_var(x, old, new) if isinstance(x, C.Expr) else x
                  for x in v]
            changed |= any(a is not b for a, b in zip(nl, v))
            kwargs[k] = nl
        else:
            kwargs[k] = v
    return type(e)(**kwargs) if changed else e


def _merged_config(name: str, members: list["KernelPlan"],
                   demoted_names: set[str]) -> LoopConfig:
    first = members[0]
    merged = LoopConfig(kernel_name=name, loop_var=first.loop_var,
                        scalar_reductions=[])
    for m in members:
        for aname, cfg in m.config.arrays.items():
            if aname in demoted_names:
                continue
            cur = merged.arrays.get(aname)
            if cur is None:
                cur = replace(cfg)
                if cfg.window is not None and m.loop_var != first.loop_var:
                    cur.window = replace(
                        cfg.window,
                        lower=_subst_var(cfg.window.lower, m.loop_var,
                                         first.loop_var),
                        upper=_subst_var(cfg.window.upper, m.loop_var,
                                         first.loop_var))
                merged.arrays[aname] = cur
                continue
            cur.read = cur.read or cfg.read
            if cfg.written and not cur.written:
                cur.written = True
                cur.write_handling = cfg.write_handling
                cur.writes_affine = cfg.writes_affine
            elif cfg.written:
                cur.writes_affine = cur.writes_affine and cfg.writes_affine
    return merged


def _member_codegen_config(m: "KernelPlan", demoted: list[DemotedArray],
                           group_written: set[str]) -> LoopConfig:
    """Member config adjusted for fused codegen.

    Demoted arrays become plain local distributed buffers (no
    dirty/miss instrumentation -- the scratch exists only inside the
    kernel).  Arrays written by *any* member are flagged ``written``
    so this member's span loads copy instead of returning views: a
    view captured by one member must not observe a later member's
    in-place store to the same buffer.
    """
    by_name = {d.name: d for d in demoted}
    cfg = LoopConfig(kernel_name=m.config.kernel_name,
                     loop_var=m.config.loop_var, scalar_reductions=[])
    for aname, a in m.config.arrays.items():
        d = by_name.get(aname)
        if d is not None:
            cfg.arrays[aname] = replace(
                a,
                placement=Placement.DISTRIBUTED,
                written=True,
                write_handling=WriteHandling.LOCAL_PROVEN,
                window=window_from_span((d.coeff, d.lo, d.hi), m.loop_var),
                inferred_window=None, inferred_span=None, infer_reason=None)
        elif aname in group_written and not a.written:
            cfg.arrays[aname] = replace(a, written=True)
        else:
            cfg.arrays[aname] = a
    return cfg


def _private_names(m: "KernelPlan") -> list[str]:
    if m.loop_directive is None:
        return []
    return list(m.loop_directive.private)


def build_fused_plan(name: str, members: list["KernelPlan"],
                     demoted: list[DemotedArray]) -> "KernelPlan":
    """Assemble the fused KernelPlan."""
    from .compiler import KernelPlan

    first = members[0]
    demoted_names = {d.name for d in demoted}
    group_written = {aname for m in members
                     for aname, cfg in m.config.arrays.items() if cfg.written}
    merged = _merged_config(name, members, demoted_names)
    scalar_names = sorted({n for m in members for n in m.scalar_names})

    # Locals and privates share the ``v_{name}`` namespace with the
    # array bindings.  Scalars shadowed by one member are re-bound
    # below; arrays cannot be recovered mid-kernel, so a clash bails
    # the whole group (surfaced as a "fused codegen failed" reason).
    all_arrays = set(merged.arrays) | demoted_names
    for m in members:
        clash = {st.name for st in C.walk(m.analysis.nest.body)
                 if isinstance(st, C.Decl)} | set(_private_names(m))
        clash &= all_arrays
        if clash:
            raise VectorizeError(
                f"member local shadows fused array binding: {sorted(clash)}")

    # Demoted scratch: zeroed arena slots, numbered below the members'
    # own slots.
    bindings = binding_lines(sorted(merged.arrays), scalar_names)
    prelude: list[str] = []
    for k, d in enumerate(sorted(demoted, key=lambda d: d.name)):
        size = f"{d.coeff} * (_n - 1) + {d.hi - d.lo + 1}"
        bindings.append(
            (f"    _b_{d.name} = {d.coeff} * ctx.i0 + {d.lo}", None))
        prelude += [f"    v_{d.name} = _slot({k}, {size}, {_DTYPES[d.ctype]})",
                    f"    v_{d.name}.fill(0)"]

    shared_cost = CostCollector()
    bodies = []
    tmp_base = 0
    for m in members:
        codegen_cfg = _member_codegen_config(m, demoted, group_written)
        # Labels number on from the previous member's: one bucket each.
        labels = price_body(m.analysis, codegen_cfg, shared_cost,
                            label_base=len(shared_cost.buckets) - 1)
        body = lower_body(m.analysis, codegen_cfg, labels,
                          tmp_base=tmp_base, slot_base=len(demoted))
        bodies.append(body)
        tmp_base = body.tmp_end

    info = KernelSourceInfo(name, kernel_source(bindings, bodies, prelude))
    return KernelPlan(
        name=name,
        config=merged,
        loop_var=first.loop_var,
        lower=first.lower,
        upper=first.upper,
        scalar_names=scalar_names,
        cost=KernelCostInfo(buckets=shared_cost.buckets),
        analysis=first.analysis,
        source_info=info,
        fn=compile_kernel_source(info),
        loop_directive=first.loop_directive,
        block_dim=first.block_dim,
        max_gangs=first.max_gangs,
        fusion_members=tuple(m.name for m in members),
        whole=strips_reorder(members),
    )


def _elision_notes(members: list["KernelPlan"],
                   demoted: list[DemotedArray]) -> dict[str, str]:
    notes: dict[str, str] = {}
    for d in demoted:
        notes[d.name] = ("demoted to kernel-local scratch: host load and "
                         "writeback eliminated")
    writers: dict[str, int] = {}
    handling: dict[str, WriteHandling] = {}
    for m in members:
        for aname, cfg in m.config.arrays.items():
            if cfg.written and aname not in notes:
                writers[aname] = writers.get(aname, 0) + 1
                handling[aname] = cfg.write_handling
    for aname, k in writers.items():
        if k < 2:
            continue
        if handling[aname] == WriteHandling.DIRTY_BITS:
            notes[aname] = (f"replica dirty broadcast merged: "
                            f"{k} rounds -> 1")
        else:
            notes[aname] = f"halo refresh merged: {k} rounds -> 1"
    return notes


# ---------------------------------------------------------------------------
# Site discovery + driver
# ---------------------------------------------------------------------------


def _region_shape_bail(stmt: C.Stmt, region) -> str | None:
    """Cross-region fusion needs a bare construct: no data clauses on
    the directive, no ``data`` region on the statement."""
    if any(isinstance(d, AccData) for d in stmt.directives):
        return "data region on member statement"
    if region.directive.clauses:
        return "data clauses on member construct"
    return None


def _has_update(stmt: C.Stmt) -> bool:
    return any(isinstance(d, AccUpdate) for d in stmt.directives)


def fuse_function(func: C.FunctionDef, func_plans: list["KernelPlan"],
                  compiled: "CompiledProgram") -> None:
    """Run the fusion pass over one function (mutates ``compiled``)."""
    counter = len(compiled.fusion_groups)

    # Within-region runs: all loops of one multi-loop construct.
    for region in _regions_in_order(func, compiled):
        if len(region.plans) > 1:
            counter = _fuse_within_region(region, func, func_plans,
                                          compiled, counter)

    # Cross-region runs: adjacent single-loop region statements.
    for run in _adjacent_region_runs(func, compiled):
        counter = _fuse_run(run, func, func_plans, compiled,
                            counter)


def _regions_in_order(func: C.FunctionDef, compiled: "CompiledProgram"):
    out = []
    stack = [func.body]
    while stack:
        s = stack.pop()
        region = compiled.regions_by_stmt.get(id(s))
        if region is not None:
            out.append(region)
            continue
        stack.extend(reversed(list(C.child_stmts(s))))
    return out


def _adjacent_region_runs(func: C.FunctionDef, compiled: "CompiledProgram"):
    """Maximal runs of >= 2 adjacent single-loop region statements."""
    runs: list[list[tuple[C.Stmt, Any]]] = []
    stack = [func.body]
    while stack:
        s = stack.pop()
        if any(isinstance(d, AccParallel) for d in s.directives):
            continue
        if isinstance(s, C.Compound):
            cur: list[tuple[C.Stmt, Any]] = []
            for st in s.body:
                region = compiled.regions_by_stmt.get(id(st))
                if region is not None and len(region.plans) == 1 and \
                        getattr(region.plans[0], "fusion_members",
                                None) is None:
                    cur.append((st, region))
                else:
                    if len(cur) >= 2:
                        runs.append(cur)
                    cur = []
            if len(cur) >= 2:
                runs.append(cur)
        stack.extend(reversed(list(C.child_stmts(s))))
    return runs


def _fuse_within_region(region, func, func_plans, compiled,
                        counter: int) -> int:
    i = 0
    while i < len(region.plans) - 1:
        seed = region.plans[i]
        reason0 = solo_bail(seed)
        if reason0 is not None:
            compiled.fusion_bails.append(FusionBail(
                first=seed.name, second=region.plans[i + 1].name,
                reason=reason0))
            i += 1
            continue
        members = [seed]
        j = i + 1
        while j < len(region.plans):
            cand = region.plans[j]
            reason = check_member(members, cand)
            if reason is not None:
                compiled.fusion_bails.append(FusionBail(
                    first=members[-1].name, second=cand.name, reason=reason))
                break
            members.append(cand)
            j += 1
        if len(members) >= 2:
            member_stmts: set[int] = set()  # all inside the region stmt
            group = _make_group(members, func, func_plans, compiled,
                                member_stmts, counter)
            if group is not None:
                region.plans[i:j] = [group.fused]
                counter += 1
                i += 1
                continue
        i = j if len(members) >= 2 else i + 1
    return counter


def _fuse_run(run, func, func_plans, compiled,
              counter: int) -> int:
    i = 0
    while i < len(run) - 1:
        first_stmt, first_region = run[i]
        seed = first_region.plans[0]
        reason0 = _region_shape_bail(first_stmt, first_region) \
            or solo_bail(seed)
        if reason0 is not None:
            compiled.fusion_bails.append(FusionBail(
                first=seed.name,
                second=run[i + 1][1].plans[0].name, reason=reason0))
            i += 1
            continue
        members = [seed]
        sites = [(first_stmt, first_region)]
        j = i + 1
        while j < len(run):
            stmt, region = run[j]
            cand = region.plans[0]
            reason = _region_shape_bail(stmt, region)
            if reason is None and _has_update(stmt):
                reason = "update directive between members"
            if reason is None:
                reason = check_member(members, cand)
            if reason is not None:
                compiled.fusion_bails.append(FusionBail(
                    first=members[-1].name, second=cand.name, reason=reason))
                break
            members.append(cand)
            sites.append((stmt, region))
            j += 1
        if len(members) >= 2:
            member_stmts = {id(stmt) for stmt, _ in sites}
            group = _make_group(members, func, func_plans, compiled,
                                member_stmts, counter)
            if group is not None:
                from .compiler import ParallelRegion
                fused_region = ParallelRegion(
                    stmt=first_stmt, directive=first_region.directive,
                    plans=[group.fused])
                compiled.regions_by_stmt[id(first_stmt)] = fused_region
                for stmt, _ in sites[1:]:
                    compiled.fused_stmts.add(id(stmt))
                counter += 1
                i = j
                continue
        i = j if len(members) >= 2 else i + 1
    return counter


def _make_group(members, func, func_plans, compiled, member_stmts,
                counter: int) -> FusionGroup | None:
    demoted = find_demotions(members, func, func_plans, member_stmts)
    name = f"{members[0].name}_f{len(members)}"
    try:
        fused = build_fused_plan(name, members, demoted)
    except VectorizeError as exc:
        compiled.fusion_bails.append(FusionBail(
            first=members[0].name, second=members[-1].name,
            reason=f"fused codegen failed: {exc}"))
        return None
    group = FusionGroup(
        name=name,
        members=tuple(m.name for m in members),
        fused=fused,
        demoted=tuple(demoted),
        elided=_elision_notes(members, demoted),
    )
    compiled.fusion_groups.append(group)
    return group
