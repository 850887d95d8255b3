"""Kernel assembly: one lowered body per parallel loop, bound into
``kernel(ctx)``.

:func:`lower_body` lowers one priced loop body once, with
:class:`~repro.translator.vectorizer.Vectorizer`, and records what the
body needs bound at kernel entry; :func:`kernel_source` assembles the
kernel around one body or -- for a fused group -- several.  Neither can
reach the cost model (:func:`repro.translator.cost.price_body` ran
before them).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.analysis import LoopAnalysis
from ..frontend.typer import is_float
from .array_config import LoopConfig
from .vectorizer import _DTYPES, KernelSourceInfo, Vectorizer


@dataclass
class LoweredBody:
    """One parallel-loop body as kernel statements."""

    #: Statement lines, at function indent.
    lines: list[str]
    #: Temporary counter after this body (fusion chains members).
    tmp_end: int
    #: The body reads the full-span lane-index vector ``_i``.
    iota: bool
    #: Host scalars the body reads, with their C types.
    scalars: dict[str, str]
    #: Kernel-local names (they may shadow scalar bindings).
    locals: set[str]
    #: Arena slots the body uses, and whether it loads a span.
    slots: int
    loads: bool


def lower_body(analysis: LoopAnalysis, config: LoopConfig,
               labels: dict[int, str], tmp_base: int = 0,
               slot_base: int = 0) -> LoweredBody:
    """Lower one loop body, once.  ``labels`` is what
    :func:`~repro.translator.cost.price_body` returned for it: a body is
    priced before it is lowered, never by its lowering."""
    out = Vectorizer(analysis, config, labels, slot_base=slot_base)
    out._tmp = tmp_base
    lines: list[str] = []
    for piece in out.body_pieces():
        lines += out.emit_piece(piece)
    return LoweredBody(
        lines=lines, tmp_end=out._tmp, iota=out.uses_iota,
        scalars=out.used_scalars, locals=set(out.locals),
        slots=out.slots_used, loads=out.loads)


def scalar_binding(name: str, ctype: str = "") -> str:
    """Kernel-entry binding of host scalar ``name``: a ``float`` /
    ``double`` as a NumPy scalar of its C type, an integer as the host
    holds it."""
    src = f"ctx.scalars[{name!r}]"
    if is_float(ctype):
        src = f"{_DTYPES[ctype]}({src})"
    return f"    v_{name} = {src}"


def kernel_source(bindings: list[tuple[str, str | None]],
                  bodies: list[LoweredBody],
                  prelude: list[str] = (), footer: list[str] = ()) -> str:
    """Assemble the kernel function: ``bindings``, what the bodies need
    bound (recorded by the passes while they emitted), ``prelude``, the
    bodies, ``footer``."""
    head = []
    if any(b.iota for b in bodies):
        # Memoized across launches (read-only).
        head.append("    _i = ctx.iota()")
    if prelude or any(b.slots for b in bodies):
        head.append("    _slot = ctx.arena.slot")
    if any(b.loads for b in bodies):
        head.append("    _ld = ks.ld_span")
    used = {n: t for body in bodies for n, t in body.scalars.items()}
    # Only the scalars a body reads are bound, through their C types.
    bound = [(line if s is None else scalar_binding(s, used[s]), s)
             for line, s in bindings if s is None or s in used]
    lines = [
        "def kernel(ctx):",
        "    np = ctx.np",
        "    ks = ctx.ks",
        "    _n = ctx.i1 - ctx.i0",
        "    if _n <= 0:",
        "        return",
        *(line for line, _ in bound), *head, *prelude,
    ]
    for body in bodies:
        lines += body.lines
        # A local named like a host scalar shadowed its binding for the
        # rest of the kernel: restore it.
        lines += [line for line, s in bound if s in body.locals]
    return "\n".join(lines + list(footer)) + "\n"


def binding_lines(arrays: list[str], scalars: list[str]
                  ) -> list[tuple[str, str | None]]:
    """Kernel-entry bindings of device buffers, their global bases and
    the host scalars (each of those with the scalar's name: it is bound
    only if a body reads it)."""
    lines: list[tuple[str, str | None]] = []
    if arrays:
        lines.append(("    _A, _B = ctx.arrays, ctx.base", None))
    for name in arrays:
        lines.append((f"    v_{name}, _b_{name} = _A[{name!r}], _B[{name!r}]",
                      None))
    for name in scalars:
        lines.append((scalar_binding(name), name))
    return lines


def vectorize_loop(name: str, analysis: LoopAnalysis, config: LoopConfig,
                   labels: dict[int, str]) -> KernelSourceInfo:
    """Translate one priced parallel loop into kernel source."""
    body = lower_body(analysis, config, labels)
    bindings = binding_lines(sorted(config.arrays),
                             sorted(set(analysis.host_scalars)))
    footer = []
    for op, var in analysis.scalar_reductions:
        bindings.append((f"    _racc_{var} = ks.red_identity({op!r})", None))
        footer.append(f"    ctx.reduce_scalar({op!r}, {var!r}, _racc_{var})")
    return KernelSourceInfo(
        name, kernel_source(bindings, [body], footer=footer))
