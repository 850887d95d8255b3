"""Single-GPU shadow oracle.

Before the real (multi-GPU) kernels of a parallel loop run, the oracle
re-executes the loop's generated kernel against private full-length
copies of every array in one address space, in permissive mode -- i.e.
the semantics the partitioned execution must reproduce without any of
the partitioning, dirty-bit tracking or write-miss machinery.  After
the runtime's communication phase the oracle diffs every written array
against its expectation and localizes the first divergent element to
the GPU holding it, the dirty chunk containing it, and the transfer
mechanism that should have carried it.

The oracle re-seeds from the *actual* device state before every loop
(:func:`global_view`), so divergence never accumulates across loops:
each report points at the loop that broke coherence.

The shadow run follows the paper's BSP contract, not a fully
sequential one: each GPU's task slice executes sequentially against
its own copy of the loop-entry coherent state (writes of other slices
are invisible until the communication phase), and the per-slice
effects merge afterwards.  This matters for programs like BFS, where
an iteration's work depends on whether it already sees another
iteration's write to a shared array: a fully sequential oracle would
demand cross-slice visibility the multi-GPU model never promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..runtime.comm import _combine
from ..runtime.data_loader import DataLoader, ManagedArray
from ..runtime.kernelctx import KernelContext
from ..runtime.partition import PartitionError, owner_of
from ..translator.array_config import ArrayConfig, Placement, WriteHandling
from ..translator.kernel_support import red_fold, red_identity
from .audit import AuditedModules
from .violations import CoherenceViolation


def global_view(ma: ManagedArray) -> np.ndarray:
    """Assemble the coherent full-length image of one managed array.

    When the device copies are ahead of the host, the freshest value of
    each element lives on the device: the first resident replica for
    replica placement (replicas are coherent between loops), the owner
    primaries for distributed placement.  Otherwise the staging image
    (the OpenACC region-entry snapshot, refreshed by ``update device``)
    is authoritative.
    """
    out = ma.staging.copy()
    if not ma.valid or not ma.device_ahead or ma.placement is None:
        return out
    if ma.placement == Placement.REPLICA:
        for g, buf in enumerate(ma.buffers):
            if buf is not None and ma.blocks[g].size:
                blk = ma.blocks[g]
                out[blk.lo:blk.hi] = buf.data
                break
    else:
        for g, buf in enumerate(ma.buffers):
            if buf is None:
                continue
            prim = ma.primary[g].intersect(ma.blocks[g])
            if prim.size:
                lo = prim.lo - ma.blocks[g].lo
                out[prim.lo:prim.hi] = buf.data[lo:lo + prim.size]
    return out


def _changed(after: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Element mask of NaN-aware differences between two same-shape arrays."""
    if np.issubdtype(after.dtype, np.floating):
        same = (after == before) | (np.isnan(after) & np.isnan(before))
    else:
        same = after == before
    return ~same


def first_mismatch(actual: np.ndarray, expected: np.ndarray) -> int | None:
    """Index of the first exact mismatch (NaN == NaN); None when equal."""
    if actual.size == 0:
        return None
    if np.issubdtype(actual.dtype, np.floating):
        same = (actual == expected) | (np.isnan(actual) & np.isnan(expected))
    else:
        same = actual == expected
    bad = ~same
    if not bad.any():
        return None
    return int(np.argmax(bad))


def first_divergence(actual: np.ndarray, expected: np.ndarray,
                     rtol: float, atol: float) -> int | None:
    """Index of the first out-of-tolerance element; None when close.

    Floats compare with ``isclose`` (NaN matches NaN: both engines may
    legitimately produce one), everything else exactly -- integer
    arithmetic has no rounding latitude.
    """
    if actual.size == 0:
        return None
    if np.issubdtype(actual.dtype, np.floating):
        ok = np.isclose(actual, expected, rtol=rtol, atol=atol,
                        equal_nan=True)
    else:
        ok = actual == expected
    bad = ~ok
    if not bad.any():
        return None
    return int(np.argmax(bad))


def transfer_for(cfg: ArrayConfig, ma: ManagedArray, gpu: int,
                 element: int) -> str:
    """Name the mechanism that should have delivered ``element`` to
    ``gpu``'s copy -- the localization the diagnostics report."""
    prim = ma.primary[gpu] if gpu < len(ma.primary) else None
    in_primary = prim is not None and prim.lo <= element < prim.hi
    if cfg.write_handling == WriteHandling.DIRTY_BITS:
        if ma.placement == Placement.DISTRIBUTED:
            return "local-store" if in_primary else "windowed-propagation"
        return "replica-broadcast"
    if cfg.write_handling == WriteHandling.MISS_CHECK:
        if not in_primary:
            return "halo-refresh"
        owner = int(owner_of(np.array([element], dtype=np.int64),
                             ma.primary)[0])
        return "local-store" if owner == gpu else "miss-replay"
    if cfg.write_handling == WriteHandling.LOCAL_PROVEN:
        return "local-store" if in_primary else "halo-refresh"
    if cfg.write_handling == WriteHandling.REDUCTION:
        return "reduction-merge"
    return "none"


@dataclass
class OracleExpectation:
    """What one loop must have produced, per the single-GPU shadow run."""

    loop: str
    #: Expected full-length post-communication contents, written arrays.
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: Expected finalized scalar-reduction values.
    scalars: dict[str, Any] = field(default_factory=dict)
    #: Recorded per-iteration access spans (attached by the auditor).
    spans: dict[str, dict[int, list[int]]] = field(default_factory=dict)


class ShadowOracle:
    """Re-executes each loop single-GPU and diffs the multi-GPU result."""

    def __init__(self, loader: DataLoader,
                 rtol: float = 2e-5, atol: float = 1e-6) -> None:
        self.loader = loader
        self.rtol = rtol
        self.atol = atol
        #: Telemetry: loops shadow-executed / elements compared.
        self.loops_run = 0
        self.elements_compared = 0

    # -- shadow execution -----------------------------------------------------

    def _shadow_context(self, plan: Any, configs: dict[str, ArrayConfig],
                        pre: dict[str, np.ndarray], host_env: dict[str, Any],
                        t0: int, t1: int) -> KernelContext:
        """One slice's shadow context: full arrays, base 0, private
        copies of everything the loop writes."""
        scalars = {n: host_env[n] for n in plan.scalar_names
                   if n in host_env}
        ctx = KernelContext(device_index=-1, i0=t0, i1=t1,
                            scalars=scalars, permissive=True)
        for name, cfg in configs.items():
            ctx.base[name] = 0
            if cfg.write_handling == WriteHandling.REDUCTION:
                identity = red_identity(cfg.reduction_op or "+")
                shadow = np.empty_like(pre[name])
                shadow.fill(identity)
                ctx.reduction_arrays[name] = shadow
                # Reads of a reduction destination see the identity-
                # filled private copy, as on the real devices.
                ctx.arrays[name] = shadow
            elif cfg.write_handling == WriteHandling.NONE:
                ctx.arrays[name] = pre[name]
            else:
                ctx.arrays[name] = pre[name].copy()
        return ctx

    def prepare(self, plan: Any, configs: dict[str, ArrayConfig],
                tasks: list[tuple[int, int]], host_env: dict[str, Any],
                access_hook: Any = None) -> OracleExpectation:
        """Shadow-execute the loop, one pass per task slice.

        Each slice runs against its own copy of the loop-entry coherent
        state (BSP semantics: other slices' writes become visible only
        at the communication phase); the per-slice effects then merge in
        ascending GPU order, exactly as the runtime applies them.  The
        shadow launches the *same kernel* as the real run, so the
        expectation carries its intra-slice visibility semantics --
        programs with benign races (BFS's ``changed`` counter) would
        otherwise diverge spuriously.

        ``access_hook`` (the localaccess auditor's recorder) sees every
        array access of a second pass over the slice, on throwaway
        copies: the same kernel launched one iteration at a time, with
        recording ``np`` / ``ks`` modules on that context
        (:class:`~repro.sanitizer.audit.AuditedModules`), so every
        access a launch makes belongs to its iteration.
        """
        # Loop-entry coherent image of every array, and -- for reduction
        # destinations -- the host values the merge combines with
        # (OpenACC reduction semantics), not the staging image.
        pre: dict[str, np.ndarray] = {}
        pre_host: dict[str, np.ndarray] = {}
        for name, cfg in configs.items():
            ma = self.loader._get(name)
            pre[name] = global_view(ma)
            if cfg.write_handling == WriteHandling.REDUCTION:
                pre_host[name] = np.asarray(ma.host).copy()
        contexts: list[KernelContext] = []
        for g, (t0, t1) in enumerate(tasks):
            ctx = self._shadow_context(plan, configs, pre, host_env, t0, t1)
            try:
                plan.execute(ctx)
                if access_hook is not None:
                    audit_ctx = self._shadow_context(
                        plan, configs, pre, host_env, t0, t1)
                    modules = AuditedModules(audit_ctx, access_hook)
                    for it in range(t0, t1):
                        modules.iteration = it
                        audit_ctx.i0, audit_ctx.i1 = it, it + 1
                        plan.fn(audit_ctx)
            except (IndexError, PartitionError) as e:
                raise CoherenceViolation(
                    "oracle-failure", loop=plan.name, gpu=g,
                    detail=f"shadow execution of slice [{t0}, {t1}) "
                           f"failed: {e}") from e
            contexts.append(ctx)
        expect = OracleExpectation(loop=plan.name)
        for name, cfg in configs.items():
            if cfg.write_handling == WriteHandling.NONE:
                continue
            ma = self.loader._get(name)
            if cfg.write_handling == WriteHandling.REDUCTION:
                merged = pre_host[name]
                for ctx in contexts:
                    merged = _combine(cfg.reduction_op or "+", merged,
                                      ctx.reduction_arrays[name])
                expect.arrays[name] = merged.astype(ma.host.dtype,
                                                    copy=False)
            else:
                expected = pre[name].copy()
                for ctx in contexts:
                    mask = _changed(ctx.arrays[name], pre[name])
                    if mask.any():
                        expected[mask] = ctx.arrays[name][mask]
                expect.arrays[name] = expected
        ops: dict[str, str] = {}
        for ctx in contexts:
            ops.update(ctx.scalar_ops)
        for name, op in ops.items():
            # Mirror finalize_scalar_reductions: fold the per-GPU
            # partials in GPU order, then fold in the host initial.
            acc: Any = red_identity(op)
            for ctx in contexts:
                if name in ctx.scalar_results:
                    acc = red_fold(op, acc,
                                   np.asarray(ctx.scalar_results[name]),
                                   None, 1)
            initial = host_env.get(name)
            if initial is None:
                continue
            final = red_fold(op, acc, np.asarray(initial), None, 1)
            expect.scalars[name] = type(initial)(final)
        self.loops_run += 1
        return expect

    # -- post-communication diff ----------------------------------------------

    def check(self, plan: Any, configs: dict[str, ArrayConfig],
              expect: OracleExpectation,
              host_env: dict[str, Any]) -> None:
        """Diff every written array (and finalized scalar) against the
        oracle; raise on the first divergent element, localized."""
        for name, expected in expect.arrays.items():
            cfg = configs[name]
            ma = self.loader._get(name)
            for g, buf in enumerate(ma.buffers):
                if buf is None or ma.blocks[g].size == 0:
                    continue
                blk = ma.blocks[g]
                exp_slice = expected[blk.lo:blk.hi]
                self.elements_compared += int(blk.size)
                bad = first_divergence(buf.data, exp_slice,
                                       self.rtol, self.atol)
                if bad is None:
                    continue
                e = blk.lo + bad
                self._raise_divergence(plan, cfg, ma, g, e,
                                       expected[e], buf.data[bad])
            if cfg.write_handling == WriteHandling.REDUCTION:
                # The merge also lands in the host copy immediately.
                bad = first_divergence(np.asarray(ma.host), expected,
                                       self.rtol, self.atol)
                if bad is not None:
                    self._raise_divergence(
                        plan, cfg, ma, None, bad, expected[bad],
                        np.asarray(ma.host)[bad])
        for name, expected in expect.scalars.items():
            actual = host_env.get(name)
            if actual is None:
                continue
            if isinstance(expected, (int, np.integer)) \
                    and isinstance(actual, (int, np.integer)):
                ok = int(actual) == int(expected)
            else:
                ok = bool(np.isclose(float(actual), float(expected),
                                     rtol=self.rtol, atol=self.atol,
                                     equal_nan=True))
            if not ok:
                raise CoherenceViolation(
                    "scalar-divergence", loop=plan.name, array=name,
                    transfer="scalar-reduction",
                    detail=f"expected {expected!r}, got {actual!r}")

    def _raise_divergence(self, plan: Any, cfg: ArrayConfig,
                          ma: ManagedArray, gpu: int | None, element: int,
                          expected: Any, actual: Any) -> None:
        elems_per_chunk = max(
            1, self.loader.config.chunk_bytes // ma.itemsize)
        owner = int(owner_of(np.array([element], dtype=np.int64),
                             ma.primary)[0]) if ma.primary else gpu
        transfer = (transfer_for(cfg, ma, gpu, element)
                    if gpu is not None else "reduction-merge")
        where = (f"on gpu {gpu}" if gpu is not None
                 else "in the host copy")
        raise CoherenceViolation(
            "result-divergence", loop=plan.name, array=cfg.name,
            gpu=gpu, lo=element, hi=element,
            chunk=element // elems_per_chunk, transfer=transfer,
            detail=(f"expected {expected!r}, got {actual!r} {where}; "
                    f"owner gpu {owner}"))
