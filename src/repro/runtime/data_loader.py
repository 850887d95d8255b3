"""The data loader (paper section IV-C).

Guarantees OpenACC data semantics while transparently managing several
GPU memories.  Two placement policies:

* **replica-based** (default, arrays without ``localaccess``): the full
  array is copied to every GPU;
* **distribution-based** (arrays with ``localaccess``): each GPU gets
  only the block its task slice can read -- the evaluated read window,
  which includes any halo the directive declares.

The loader is invoked at data-region boundaries, at ``update``
directives, and before *every* kernel call.  It skips the reload when
the required placement equals what is already resident and valid --
the paper's optimization for iterative algorithms, where the same
parallel loop runs many times over unchanged windows.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from ..trace.events import (
    EVENT_LOAD,
    EVENT_MIGRATION,
    EVENT_RELOAD_SKIP,
    EVENT_WRITEBACK,
    MECH_LOAD,
    MECH_MIGRATION,
    MECH_UPDATE,
    MECH_WRITEBACK,
)
from ..translator.array_config import (
    ArrayConfig,
    Placement,
    ReadWindow,
    WriteHandling,
)
from ..translator.kernel_support import red_identity
from ..vcuda.api import Platform
from ..vcuda.bus import CATEGORY_CPU_GPU
from ..vcuda.memory import DeviceBuffer, PURPOSE_USER
from .config import RunConfig
from .dirty import TwoLevelDirty
from .partition import (
    Block,
    primary_blocks,
    window_for_tasks,
    window_free_names,
)
from .writemiss import WriteMissBuffer


class DataEnvironmentError(RuntimeError):
    pass


@lru_cache(maxsize=512)
def _uniform_signature(placement: Placement, length: int, ngpus: int,
                       has_identity: bool) -> tuple:
    """Load signature of a full-replica layout, memoized.

    The common iterative-app case rebuilds the identical
    tuple-of-block-tuples before every launch just to compare it against
    the resident one; caching by ``(placement, length, ngpus)`` makes
    the signature a dictionary probe.  The value is identical (``==``)
    to the generically built tuple, so mixed producers still compare
    equal -- :meth:`CommunicationManager._merge_reduction` stamps the
    post-reduction replica layout through this same helper.
    """
    return (placement, tuple((0, length) for _ in range(ngpus)),
            has_identity)


def _subtract(block: Block, covered: list[Block]) -> list[Block]:
    """Segments of ``block`` not covered by any block in ``covered``."""
    out = [block] if block.size else []
    for c in covered:
        if c.size == 0:
            continue
        nxt: list[Block] = []
        for seg in out:
            inter = seg.intersect(c)
            if inter.size <= 0:
                nxt.append(seg)
                continue
            if seg.lo < inter.lo:
                nxt.append(Block(seg.lo, inter.lo))
            if inter.hi < seg.hi:
                nxt.append(Block(inter.hi, seg.hi))
        out = nxt
    return out


@dataclass
class ManagedArray:
    """Device-side state of one host array inside a data region."""

    name: str
    host: np.ndarray
    #: Entry-time image of the host array, taken lazily (see
    #: :attr:`staging`); None while the host array itself still is that
    #: image.
    snapshot: np.ndarray | None = None
    #: Transfer on region entry / before first use (copy, copyin).
    transfer_in: bool = True
    #: Transfer back on region exit (copy, copyout).
    transfer_out: bool = True
    placement: Placement | None = None
    buffers: list[DeviceBuffer | None] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    primary: list[Block] = field(default_factory=list)
    valid: bool = False
    #: Device copies hold newer data than the host copy.
    device_ahead: bool = False
    #: Load signature for reload skipping.
    signature: tuple | None = None
    dirty: list[TwoLevelDirty | None] = field(default_factory=list)
    miss: list[WriteMissBuffer | None] = field(default_factory=list)
    #: Set while the array is a reductiontoarray destination.
    reduction_identity: Any | None = None
    #: True once device-side writes were gathered back to the host: from
    #: then on the host copy is meaningful data even for 'create' arrays,
    #: so reloads must be priced as real transfers.
    materialized: bool = False
    #: ``update device`` fed the array from the host: from then on a load
    #: may read meaningful host data whatever the clause kind, so the
    #: staging image must be preserved against host writes.
    host_fed: bool = False
    #: Set when an external placement decision (the adaptive advisor's
    #: demote/promote) made the resident layout suspect: the reload-skip
    #: fast path must not fire until the next load/migration rebuilds
    #: the layout, even if the signature happens to match again.
    skip_invalidated: bool = False
    #: Bumped whenever the device-side state a kernel binds to changes
    #: (buffers reallocated, trackers/miss buffers created).  The
    #: executor's launch fast path caches argument bindings per
    #: (plan, GPU) and revalidates against this counter.
    version: int = 0
    #: ``(version, plan)``: exchange geometry the communication manager
    #: derived from this layout (halo refresh; windowed dirty
    #: propagation) and replays until :attr:`version` moves.  The plans
    #: hold views of the device buffers, which is why every path that
    #: replaces buffers must bump :attr:`version` -- the one
    #: invalidation rule.
    halo_plan: tuple | None = None
    windowed_plan: tuple | None = None

    @property
    def staging(self) -> np.ndarray:
        """Device-visible image of the host array as of region entry.

        OpenACC transfers at the region boundary; loads are deferred to
        kernel time here, so the image preserves entry-time snapshot
        semantics against later host writes.  It is copy-on-write: it
        *is* the host array until host code is about to write one
        (:meth:`DataLoader.before_host_write`), which detaches it.
        ``update device`` re-attaches it (unless another region name
        shares the buffer); writebacks land in both.
        """
        return self.host if self.snapshot is None else self.snapshot

    def store_home(self, lo: int, hi: int, data: np.ndarray) -> None:
        """Device data arrives home: into the host copy and the staging
        image (one copy while they are the same array)."""
        np.copyto(self.host[lo:hi], data)
        if self.snapshot is not None:
            np.copyto(self.snapshot[lo:hi], data)

    @property
    def itemsize(self) -> int:
        return int(self.host.dtype.itemsize)

    @property
    def length(self) -> int:
        return int(self.host.shape[0])


class DataLoader:
    """Owns all :class:`ManagedArray` state for one execution context."""

    def __init__(self, platform: Platform,
                 config: RunConfig | None = None) -> None:
        self.platform = platform
        #: The run's flags (:class:`RunConfig`).
        self.config = config or RunConfig()
        self.arrays: dict[str, ManagedArray] = {}
        self._region_stack: list[list[str]] = []
        #: Latest derivation per ``localaccess`` window, keyed by the
        #: window's ``id`` (the entry pins the object, so the id stays
        #: sound): ``[window, free names, key, blocks, signature]``.  See
        #: :meth:`_window_blocks`.  One entry per window, so it cannot
        #: grow with the launch count; it dies with the loader, i.e.
        #: with the run.
        self._window_memo: dict[int, list] = {}
        #: Called with the array name before any host-path access to its
        #: device buffers (writeback, reload, update).  The overlap-mode
        #: executor installs a barrier here: queued kernels and in-flight
        #: communication on the array must land first.
        self.pre_access_hook = None
        #: Opt-in coherence sanitizer; when set, every reload-skip is
        #: verified against the coherent global image.
        self.sanitizer = None
        #: Opt-in tracer; when set, loads / migrations / writebacks /
        #: reload-skips emit decision events and the transfers they
        #: issue carry mechanism tags.
        self.tracer = None
        #: Loader telemetry (ablation benchmarks read these).
        self.loads = 0
        self.reloads_skipped = 0
        self.migrations = 0
        self.bytes_migrated_local = 0
        self.bytes_migrated_p2p = 0
        self.bytes_migrated_h2d = 0

    # -- region management -------------------------------------------------------

    def enter_region(self, sections: list[tuple[str, np.ndarray, str]]) -> None:
        """Open a data region; ``sections`` = (name, host array, clause kind)."""
        names: list[str] = []
        for name, host, kind in sections:
            if name in self.arrays:
                raise DataEnvironmentError(
                    f"array {name!r} is already present in an enclosing data "
                    "region")
            if host.ndim != 1:
                raise DataEnvironmentError(
                    f"device array {name!r} must be 1-D (linearize "
                    "multi-dimensional data; paper section VI)")
            ma = ManagedArray(
                name=name,
                host=host,
                transfer_in=kind in ("copy", "copyin"),
                transfer_out=kind in ("copy", "copyout"),
            )
            # Two names for one host buffer: a writeback through either
            # would show through the other's staging image, so both keep
            # a private snapshot from now on.
            for other in self._twins(ma):
                for twin in (other, ma):
                    if twin.snapshot is None:
                        twin.snapshot = twin.host.copy()
            ngpus = self.platform.ngpus
            ma.buffers = [None] * ngpus
            ma.blocks = [Block(0, 0)] * ngpus
            ma.primary = [Block(0, 0)] * ngpus
            ma.dirty = [None] * ngpus
            ma.miss = [None] * ngpus
            self.arrays[name] = ma
            names.append(name)
        self._region_stack.append(names)

    def exit_region(self) -> None:
        if not self._region_stack:
            raise DataEnvironmentError("data region exit without entry")
        names = self._region_stack.pop()
        for name in names:
            ma = self.arrays.pop(name)
            if ma.transfer_out and ma.device_ahead:
                self._writeback(ma)
            self._release(ma)
        if self.platform.bus.pending_count():
            self.platform.bus.sync_category(CATEGORY_CPU_GPU)

    def _twins(self, ma: ManagedArray) -> list[ManagedArray]:
        """Other open-region arrays viewing ``ma``'s host buffer."""
        return [other for other in self.arrays.values()
                if other is not ma
                and np.may_share_memory(other.host, ma.host)]

    def before_host_write(self, host: np.ndarray) -> None:
        """Host code is about to write ``host``: an array of an open
        region whose staging image still is the host array takes its
        entry-time snapshot now.  Arrays no load reads meaningful host
        data for (``create``, ``copyout``, until the device first wrote
        them back or ``update device`` fed them) never do."""
        for ma in self.arrays.values():
            if ma.host is host and ma.snapshot is None \
                    and (ma.transfer_in or ma.materialized or ma.host_fed):
                ma.snapshot = host.copy()

    def update_host(self, names: list[str]) -> None:
        """``#pragma acc update host(...)``: device -> host now."""
        for name in names:
            ma = self._get(name)
            if ma.device_ahead:
                self._writeback(ma)
        if self.platform.bus.pending_count():
            self.platform.bus.sync_category(CATEGORY_CPU_GPU)

    def update_device(self, names: list[str]) -> None:
        """``#pragma acc update device(...)``: host -> device now."""
        for name in names:
            ma = self._get(name)
            if self.pre_access_hook is not None:
                self.pre_access_hook(name)
            ma.device_ahead = False
            ma.host_fed = True
            if self._twins(ma):
                # The private image stays private: refresh it.
                np.copyto(ma.snapshot, ma.host)
            else:
                ma.snapshot = None  # the image is the host array again
            if ma.valid and ma.placement is not None:
                # Eagerly refresh the resident blocks.
                with self._tag(MECH_UPDATE, name):
                    for g, buf in enumerate(ma.buffers):
                        if buf is not None and ma.blocks[g].size:
                            blk = ma.blocks[g]
                            np.copyto(buf.data, ma.staging[blk.lo:blk.hi])
                            self.platform.bus.h2d(g, blk.size * ma.itemsize)
            else:
                ma.valid = False
        if self.platform.bus.pending_count():
            self.platform.bus.sync_category(CATEGORY_CPU_GPU)

    def _tag(self, mechanism: str, array: str | None):
        """Mechanism/array annotation for bus transfers issued inside."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.tag(mechanism, array)

    def _get(self, name: str) -> ManagedArray:
        ma = self.arrays.get(name)
        if ma is None:
            raise DataEnvironmentError(
                f"array {name!r} is not present in any data region")
        return ma

    def note_placement_switch(self, name: str) -> None:
        """The adaptive advisor demoted or promoted ``name``: the
        resident layout no longer matches the placement the next loop
        will request, so the reload-skip fast path must not fire until
        a load or delta migration rebuilds it.  (The signature alone is
        not a safe guard across a demote/promote pair.)"""
        ma = self.arrays.get(name)
        if ma is not None:
            ma.skip_invalidated = True

    # -- per-kernel loading --------------------------------------------------------

    def ensure_for_loop(
        self,
        configs: dict[str, ArrayConfig],
        tasks: list[tuple[int, int]],
        loop_var: str,
        host_scalars: dict[str, Any],
    ) -> None:
        """Make every array of the loop resident with the right placement.

        Called before every kernel launch set.  All H2D transfers are
        queued asynchronously and synchronized once (``CPU-GPU`` time).
        """
        # Adaptive mode: GPUs the balancer starved (empty task slice)
        # hold no replica blocks either -- they read nothing, and every
        # resident replica is one more target of each dirty broadcast.
        config = self.config
        idle = [t1 <= t0 for t0, t1 in tasks] if config.adaptive else None
        for name, cfg in configs.items():
            ma = self._get(name)
            ngpus = self.platform.ngpus
            signature = None
            if cfg.write_handling == WriteHandling.REDUCTION:
                placement = Placement.REPLICA
                blocks = [Block(0, ma.length)] * ngpus
                identity = red_identity(cfg.reduction_op or "+")
                signature = _uniform_signature(placement, ma.length,
                                               ngpus, True)
            else:
                identity = None
                placement = cfg.placement
                if placement == Placement.DISTRIBUTED:
                    assert cfg.window is not None
                    blocks, signature = self._window_blocks(
                        cfg.window, tasks, ma.length, loop_var, host_scalars)
                elif idle is not None:
                    blocks = [Block(0, 0) if idle[g] else Block(0, ma.length)
                              for g in range(ngpus)]
                else:
                    blocks = [Block(0, ma.length)] * ngpus
                    signature = _uniform_signature(placement, ma.length,
                                                   ngpus, False)
            if signature is None:
                signature = (placement, tuple((b.lo, b.hi) for b in blocks),
                             identity is not None)
            if (config.reload_skipping and ma.valid
                    and ma.signature == signature
                    and identity is None and not ma.skip_invalidated):
                self.reloads_skipped += 1
                if self.sanitizer is not None:
                    self.sanitizer.check_reload_skip(ma)
                if self.tracer is not None:
                    self.tracer.emit(EVENT_RELOAD_SKIP, name,
                                     start=self.platform.clock.now,
                                     array=name)
                    self.tracer.metrics.count(
                        "reload_skip_hits", 1, array=name,
                        loop=self.tracer.current_loop)
            elif (config.adaptive and ma.valid and identity is None
                    and ma.signature is not None and not ma.signature[2]
                    and self._migrate(ma, placement, blocks, signature)):
                if self.tracer is not None:
                    self.tracer.metrics.count(
                        "reload_skip_misses", 1, array=name,
                        loop=self.tracer.current_loop)
            else:
                self._load(ma, placement, blocks, signature, identity)
                if self.tracer is not None:
                    self.tracer.metrics.count(
                        "reload_skip_misses", 1, array=name,
                        loop=self.tracer.current_loop)
            # (Re)wire write-side system structures for this loop.
            self._prepare_write_side(ma, cfg)

    def _window_blocks(self, window: ReadWindow,
                       tasks: list[tuple[int, int]], length: int,
                       loop_var: str, host_scalars: dict[str, Any],
                       ) -> tuple[list[Block], tuple]:
        """Per-GPU blocks and load signature of a ``localaccess`` window.

        Both are a pure function of the window, the task split, the
        array length and the values of the host scalars the bounds
        read, so they are derived once per such combination and
        replayed on every later launch that repeats it: deciding that a
        reload can be skipped then costs one tuple comparison, not four
        bound evaluations per GPU.  A changed scalar, a resplit
        or a different length misses and re-derives.  A bound that
        subscripts a host array (``col[bounds(row[i], row[i+1]-1)]``)
        is never replayed: the array's contents are not part of the
        key.  The returned list is shared between launches -- callers
        copy before keeping it.
        """
        ent = self._window_memo.get(id(window))
        if ent is None or ent[0] is not window:
            ent = self._window_memo[id(window)] = [
                window, window_free_names(window), None, None, None]
        names = ent[1]
        key = None
        if names is not None:
            values = []
            for n in names:
                if n == loop_var:
                    continue
                v = host_scalars.get(n)
                if not isinstance(v, (int, float, np.generic)):
                    # Missing or not a scalar: evaluate (and fail) as an
                    # unmemoized bound would.
                    break
                # 1 == 1.0 == True, but C division differs by type.
                values.append((v.__class__, v))
            else:
                key = (loop_var, tuple(tasks), length, values)
                if key == ent[2]:
                    return ent[3], ent[4]
        # Only a miss reads host scalars and arrays at all.
        env = self.bound_env(host_scalars)
        blocks = [window_for_tasks(window, t, length, loop_var, env)
                  for t in tasks]
        signature = (Placement.DISTRIBUTED,
                     tuple((b.lo, b.hi) for b in blocks), False)
        if key is not None:
            ent[2:] = key, blocks, signature
        return blocks, signature

    def bound_env(self, host_env: dict[str, Any]) -> dict[str, Any]:
        """What a window bound reads: the host scalars, and the host
        arrays of the data environment (the loader runs on the host)."""
        return {**host_env, **{n: m.host for n, m in self.arrays.items()}}

    def _load(self, ma: ManagedArray, placement: Placement,
              blocks: list[Block], signature: tuple, identity: Any) -> None:
        if self.pre_access_hook is not None:
            self.pre_access_hook(ma.name)
        if ma.device_ahead:
            # The device holds the newest data under a different layout:
            # gather it home before re-placing (costs D2H on the bus).
            self._writeback(ma)
            self.platform.bus.sync_category(CATEGORY_CPU_GPU)
        self._release_buffers(ma)
        ngpus = self.platform.ngpus
        loaded_bytes = 0
        with self._tag(MECH_LOAD, ma.name):
            for g in range(ngpus):
                blk = blocks[g]
                if blk.size == 0:
                    ma.buffers[g] = None
                    continue
                buf = self.platform.malloc(
                    g, ma.name, blk.size, ma.host.dtype,
                    purpose=PURPOSE_USER, base=blk.lo)
                if identity is not None:
                    # Reduction destinations start at the operator
                    # identity on the device: no H2D transfer at all.
                    buf.data.fill(identity)
                else:
                    np.copyto(buf.data, ma.staging[blk.lo:blk.hi])
                    if ma.transfer_in or ma.materialized:
                        self.platform.bus.h2d(g, blk.size * ma.itemsize)
                        loaded_bytes += blk.size * ma.itemsize
                ma.buffers[g] = buf
        ma.blocks = list(blocks)
        ma.primary = primary_blocks(blocks, ma.length)
        ma.placement = placement
        ma.signature = signature
        ma.valid = True
        ma.skip_invalidated = False
        ma.version += 1
        self.loads += 1
        if self.tracer is not None:
            self.tracer.emit(EVENT_LOAD, ma.name,
                             start=self.platform.clock.now, array=ma.name,
                             nbytes=loaded_bytes,
                             placement=placement.name
                             if placement is not None else None)

    def _migrate(self, ma: ManagedArray, placement: Placement,
                 blocks: list[Block], signature: tuple) -> bool:
        """Re-place ``ma`` by moving only the old/new block deltas.

        Data already resident on a GPU is kept with a free device-local
        copy; when the device holds the freshest data, segments now
        needed elsewhere are fetched from their old owners over the
        peer bus; only segments no device copy can provide come from
        the host (priced H2D like a normal load).  Returns ``False``
        when freshness cannot be preserved (the caller then falls back
        to writeback + full reload).
        """
        ngpus = self.platform.ngpus
        old_blocks = list(ma.blocks)
        old_buffers = list(ma.buffers)
        # Per-GPU regions whose freshest copy is device-resident.
        fresh = [Block(0, 0)] * ngpus
        if ma.device_ahead:
            if ma.placement == Placement.REPLICA:
                # Replicas are coherent after the communication step:
                # the first resident copy is authoritative.
                for g, buf in enumerate(old_buffers):
                    if buf is not None and old_blocks[g].size:
                        fresh[g] = old_blocks[g]
                        break
            else:
                for g, buf in enumerate(old_buffers):
                    if buf is not None:
                        fresh[g] = ma.primary[g].intersect(old_blocks[g])
            # Every device-fresh element must land in some new buffer,
            # or its value would be lost to later writebacks (which
            # gather the new primary blocks only).
            for fr in fresh:
                if any(seg.size for seg in _subtract(fr, blocks)):
                    return False
        if self.pre_access_hook is not None:
            self.pre_access_hook(ma.name)
        new_buffers: list[DeviceBuffer | None] = [None] * ngpus
        for g in range(ngpus):
            blk = blocks[g]
            if blk.size == 0:
                continue
            buf = self.platform.malloc(
                g, ma.name, blk.size, ma.host.dtype,
                purpose=PURPOSE_USER, base=blk.lo)
            # Baseline fill from the staging image; only the segments no
            # device copy provides are priced as transfers below.
            np.copyto(buf.data, ma.staging[blk.lo:blk.hi])
            covered: list[Block] = []
            # 1. Device-local keep: free (no bus traffic).
            if old_buffers[g] is not None:
                local_src = fresh[g] if ma.device_ahead else old_blocks[g]
                keep = blk.intersect(local_src)
                if keep.size > 0:
                    src = old_buffers[g].data
                    np.copyto(
                        buf.data[keep.lo - blk.lo:keep.hi - blk.lo],
                        src[keep.lo - old_blocks[g].lo:
                            keep.hi - old_blocks[g].lo])
                    self.bytes_migrated_local += keep.size * ma.itemsize
                    covered.append(keep)
            # 2. Peer fetch of segments whose freshest copy lives on
            #    another GPU.
            if ma.device_ahead:
                for t in range(ngpus):
                    if t == g or old_buffers[t] is None:
                        continue
                    want = blk.intersect(fresh[t])
                    for seg in _subtract(want, covered):
                        src = old_buffers[t].data
                        np.copyto(
                            buf.data[seg.lo - blk.lo:seg.hi - blk.lo],
                            src[seg.lo - old_blocks[t].lo:
                                seg.hi - old_blocks[t].lo])
                        nbytes = seg.size * ma.itemsize
                        # Load-phase traffic: attribute to CPU-GPU time
                        # so the per-loop load sync waits for it.
                        with self._tag(MECH_MIGRATION, ma.name):
                            self.platform.bus.p2p(
                                t, g, nbytes, category=CATEGORY_CPU_GPU)
                        self.bytes_migrated_p2p += nbytes
                        covered.append(seg)
            # 3. Host fills for the rest (already copied from staging).
            if ma.transfer_in or ma.materialized:
                for seg in _subtract(blk, covered):
                    nbytes = seg.size * ma.itemsize
                    with self._tag(MECH_MIGRATION, ma.name):
                        self.platform.bus.h2d(g, nbytes)
                    self.bytes_migrated_h2d += nbytes
            new_buffers[g] = buf
        for g, buf in enumerate(old_buffers):
            if buf is not None:
                self.platform.devices[g].memory.free(buf)
        ma.buffers = new_buffers
        ma.blocks = list(blocks)
        ma.primary = primary_blocks(blocks, ma.length)
        ma.placement = placement
        ma.signature = signature
        ma.valid = True
        ma.skip_invalidated = False
        ma.version += 1
        self.migrations += 1
        if self.tracer is not None:
            self.tracer.emit(EVENT_MIGRATION, ma.name,
                             start=self.platform.clock.now, array=ma.name,
                             placement=placement.name
                             if placement is not None else None)
        return True

    def _prepare_write_side(self, ma: ManagedArray, cfg: ArrayConfig) -> None:
        ngpus = self.platform.ngpus
        ma.reduction_identity = None
        if cfg.write_handling == WriteHandling.DIRTY_BITS:
            for g in range(ngpus):
                if ma.dirty[g] is None:
                    ma.dirty[g] = TwoLevelDirty(
                        ma.name, ma.length, ma.itemsize,
                        memory=self.platform.devices[g].memory,
                        chunk_bytes=self.config.chunk_bytes)
                    ma.version += 1
        elif cfg.write_handling == WriteHandling.MISS_CHECK:
            capacity = max(1024, ma.length // 10)
            for g in range(ngpus):
                if ma.miss[g] is None:
                    ma.miss[g] = WriteMissBuffer(
                        ma.name, capacity,
                        memory=self.platform.devices[g].memory)
                    ma.miss[g].tracer = self.tracer
                    ma.version += 1
        elif cfg.write_handling == WriteHandling.REDUCTION:
            ma.reduction_identity = red_identity(cfg.reduction_op or "+")

    # -- data movement helpers ---------------------------------------------------------

    def _writeback(self, ma: ManagedArray) -> None:
        """Device -> host for the freshest copy of each element."""
        if self.pre_access_hook is not None:
            self.pre_access_hook(ma.name)
        if not ma.valid or ma.placement is None:
            ma.device_ahead = False
            return
        with self._tag(MECH_WRITEBACK, ma.name):
            if ma.placement == Placement.REPLICA:
                # Replicas are coherent after the communication step;
                # GPU 0 (or the first resident copy) is authoritative.
                for g, buf in enumerate(ma.buffers):
                    if buf is not None:
                        blk = ma.blocks[g]
                        ma.store_home(blk.lo, blk.hi, buf.data)
                        self.platform.bus.d2h(g, blk.size * ma.itemsize)
                        break
            else:
                for g, buf in enumerate(ma.buffers):
                    if buf is None:
                        continue
                    prim = ma.primary[g].intersect(ma.blocks[g])
                    if prim.size == 0:
                        continue
                    lo = prim.lo - ma.blocks[g].lo
                    ma.store_home(prim.lo, prim.hi,
                                  buf.data[lo:lo + prim.size])
                    self.platform.bus.d2h(g, prim.size * ma.itemsize)
        ma.device_ahead = False
        ma.materialized = True
        if self.tracer is not None:
            self.tracer.emit(EVENT_WRITEBACK, ma.name,
                             start=self.platform.clock.now, array=ma.name)

    def _release_buffers(self, ma: ManagedArray) -> None:
        for g, buf in enumerate(ma.buffers):
            if buf is not None:
                self.platform.devices[g].memory.free(buf)
                ma.buffers[g] = None
        ma.valid = False
        ma.signature = None
        ma.version += 1

    def _release(self, ma: ManagedArray) -> None:
        self._release_buffers(ma)
        for g in range(self.platform.ngpus):
            if ma.dirty[g] is not None:
                ma.dirty[g].release(self.platform.devices[g].memory)
                ma.dirty[g] = None
            if ma.miss[g] is not None:
                ma.miss[g].release()
                ma.miss[g] = None
