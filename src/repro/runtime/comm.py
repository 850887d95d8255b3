"""Inter-GPU communication manager (paper section IV-D).

Runs immediately after the kernels of one parallel loop and performs,
with direct asynchronous GPU-to-GPU transfers:

1. **Replicated arrays**: propagate writes to the other replicas.  The
   sender scans only the second-level dirty bits and ships whole dirty
   chunks (pricing); the values applied are the dirty *elements*
   (functional), so disjoint writers on different GPUs merge correctly.
2. **Distributed arrays**: route buffered write-miss records to the
   owner GPU of each destination element and replay them there; then
   refresh any halo copies that overlap a written primary block.
3. **reductiontoarray destinations**: merge the per-GPU private copies
   (tree reduction across GPUs) with the host's initial values and
   broadcast the result.

Each mechanism applies its *data* effect here, eagerly, with NumPy --
which is why app results are bit-identical whatever the transport or
pacing -- and then states *what moved*, as ``(src_gpu, dst_gpu,
nbytes)`` pairs or as one broadcast of shared dirty chunks.  *How* that
moves (direct, staged, ring, tree, pipelined; which tag, which floor)
is the :class:`~repro.runtime.collectives.Transport`'s decision alone.

A halo exchange depends on the layout only: its copies, bytes and the
transport's route of its pairs are derived once per
``ManagedArray.version`` and kept on ``ManagedArray.halo_plan``.  Every
launch runs the same :meth:`CommunicationManager.after_kernels`.

Two pacing modes:

* **synchronous** (default; the paper's behavior): all queued transfers
  are synchronized once per phase and the elapsed time lands in the
  ``GPU-GPU`` profiler bucket that Fig. 8 reports;
* **pipelined** (``overlap=True``): transfers are issued with
  dependencies -- ``not_before`` the producing/consuming kernels'
  completion -- and the *next* loop's kernels gate only on the arrays
  they actually touch (:meth:`CommunicationManager.ready_time`).
  Reduction merges always fall back to a synchronous barrier because
  the host consumes the values immediately.  Exposed vs hidden time is
  split by :meth:`~repro.vcuda.api.Platform.timeline_advance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..trace.events import (
    MECH_HALO,
    MECH_MISS_REPLAY,
    MECH_REDUCTION_BCAST,
    MECH_REDUCTION_MERGE,
    MECH_WINDOWED,
)
from ..translator import kernel_support as ks
from ..translator.array_config import ArrayConfig, Placement, WriteHandling
from ..vcuda.api import Platform
from ..vcuda.bus import Bus, CATEGORY_GPU_GPU, Transfer
from .collectives import Pair, Transport
from .config import RunConfig
from .data_loader import DataLoader, ManagedArray, _uniform_signature
from .partition import owner_of
from .writemiss import RECORD_BYTES


class CommError(RuntimeError):
    pass


@dataclass
class PendingComm:
    """In-flight coherence traffic of one array (overlap mode)."""

    name: str
    #: Per GPU: when every inbound update to its copy has landed.
    inbound_ready: list[float]
    #: Per GPU: when every transfer touching its link/buffers is done.
    #: Kernels *overwriting* the array must wait for outbound copies
    #: too, since those read the pre-kernel buffer contents.
    involved_ready: list[float]
    #: Completion of the whole propagation.
    finish: float = 0.0
    #: Only halo slabs moved: interior iterations of a follow-up kernel
    #: never read them and may launch before they land.
    halo_only: bool = True

    def note(self, tr: Transfer, src: int | None, dst: int | None) -> None:
        """The transport issued one transfer of this array: fold its
        completion into the dependences."""
        self.finish = max(self.finish, tr.end)
        for g in (src, dst):
            if g is not None:
                self.involved_ready[g] = max(self.involved_ready[g], tr.end)
        if dst is not None:
            self.inbound_ready[dst] = max(self.inbound_ready[dst], tr.end)


def _ledger_view(kind: str, what: str) -> property:
    return property(
        lambda self: sum(n for (_, k), n in self.ledger.items() if k == kind),
        doc=f"Telemetry: bytes shipped by {what}, all arrays.")


def _transport_view(name: str) -> property:
    return property(lambda self: getattr(self.transport, name),
                    doc=f":attr:`Transport.{name}` (the transport counts).")


class CommunicationManager:
    """Executes the post-kernel coherence step for one loop."""

    def __init__(self, platform: Platform, loader: DataLoader,
                 config: RunConfig | None = None,
                 tracer: Any | None = None) -> None:
        self.platform = platform
        self.loader = loader
        #: The run's flags (:class:`RunConfig`).
        self.config = config = config or RunConfig()
        #: Routes everything the mechanisms below say has moved
        #: (docs/COLLECTIVES.md "Who decides the route").
        self.transport = Transport(platform, config, tracer=tracer)
        #: In-flight traffic per array name (overlap mode only).  The
        #: array being propagated is the transport's ``gate`` meanwhile.
        self.pending: dict[str, PendingComm] = {}
        #: Telemetry: cumulative bytes shipped per ``(array, kind)``,
        #: kind one of replica / windowed / miss / halo / reduction
        #: (``windowed``: dirty elements of runtime-demoted replica
        #: arrays, sent only to the copies whose block they fall in).
        self.ledger: dict[tuple[str, str], int] = {}
        #: The same per array, for the most recent :meth:`after_kernels`
        #: call only.  The adaptive placement advisor reads it.
        self.last_call_bytes: dict[str, dict[str, int]] = {}
        #: Telemetry: bus transactions saved by coalescing.
        self.transactions_coalesced_away = 0

    bytes_replica = _ledger_view("replica", "replica broadcasts")
    bytes_windowed = _ledger_view("windowed", "windowed propagation")
    bytes_miss = _ledger_view("miss", "write-miss replay")
    bytes_halo = _ledger_view("halo", "halo refreshes")
    bytes_reduction = _ledger_view("reduction", "reduction merges")
    transactions = _transport_view("transactions")
    bytes_internode = _transport_view("bytes_internode")
    staged_exchanges = _transport_view("staged_exchanges")
    staged_broadcasts = _transport_view("staged_broadcasts")
    collective_broadcasts = _transport_view("collective_broadcasts")
    collective_steps = _transport_view("collective_steps")
    bytes_collective = _transport_view("bytes_collective")

    # -- top level -----------------------------------------------------------------

    def after_kernels(self, configs: dict[str, ArrayConfig]) -> float:
        """Run the full coherence step; returns GPU-GPU seconds elapsed.

        Synchronous mode returns the batch makespan.  Overlap mode
        returns only the *exposed* GPU-GPU seconds that surfaced during
        this call (reduction fallbacks); everything else stays in
        flight, gated by :meth:`ready_time` / retired by :meth:`drain`.
        """
        clock = self.platform.clock
        gg0 = clock.elapsed_in(CATEGORY_GPU_GPU)
        self.last_call_bytes = {}
        for name, cfg in configs.items():
            ma = self.loader._get(name)
            if cfg.write_handling == WriteHandling.DIRTY_BITS:
                self._begin(ma)
                if ma.placement == Placement.DISTRIBUTED:
                    # Runtime-demoted replica array: writes stay inside
                    # the per-GPU blocks, so only overlapping resident
                    # copies (halos) need the dirty elements.
                    self._propagate_dirty_windowed(ma)
                    self._commit(halo_only=True)
                else:
                    self._propagate_replica(ma)
                    self._commit(halo_only=False)
            elif cfg.write_handling in (WriteHandling.MISS_CHECK,
                                        WriteHandling.LOCAL_PROVEN):
                self._begin(ma)
                halo_only = True
                if cfg.write_handling == WriteHandling.MISS_CHECK:
                    self._route_misses(ma)
                    halo_only = False
                self._refresh_halos(ma)
                self._commit(halo_only=halo_only)
            elif cfg.write_handling == WriteHandling.REDUCTION:
                if self.config.overlap:
                    # Conservative synchronous fallback: the merged
                    # values are consumed right away (host readback,
                    # placement flip), so barrier on the producing
                    # kernels and expose the merge traffic.
                    self._kernel_barrier()
                self._merge_reduction(ma, cfg)
                if self.config.overlap and self.platform.bus.pending_count():
                    self.platform.bus.sync_split()
            if cfg.written:
                ma.device_ahead = cfg.write_handling != WriteHandling.REDUCTION
        if not self.config.overlap:
            if self.platform.bus.pending_count():
                # sync_split == sync(CATEGORY_GPU_GPU) when nothing NET
                # is pending; on a cluster the NIC tail past the last
                # intra-node completion lands in the NET lane.
                return self.platform.bus.sync_split()
            return 0.0
        return clock.elapsed_in(CATEGORY_GPU_GPU) - gg0

    # -- overlap bookkeeping -----------------------------------------------------

    def _begin(self, ma: ManagedArray) -> None:
        if not self.config.overlap:
            return
        ngpus = self.platform.ngpus
        prev = self.pending.pop(ma.name, None)
        pc = PendingComm(name=ma.name,
                         inbound_ready=[0.0] * ngpus,
                         involved_ready=[0.0] * ngpus)
        if prev is not None and prev.finish > self.platform.clock.now:
            # Unfinished older traffic on the same array still gates.
            pc.inbound_ready = list(prev.inbound_ready)
            pc.involved_ready = list(prev.involved_ready)
            pc.finish = prev.finish
            pc.halo_only = prev.halo_only
        self.transport.gate = pc

    def _commit(self, halo_only: bool) -> None:
        if not self.config.overlap:
            return
        pc, self.transport.gate = self.transport.gate, None
        assert pc is not None
        if pc.finish <= self.platform.clock.now:
            return  # nothing (still) in flight
        pc.halo_only = pc.halo_only and halo_only
        self.pending[pc.name] = pc

    def _kernel_barrier(self) -> None:
        target = max([d.busy_until for d in self.platform.devices]
                     + [self.platform.clock.now])
        self.platform.timeline_advance(target)

    def ready_time(self, g: int, configs: dict[str, ArrayConfig], *,
                   interior: bool = False) -> float:
        """Event gate: earliest virtual time GPU ``g`` may launch a
        kernel with the given array usage (overlap mode).

        Reads wait for inbound updates; writes wait for every transfer
        touching the array (outbound copies read the old buffer).
        ``interior=True`` asks for the gate of an interior sub-launch
        that provably reads no in-flight halo element.
        """
        now = self.platform.clock.now
        for name in [n for n, pc in self.pending.items()
                     if pc.finish <= now]:
            del self.pending[name]
        ready = 0.0
        for name, cfg in configs.items():
            pc = self.pending.get(name)
            if pc is None:
                continue
            if cfg.written:
                ready = max(ready, pc.involved_ready[g])
            elif cfg.read:
                if interior and pc.halo_only:
                    continue
                ready = max(ready, pc.inbound_ready[g])
        return ready

    def drain(self) -> float:
        """Barrier on every in-flight transfer and queued kernel."""
        bus = self.platform.bus
        targets = [pc.finish for pc in self.pending.values()]
        targets += [t.end for t in bus.pending]
        targets += [d.busy_until for d in self.platform.devices]
        target = max(targets, default=self.platform.clock.now)
        advanced = self.platform.timeline_advance(target)
        self.pending.clear()
        return advanced

    # -- what moved ------------------------------------------------------------------

    def _account(self, name: str, kind: str, nbytes: int) -> None:
        """Byte ledger: cumulative and most-recent-call."""
        d = self.last_call_bytes.setdefault(name, {})
        d[kind] = d.get(kind, 0) + nbytes
        self.ledger[name, kind] = self.ledger.get((name, kind), 0) + nbytes

    def _ship(self, name: str, kind: str, mech: str, pairs: list[Pair],
              direct: bool = False) -> None:
        """Pairs shape: the data of ``pairs`` is already in place;
        account their bytes and let the transport move them."""
        if pairs:
            self._account(name, kind, sum(n for _, _, n in pairs))
            self.transport.pairs(name, mech, pairs, direct)

    # -- replicated arrays ------------------------------------------------------------

    def _propagate_replica(self, ma: ManagedArray) -> None:
        ngpus = self.platform.ngpus
        if ngpus == 1:
            tracker = ma.dirty[0]
            if tracker is not None:
                tracker.clear()
            return
        updates = []
        for g in range(ngpus):
            tracker = ma.dirty[g]
            if tracker is None or not tracker.any_dirty:
                continue
            buf = ma.buffers[g]
            assert buf is not None
            # Contiguous-writes fast path: when the tracker proves the
            # dirty set is one interval, gather/scatter with a slice
            # instead of an index vector -- the same elements, the same
            # values, no index array.
            sl = tracker.dirty_slice()
            if sl is not None:
                idx: Any = slice(sl[0], sl[1])
            else:
                idx = tracker.dirty_elements()
            vals = buf.data[idx].copy()
            # One DMA per dirty chunk (the sender scans only the
            # second-level bits, so the transfer unit is the chunk): the
            # per-transfer latency is what makes very small chunks lose
            # and very large chunks ship mostly-clean data -- the
            # trade-off behind the paper's experimentally-chosen 1 MB.
            # With coalescing, adjacent dirty chunks merge into one
            # transaction per contiguous run.
            runs = tracker.dirty_chunk_runs()
            if self.config.coalesce:
                merged = Bus.coalesce_runs(runs)
                self.transactions_coalesced_away += len(runs) - len(merged)
                runs = merged
            updates.append((g, idx, vals, runs))
        for g, idx, vals, runs in updates:
            targets = [t for t in range(ngpus)
                       if t != g and ma.buffers[t] is not None]
            for t in targets:
                ma.buffers[t].data[idx] = vals
            if targets:
                # Broadcast shape: every replica receives the same
                # dirty chunks, however the transport gets them there.
                self._account(ma.name, "replica",
                              sum(n for _, n in runs) * len(targets))
                self.transport.broadcast(ma.name, g, targets, runs)
        for g in range(ngpus):
            if ma.dirty[g] is not None:
                ma.dirty[g].clear()

    def _propagate_dirty_windowed(self, ma: ManagedArray) -> None:
        """Dirty propagation for a runtime-demoted replica array.

        The array carries dirty-bit instrumentation (the generated code
        is unchanged) but its copies are now blocks from the advisor's
        inferred window.  Every write of GPU ``g`` lands inside its own
        block; other GPUs only need the dirty elements that fall inside
        *their* blocks -- the halo overlap -- instead of the full
        replica broadcast.  One pair per (source, target) of just the
        overlapping bytes.
        """
        ngpus = self.platform.ngpus
        if ngpus == 1:
            if ma.dirty[0] is not None:
                ma.dirty[0].clear()
            return
        plan = ma.windowed_plan
        if plan is None or plan[0] != ma.version:
            # Per source GPU: the resident copies a write of it may land
            # in -- ``(target, block lo, block hi, target data)``.
            # Which elements are dirty is per-launch data; who can
            # receive them is the layout's.
            plan = ma.windowed_plan = (ma.version, [
                [(t, ma.blocks[t].lo, ma.blocks[t].hi, ma.buffers[t].data)
                 for t in range(ngpus)
                 if t != g and ma.buffers[t] is not None]
                for g in range(ngpus)])
        targets = plan[1]
        pairs: list[Pair] = []
        for g in range(ngpus):
            tracker = ma.dirty[g]
            if tracker is None or not tracker.any_dirty:
                continue
            buf = ma.buffers[g]
            assert buf is not None
            g_lo = ma.blocks[g].lo
            # Contiguous-writes fast path: a dense dirty interval
            # intersects each target block as an interval, so both the
            # gather and the scatter become slice copies.
            sl = tracker.dirty_slice()
            if sl is None:
                idx = tracker.dirty_elements()
                vals = buf.data[idx - g_lo].copy()
            for t, tb_lo, tb_hi, t_data in targets[g]:
                if sl is not None:
                    ov_lo = max(sl[0], tb_lo)
                    ov_hi = min(sl[1], tb_hi)
                    n = max(0, ov_hi - ov_lo)
                    if n == 0:
                        continue
                    slo = ov_lo - g_lo
                    t_data[ov_lo - tb_lo:ov_hi - tb_lo] = \
                        buf.data[slo:slo + n]
                else:
                    sel = (idx >= tb_lo) & (idx < tb_hi)
                    n = int(sel.sum())
                    if n == 0:
                        continue
                    t_data[idx[sel] - tb_lo] = vals[sel]
                pairs.append((g, t, n * ma.itemsize))
        self._ship(ma.name, "windowed", MECH_WINDOWED, pairs)
        for g in range(ngpus):
            if ma.dirty[g] is not None:
                ma.dirty[g].clear()

    # -- distributed arrays --------------------------------------------------------------

    def _route_misses(self, ma: ManagedArray) -> None:
        ngpus = self.platform.ngpus
        pairs: list[Pair] = []
        for g in range(ngpus):
            buf = ma.miss[g]
            if buf is None or buf.count == 0:
                continue
            per_target_bytes = [0] * ngpus
            # Batched replay: adjacent same-op record groups collapse
            # into one ownership partition + one scatter per owner
            # instead of per-record-group work.  Replay order within
            # each op is preserved, so results match drain() exactly.
            for addrs, vals, op in buf.drain_batched():
                owners = owner_of(addrs, ma.primary)
                for t in np.unique(owners):
                    t = int(t)
                    sel = owners == t
                    if t == g:
                        raise CommError(
                            f"write miss on {ma.name!r} routed to its own "
                            "GPU: window/ownership inconsistency")
                    tgt = ma.buffers[t]
                    if tgt is None:
                        raise CommError(
                            f"no resident block for {ma.name!r} on GPU {t}")
                    local = addrs[sel] - ma.blocks[t].lo
                    v = vals[sel] if isinstance(vals, np.ndarray) and vals.shape else vals
                    ks.store(tgt.data, local, v, op)
                    per_target_bytes[t] += int(sel.sum()) * RECORD_BYTES
            pairs += [(g, t, nbytes)
                      for t, nbytes in enumerate(per_target_bytes) if nbytes]
            # Release any overflow growth steps: the buffer returns to
            # its up-front capacity for the next loop (high_water keeps
            # the peak for the Fig. 9 accounting).
            buf.reset()
        self._ship(ma.name, "miss", MECH_MISS_REPLAY, pairs)

    def _refresh_halos(self, ma: ManagedArray) -> None:
        """Owner blocks changed: update overlapping copies on other GPUs.

        The layout's exchange -- copies, bytes and the transport's
        route of its pairs -- is derived once per ``ma.version``."""
        plan = ma.halo_plan
        if plan is None or plan[0] != ma.version:
            copies, pairs = self._derive_halo_plan(ma)
            plan = ma.halo_plan = (ma.version, copies,
                                   sum(n for _, _, n in pairs),
                                   self.transport.route(pairs))
        _, copies, nbytes, route = plan
        if copies:
            for dst, src in copies:
                np.copyto(dst, src)
            self._account(ma.name, "halo", nbytes)
            self.transport.ship(ma.name, MECH_HALO, route)

    def _derive_halo_plan(self, ma: ManagedArray) -> tuple[list, list[Pair]]:
        """Halo exchange of the resident layout: every ``(dst_view,
        src_view)`` where a primary block overlaps another GPU's copy,
        and the matching ``(src_gpu, dst_gpu, nbytes)`` pairs, in issue
        order.  The views alias the live device buffers, so the plan is
        only valid for the ``ma.version`` it was built at.
        """
        ngpus = self.platform.ngpus
        copies: list[tuple] = []
        pairs: list[Pair] = []
        for g in range(ngpus):
            src = ma.buffers[g]
            if src is None:
                continue
            prim = ma.primary[g].intersect(ma.blocks[g])
            if prim.size == 0:
                continue
            for t in range(ngpus):
                if t == g or ma.buffers[t] is None:
                    continue
                ov = prim.intersect(ma.blocks[t])
                if ov.size == 0:
                    continue
                src_lo = ov.lo - ma.blocks[g].lo
                dst_lo = ov.lo - ma.blocks[t].lo
                copies.append((ma.buffers[t].data[dst_lo:dst_lo + ov.size],
                               src.data[src_lo:src_lo + ov.size]))
                pairs.append((g, t, ov.size * ma.itemsize))
        return copies, pairs

    # -- reduction destinations ------------------------------------------------------------

    def _merge_reduction(self, ma: ManagedArray, cfg: ArrayConfig) -> None:
        """Hierarchical reduction, final (inter-GPU) level (section IV-B4).

        Partial results live in each GPU's private copy.  With
        ``tree_reduction`` (the default) they merge in ``log2(G)``
        rounds of *concurrent* pairwise transfers (disjoint GPU pairs
        use disjoint links); the flat variant gathers everything to
        GPU 0 through its single link, in one round.  Either way the
        combined result (including the host's initial values) is
        broadcast back over the same hops, last round first, direction
        swapped.  Each hop depends on the one before, so hops go
        ``direct`` whatever the transport.
        """
        op = cfg.reduction_op or "+"
        ngpus = self.platform.ngpus
        alive = [g for g in range(ngpus) if ma.buffers[g] is not None]
        nbytes = ma.length * ma.itemsize
        rounds: list[list[tuple[int, int]]] = []  # (src, dst) merge hops
        if self.config.tree_reduction:
            stride = 1
            while stride < len(alive):
                rounds.append([(alive[k + stride], alive[k]) for k in
                               range(0, len(alive) - stride, 2 * stride)])
                stride *= 2
        elif len(alive) > 1:
            rounds.append([(g, alive[0]) for g in alive[1:]])
        for hops in rounds:
            self._ship(ma.name, "reduction", MECH_REDUCTION_MERGE,
                       [(src, dst, nbytes) for src, dst in hops], direct=True)
            for src, dst in hops:
                np.copyto(ma.buffers[dst].data,
                          _combine(op, ma.buffers[dst].data,
                                   ma.buffers[src].data))
        merged = _combine(op, np.asarray(ma.host).copy(),
                          ma.buffers[alive[0]].data) if alive else \
            np.asarray(ma.host).copy()
        ma.store_home(0, ma.length,
                      merged.astype(ma.host.dtype, copy=False))
        for g in alive:
            np.copyto(ma.buffers[g].data, ma.host)
        for hops in reversed(rounds):
            self._ship(ma.name, "reduction", MECH_REDUCTION_BCAST,
                       [(dst, src, nbytes) for src, dst in hops], direct=True)
        ma.device_ahead = False
        ma.materialized = True
        # The buffers now hold a coherent full replica of the merged data,
        # so a follow-up loop reading this array replica-placed skips the
        # reload entirely.
        ma.placement = Placement.REPLICA
        ma.signature = _uniform_signature(Placement.REPLICA, ma.length,
                                          ngpus, False)


def _combine(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    if op == "max":
        return np.maximum(a, b)
    if op == "min":
        return np.minimum(a, b)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    raise CommError(f"unsupported reduction combine op {op!r}")
