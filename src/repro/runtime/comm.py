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

Two execution modes:

* **synchronous** (default; the paper's behavior): all queued transfers
  are synchronized once per phase and the elapsed time lands in the
  ``GPU-GPU`` profiler bucket that Fig. 8 reports;
* **pipelined** (``overlap=True``): transfers are issued with
  dependencies -- ``not_before`` the producing/consuming kernels'
  completion -- and mirrored onto one comm stream per GPU, and the
  *next* loop's kernels gate only on the arrays they actually touch
  (:meth:`CommunicationManager.ready_time`).  Replica broadcasts to two
  or more peers may be staged through host memory (one D2H chained to
  per-replica H2Ds) when the model prices that below fanning the source
  link out with peer copies.  Reduction merges always fall back to a
  synchronous barrier because the host consumes the values immediately.
  Exposed vs hidden time is split by
  :meth:`~repro.vcuda.api.Platform.timeline_advance`.

Either way the *data* effects stay eager NumPy copies, which is why app
results are bit-identical with overlap on or off.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..trace.events import (
    MECH_HALO,
    MECH_INTERNODE_STAGED,
    MECH_MISS_REPLAY,
    MECH_REDUCTION_BCAST,
    MECH_REDUCTION_MERGE,
    MECH_REPLICA,
    MECH_REPLICA_STAGED,
    MECH_WINDOWED,
)
from ..translator import kernel_support as ks
from ..translator.array_config import ArrayConfig, Placement, WriteHandling
from ..vcuda.api import Platform
from ..vcuda.bus import Bus, CATEGORY_GPU_GPU, Transfer
from ..vcuda.stream import Event, Stream
from .collectives import COLLECTIVE_MODES, CollectiveEngine
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
    #: Per GPU: comm-stream event covering this array's transfers.
    events: list[Event | None] = field(default_factory=list)


class CommunicationManager:
    """Executes the post-kernel coherence step for one loop."""

    def __init__(self, platform: Platform, loader: DataLoader,
                 tree_reduction: bool = True,
                 overlap: bool = False,
                 coalesce: bool = False,
                 tracer: Any | None = None,
                 internode: str = "staged",
                 collective: str = "none") -> None:
        if internode not in ("staged", "naive"):
            raise ValueError(
                f"internode must be 'staged' or 'naive', got {internode!r}")
        if collective not in COLLECTIVE_MODES:
            raise ValueError(
                f"collective must be one of {COLLECTIVE_MODES}, "
                f"got {collective!r}")
        self.platform = platform
        self.loader = loader
        #: Cross-node transport for halo/miss/windowed/replica traffic:
        #: ``staged`` aggregates per node pair (gather the boundary
        #: chunks to the source node's host, one NIC transfer, scatter
        #: on arrival); ``naive`` ships one NIC transfer per GPU pair.
        #: Irrelevant (and unused) on single-node machines.
        self.internode = internode
        #: Collective schedule for replica broadcasts and staged
        #: exchanges: ``none`` keeps the legacy per-destination /
        #: per-node-pair schedule exactly; ``ring``/``tree`` force one
        #: structured schedule; ``auto`` selects per transfer from the
        #: modeled topology (docs/COLLECTIVES.md).  Timing-only: array
        #: results are bit-identical across modes.  Only applies on the
        #: ``staged`` transport -- ``naive`` stays naive so the
        #: ablation baseline is undisturbed.
        self.collective = collective
        self.collectives = (
            CollectiveEngine(platform, collective, tracer=tracer)
            if collective != "none" else None)
        #: Opt-in tracer: transfers issued inside a :meth:`_tag` block
        #: carry the coherence mechanism and array that produced them.
        self.tracer = tracer
        #: Merge reduction partials with a binary tree (log G rounds of
        #: concurrent pairwise transfers) rather than a flat gather to
        #: GPU 0 -- the inter-GPU level of the paper's hierarchical
        #: reduction.  The flat variant is kept for the ablation.
        self.tree_reduction = tree_reduction
        #: Issue coherence traffic asynchronously and let later kernels
        #: overlap with it (event-gated launches).
        self.overlap = overlap
        #: Merge adjacent dirty chunks into one transaction per run.
        self.coalesce = coalesce
        #: One comm stream per GPU; every bus transfer is mirrored onto
        #: its endpoint streams, so recorded events carry per-device
        #: communication completion times.
        self.streams = [Stream(g, platform.clock)
                        for g in range(platform.ngpus)]
        #: In-flight traffic per array name (overlap mode only).
        self.pending: dict[str, PendingComm] = {}
        self._active: PendingComm | None = None
        #: Telemetry: bytes shipped per mechanism (tests/benchmarks).
        self.bytes_replica = 0
        self.bytes_miss = 0
        self.bytes_halo = 0
        self.bytes_reduction = 0
        #: Dirty-element propagation of runtime-demoted (distributed)
        #: replica arrays: only copies whose block overlaps the writes
        #: are updated.
        self.bytes_windowed = 0
        #: Per-array cumulative bytes by mechanism, and the same for the
        #: most recent :meth:`after_kernels` call only.  The adaptive
        #: placement advisor reads the per-call numbers.
        self.per_array_bytes: dict[str, dict[str, int]] = {}
        self.last_call_bytes: dict[str, dict[str, int]] = {}
        #: Telemetry: bus transactions issued / saved by coalescing.
        self.transactions = 0
        self.transactions_coalesced_away = 0
        self.staged_broadcasts = 0
        #: Telemetry: bytes that crossed a node boundary (NIC bytes --
        #: aggregated totals under ``staged``, per-pair sums under
        #: ``naive``) and staged node-pair exchanges performed.
        self.bytes_internode = 0
        self.staged_exchanges = 0

    # -- collective telemetry (0 when the engine is off) ---------------------------

    @property
    def collective_broadcasts(self) -> int:
        """Collective (ring/tree) broadcasts scheduled by the engine."""
        if self.collectives is None:
            return 0
        return sum(self.collectives.broadcasts.values())

    @property
    def collective_steps(self) -> int:
        """Pipeline steps (chunk hops) scheduled by the engine."""
        return 0 if self.collectives is None else self.collectives.steps

    @property
    def bytes_collective(self) -> int:
        """Wire bytes moved under collective schedules (each hop a
        relayed chunk traverses counts once)."""
        if self.collectives is None:
            return 0
        return sum(self.collectives.bytes_scheduled.values())

    # -- top level -----------------------------------------------------------------

    def after_kernels(self, configs: dict[str, ArrayConfig],
                      host_env: dict[str, Any] | None = None) -> float:
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
                if self.overlap:
                    # Conservative synchronous fallback: the merged
                    # values are consumed right away (host readback,
                    # placement flip), so barrier on the producing
                    # kernels and expose the merge traffic.
                    self._kernel_barrier()
                self._merge_reduction(ma, cfg)
                if self.overlap and self.platform.bus.pending_count():
                    self.platform.bus.sync_split()
            if cfg.written:
                ma.device_ahead = cfg.write_handling != WriteHandling.REDUCTION
        if not self.overlap:
            if self.platform.bus.pending_count():
                # sync_split == sync(CATEGORY_GPU_GPU) when nothing NET
                # is pending; on a cluster the NIC tail past the last
                # intra-node completion lands in the NET lane.
                return self.platform.bus.sync_split()
            return 0.0
        return clock.elapsed_in(CATEGORY_GPU_GPU) - gg0

    def _tag(self, mechanism: str, array: str | None):
        """Mechanism/array annotation for bus transfers issued inside."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.tag(mechanism, array)

    # -- overlap bookkeeping -----------------------------------------------------

    def _begin(self, ma: ManagedArray) -> None:
        if not self.overlap:
            return
        ngpus = self.platform.ngpus
        prev = self.pending.pop(ma.name, None)
        pc = PendingComm(name=ma.name,
                         inbound_ready=[0.0] * ngpus,
                         involved_ready=[0.0] * ngpus,
                         events=[None] * ngpus)
        if prev is not None and prev.finish > self.platform.clock.now:
            # Unfinished older traffic on the same array still gates.
            pc.inbound_ready = list(prev.inbound_ready)
            pc.involved_ready = list(prev.involved_ready)
            pc.finish = prev.finish
            pc.halo_only = prev.halo_only
        self._active = pc

    def _commit(self, halo_only: bool) -> None:
        if not self.overlap:
            return
        pc = self._active
        self._active = None
        assert pc is not None
        if pc.finish <= self.platform.clock.now:
            return  # nothing (still) in flight
        pc.halo_only = pc.halo_only and halo_only
        for g in range(self.platform.ngpus):
            pc.events[g] = self.streams[g].record_event()
        self.pending[pc.name] = pc

    def _note(self, tr: Transfer, src: int | None, dst: int | None) -> None:
        """Record one scheduled transfer: stream mirror + dependences."""
        self.transactions += 1
        if not self.overlap:
            return
        pc = self._active
        label = f"{pc.name}:{tr.kind}" if pc is not None else tr.kind
        for g in (src, dst):
            if g is not None:
                self.streams[g].enqueue_at(label, tr.start, tr.end)
        if pc is None:
            return
        pc.finish = max(pc.finish, tr.end)
        for g in (src, dst):
            if g is not None:
                pc.involved_ready[g] = max(pc.involved_ready[g], tr.end)
        if dst is not None:
            pc.inbound_ready[dst] = max(pc.inbound_ready[dst], tr.end)

    def _floor(self, *gpus: int | None) -> float:
        """Issue dependency of a transfer: the endpoint GPUs' queued
        kernels produce (source) or still read (destination) the
        buffers, so the copy may not start before they finish."""
        if not self.overlap:
            return 0.0
        devs = self.platform.devices
        floor = 0.0
        for g in gpus:
            if g is not None and devs[g].busy_until > floor:
                floor = devs[g].busy_until
        return floor

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

    def _account(self, name: str, kind: str, nbytes: int,
                 transfers: int = 0) -> None:
        """Per-array telemetry: cumulative and most-recent-call bytes."""
        d = self.last_call_bytes.setdefault(name, {})
        d[kind] = d.get(kind, 0) + nbytes
        if transfers:
            k = kind + "_transfers"
            d[k] = d.get(k, 0) + transfers
        t = self.per_array_bytes.setdefault(name, {})
        t[kind] = t.get(kind, 0) + nbytes

    # -- inter-node transport -----------------------------------------------------

    def _node(self, g: int) -> int:
        return self.platform.node_of(g)

    def _flush_internode(self, ma: ManagedArray, mech: str,
                         pairs: list[tuple[int, int, int]]) -> None:
        """Ship cross-node ``(src_gpu, dst_gpu, nbytes)`` pairs whose
        data copies already happened (pairwise-distinct payloads:
        halo slabs, windowed dirty overlaps, miss records).

        ``staged``: per (source node, destination node) pair, gather
        each source GPU's bytes to the node host (D2H), one aggregated
        NIC transfer, scatter per destination GPU (H2D) -- one NIC
        message per node pair instead of one per GPU pair, which is
        what amortizes the NIC latency and is the measured win of the
        multinode ablation.  ``naive``: one NIC transfer per GPU pair
        (the bus routes cross-node peer copies over the NIC itself).
        """
        if not pairs:
            return
        bus = self.platform.bus
        if self.internode == "naive":
            with self._tag(mech, ma.name):
                for g, t, nbytes in pairs:
                    tr = bus.p2p(g, t, nbytes, not_before=self._floor(g, t))
                    self._note(tr, g, t)
                    self.bytes_internode += nbytes
            return
        groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for g, t, nbytes in pairs:
            groups.setdefault((self._node(g), self._node(t)), []) \
                .append((g, t, nbytes))
        if self.collectives is not None:
            # Progress engine: same per-node-pair aggregation, but the
            # gather/NIC/scatter legs pipeline in NIC-sized chunks so
            # NET time hides behind the PCIe legs (docs/COLLECTIVES.md).
            for sn, dn in sorted(groups):
                outbound = {}
                inbound = {}
                for g, t, nbytes in groups[(sn, dn)]:
                    outbound[g] = outbound.get(g, 0) + nbytes
                    inbound[t] = inbound.get(t, 0) + nbytes
                self.collectives.exchange(ma.name, sn, dn, outbound,
                                          inbound, self._floor, self._note)
                self.bytes_internode += sum(outbound.values())
                self.staged_exchanges += 1
            return
        with self._tag(MECH_INTERNODE_STAGED, ma.name):
            for sn, dn in sorted(groups):
                outbound: dict[int, int] = {}
                inbound: dict[int, int] = {}
                for g, t, nbytes in groups[(sn, dn)]:
                    outbound[g] = outbound.get(g, 0) + nbytes
                    inbound[t] = inbound.get(t, 0) + nbytes
                gather_end = 0.0
                for g in sorted(outbound):
                    d = bus.d2h(g, outbound[g], not_before=self._floor(g),
                                category=CATEGORY_GPU_GPU, local=True)
                    self._note(d, g, None)
                    gather_end = max(gather_end, d.end)
                total = sum(outbound.values())
                net = bus.net(sn, dn, total, not_before=gather_end)
                self._note(net, None, None)
                self.bytes_internode += total
                self.staged_exchanges += 1
                for t in sorted(inbound):
                    h = bus.h2d(t, inbound[t],
                                not_before=max(net.end, self._floor(t)),
                                category=CATEGORY_GPU_GPU, local=True)
                    self._note(h, None, t)

    def _replica_internode(self, ma: ManagedArray, g: int, far: list[int],
                           runs: list[tuple[int, int]], total: int) -> None:
        """Propagate one source GPU's dirty bytes to replicas on other
        nodes.  Unlike :meth:`_flush_internode` the payload is *shared*
        (every replica receives the same dirty elements), so staging
        dedups: one D2H gather on the source node, one NIC transfer of
        ``total`` per destination node -- not per member -- then a
        per-member H2D scatter."""
        bus = self.platform.bus
        if self.internode == "naive":
            with self._tag(MECH_REPLICA, ma.name):
                for t in far:
                    nb = self._floor(g, t)
                    for _, nbytes in runs:
                        tr = bus.p2p(g, t, nbytes, not_before=nb)
                        self._note(tr, g, t)
                        self.bytes_replica += nbytes
                        self.bytes_internode += nbytes
                        self._account(ma.name, "replica", nbytes, transfers=1)
            return
        by_node: dict[int, list[int]] = {}
        for t in far:
            by_node.setdefault(self._node(t), []).append(t)
        if self.collectives is not None:
            # Ring/tree broadcast between the destination node hosts
            # instead of one NIC transfer per destination node from the
            # source: same dedup (each node receives ``total`` once),
            # but the source NIC port is loaded once and the hops
            # pipeline (docs/COLLECTIVES.md).
            self.collectives.node_broadcast(ma.name, g, by_node, total,
                                            self._floor, self._note)
            for dn in sorted(by_node):
                self.bytes_internode += total
                for t in by_node[dn]:
                    self.bytes_replica += total
                    self._account(ma.name, "replica", total, transfers=1)
            return
        with self._tag(MECH_INTERNODE_STAGED, ma.name):
            d = bus.d2h(g, total, not_before=self._floor(g),
                        category=CATEGORY_GPU_GPU, local=True)
            self._note(d, g, None)
            src_node = self._node(g)
            for dn in sorted(by_node):
                net = bus.net(src_node, dn, total, not_before=d.end)
                self._note(net, None, None)
                self.bytes_internode += total
                self.staged_exchanges += 1
                for t in by_node[dn]:
                    h = bus.h2d(t, total,
                                not_before=max(net.end, self._floor(t)),
                                category=CATEGORY_GPU_GPU, local=True)
                    self._note(h, None, t)
                    self.bytes_replica += total
                    self._account(ma.name, "replica", total, transfers=1)

    # -- replicated arrays ------------------------------------------------------------

    def _propagate_replica(self, ma: ManagedArray) -> None:
        ngpus = self.platform.ngpus
        if ngpus == 1:
            tracker = ma.dirty[0]
            if tracker is not None:
                tracker.clear()
            return
        bus = self.platform.bus
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
            if self.coalesce:
                merged = Bus.coalesce_runs(runs)
                self.transactions_coalesced_away += len(runs) - len(merged)
                runs = merged
            updates.append((g, idx, vals, runs))
        for g, idx, vals, runs in updates:
            targets = [t for t in range(ngpus)
                       if t != g and ma.buffers[t] is not None]
            for t in targets:
                ma.buffers[t].data[idx] = vals
            if not targets:
                continue
            total = sum(n for _, n in runs)
            # Node-local replicas ride the PCIe paths below unchanged;
            # replicas on other nodes go through the NIC transport (on
            # a single-node machine ``far`` is always empty and this
            # split is the identity).
            near = [t for t in targets if self._node(t) == self._node(g)]
            far = [t for t in targets if self._node(t) != self._node(g)]
            if far:
                self._replica_internode(ma, g, far, runs, total)
            targets = near
            if not targets:
                continue
            if (self.collectives is not None
                    and self.collectives.gpu_broadcast(
                        ma.name, g, targets, runs, total,
                        self._floor, self._note) is not None):
                # Hub-local ring chain or binomial p2p tree between the
                # node's replicas; ``auto`` returns None when the
                # direct fan-out prices cheaper and we fall through to
                # the legacy paths unchanged.
                for t in targets:
                    self.bytes_replica += total
                    self._account(ma.name, "replica", total, transfers=1)
            elif self._stage_broadcast(g, targets, runs, total):
                # Host-staged broadcast: one D2H of the dirty bytes,
                # then one H2D per replica chained on its completion.
                # For a fan-out of two or more this loads each link
                # once instead of occupying the source link per peer
                # (and avoids repeated QPI crossings on dual-hub
                # nodes); it needs async transfers with dependencies,
                # so it only runs in overlap mode.  Logically it is
                # inter-GPU traffic: the pieces carry a GPU-GPU
                # category override.
                with self._tag(MECH_REPLICA_STAGED, ma.name):
                    d = bus.d2h(g, total, not_before=self._floor(g),
                                category=CATEGORY_GPU_GPU)
                    self._note(d, g, None)
                    self.staged_broadcasts += 1
                    for t in targets:
                        h = bus.h2d(t, total,
                                    not_before=max(d.end, self._floor(t)),
                                    category=CATEGORY_GPU_GPU)
                        self._note(h, None, t)
                        self.bytes_replica += total
                        self._account(ma.name, "replica", total, transfers=1)
            else:
                with self._tag(MECH_REPLICA, ma.name):
                    for t in targets:
                        nb = self._floor(g, t)
                        for _, nbytes in runs:
                            tr = bus.p2p(g, t, nbytes, not_before=nb)
                            self._note(tr, g, t)
                            self.bytes_replica += nbytes
                            self._account(ma.name, "replica", nbytes,
                                          transfers=1)
        for g in range(ngpus):
            if ma.dirty[g] is not None:
                ma.dirty[g].clear()

    def _stage_broadcast(self, g: int, targets: list[int],
                         runs: list[tuple[int, int]], total: int) -> bool:
        """Price direct fan-out vs host staging for one source GPU."""
        if not self.overlap or len(targets) < 2 or total == 0:
            return False
        bus = self.platform.bus
        direct = sum(bus.duration("p2p", n, g, t)
                     for t in targets for _, n in runs)
        staged = (bus.duration("d2h", total, g, None)
                  + bus.duration("h2d", total, None, g))
        return staged < direct

    def _propagate_dirty_windowed(self, ma: ManagedArray) -> None:
        """Dirty propagation for a runtime-demoted replica array.

        The array carries dirty-bit instrumentation (the generated code
        is unchanged) but its copies are now blocks from the advisor's
        inferred window.  Every write of GPU ``g`` lands inside its own
        block; other GPUs only need the dirty elements that fall inside
        *their* blocks -- the halo overlap -- instead of the full
        replica broadcast.  One transfer per (source, target) pair of
        just the overlapping bytes.
        """
        ngpus = self.platform.ngpus
        if ngpus == 1:
            if ma.dirty[0] is not None:
                ma.dirty[0].clear()
            return
        plan = ma.windowed_plan
        if plan is None or plan[0] != ma.version:
            # Per source GPU: the resident copies a write of it may land
            # in -- ``(target, block lo, block hi, target data,
            # cross_node)``.  Which elements are dirty is per-launch
            # data; who can receive them is the layout's.
            plan = ma.windowed_plan = (ma.version, [
                [(t, ma.blocks[t].lo, ma.blocks[t].hi, ma.buffers[t].data,
                  self._node(t) != self._node(g))
                 for t in range(ngpus)
                 if t != g and ma.buffers[t] is not None]
                for g in range(ngpus)])
        targets = plan[1]
        bus = self.platform.bus
        cross: list[tuple[int, int, int]] = []
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
            for t, tb_lo, tb_hi, t_data, cross_node in targets[g]:
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
                nbytes = n * ma.itemsize
                if cross_node:
                    cross.append((g, t, nbytes))
                else:
                    with self._tag(MECH_WINDOWED, ma.name):
                        tr = bus.p2p(g, t, nbytes,
                                     not_before=self._floor(g, t))
                    self._note(tr, g, t)
                self.bytes_windowed += nbytes
                self._account(ma.name, "windowed", nbytes, transfers=1)
        self._flush_internode(ma, MECH_WINDOWED, cross)
        for g in range(ngpus):
            if ma.dirty[g] is not None:
                ma.dirty[g].clear()

    # -- distributed arrays --------------------------------------------------------------

    def _route_misses(self, ma: ManagedArray) -> None:
        ngpus = self.platform.ngpus
        cross: list[tuple[int, int, int]] = []
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
            for t, nbytes in enumerate(per_target_bytes):
                if nbytes:
                    if self._node(t) != self._node(g):
                        cross.append((g, t, nbytes))
                    else:
                        with self._tag(MECH_MISS_REPLAY, ma.name):
                            tr = self.platform.bus.p2p(
                                g, t, nbytes, not_before=self._floor(g, t))
                        self._note(tr, g, t)
                    self.bytes_miss += nbytes
                    self._account(ma.name, "miss", nbytes, transfers=1)
            # Release any overflow growth steps: the buffer returns to
            # its up-front capacity for the next loop (high_water keeps
            # the peak for the Fig. 9 accounting).
            buf.reset()
        self._flush_internode(ma, MECH_MISS_REPLAY, cross)

    def _refresh_halos(self, ma: ManagedArray) -> None:
        """Owner blocks changed: update overlapping copies on other GPUs."""
        plan = ma.halo_plan
        if plan is None or plan[0] != ma.version:
            plan = ma.halo_plan = (ma.version, self._derive_halo_plan(ma))
        copies, cross = plan[1]
        bus = self.platform.bus
        name = ma.name
        with self._tag(MECH_HALO, name):
            for g, t, dst, src, nbytes, cross_node in copies:
                np.copyto(dst, src)
                if not cross_node:
                    tr = bus.p2p(g, t, nbytes, not_before=self._floor(g, t))
                    self._note(tr, g, t)
                self.bytes_halo += nbytes
                self._account(name, "halo", nbytes, transfers=1)
        self._flush_internode(ma, MECH_HALO, cross)

    def _derive_halo_plan(self, ma: ManagedArray) -> tuple[list, list]:
        """Halo exchange schedule of the resident layout: every
        ``(src_gpu, dst_gpu, dst_view, src_view, nbytes, cross_node)``
        where a primary block overlaps another GPU's copy, in issue
        order, plus the ``(src_gpu, dst_gpu, nbytes)`` pairs that cross
        a node boundary.  The views alias the live device buffers, so
        the plan is only valid for the ``ma.version`` it was built at.
        """
        ngpus = self.platform.ngpus
        copies: list[tuple] = []
        cross: list[tuple[int, int, int]] = []
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
                nbytes = ov.size * ma.itemsize
                cross_node = self._node(t) != self._node(g)
                copies.append((g, t,
                               ma.buffers[t].data[dst_lo:dst_lo + ov.size],
                               src.data[src_lo:src_lo + ov.size],
                               nbytes, cross_node))
                if cross_node:
                    cross.append((g, t, nbytes))
        return copies, cross

    # -- reduction destinations ------------------------------------------------------------

    def _note_reduction(self, tr: Transfer, src: int, dst: int,
                        nbytes: int) -> None:
        self._note(tr, src, dst)
        self.bytes_reduction += nbytes
        if tr.cross_node:
            self.bytes_internode += nbytes

    def _merge_reduction(self, ma: ManagedArray, cfg: ArrayConfig) -> None:
        """Hierarchical reduction, final (inter-GPU) level (section IV-B4).

        Partial results live in each GPU's private copy.  With
        ``tree_reduction`` (the default) they merge in ``log2(G)``
        rounds of *concurrent* pairwise transfers (disjoint GPU pairs
        use disjoint links); the flat variant gathers everything to
        GPU 0 through its single link.  Either way the combined result
        (including the host's initial values) is broadcast back.
        """
        op = cfg.reduction_op or "+"
        ngpus = self.platform.ngpus
        alive = [g for g in range(ngpus) if ma.buffers[g] is not None]
        nbytes = ma.length * ma.itemsize
        if len(alive) > 1:
            if self.tree_reduction:
                stride = 1
                while stride < len(alive):
                    for k in range(0, len(alive) - stride, 2 * stride):
                        src = alive[k + stride]
                        dst = alive[k]
                        with self._tag(MECH_REDUCTION_MERGE, ma.name):
                            tr = self.platform.bus.p2p(src, dst, nbytes)
                        self._note_reduction(tr, src, dst, nbytes)
                        np.copyto(
                            ma.buffers[dst].data,
                            _combine(op, ma.buffers[dst].data,
                                     ma.buffers[src].data))
                    stride *= 2
            else:
                root = alive[0]
                for g in alive[1:]:
                    with self._tag(MECH_REDUCTION_MERGE, ma.name):
                        tr = self.platform.bus.p2p(g, root, nbytes)
                    self._note_reduction(tr, g, root, nbytes)
                    np.copyto(
                        ma.buffers[root].data,
                        _combine(op, ma.buffers[root].data,
                                 ma.buffers[g].data))
        merged = _combine(op, np.asarray(ma.host).copy(),
                          ma.buffers[alive[0]].data) if alive else \
            np.asarray(ma.host).copy()
        ma.store_home(0, ma.length,
                      merged.astype(ma.host.dtype, copy=False))
        # Broadcast the final values back (reverse tree / flat fan-out).
        for g in alive:
            np.copyto(ma.buffers[g].data, ma.host)
        if len(alive) > 1:
            if self.tree_reduction:
                stride = 1
                levels: list[list[tuple[int, int]]] = []
                while stride < len(alive):
                    level = []
                    for k in range(0, len(alive) - stride, 2 * stride):
                        level.append((alive[k], alive[k + stride]))
                    levels.append(level)
                    stride *= 2
                for level in reversed(levels):
                    for src, dst in level:
                        with self._tag(MECH_REDUCTION_BCAST, ma.name):
                            tr = self.platform.bus.p2p(src, dst, nbytes)
                        self._note_reduction(tr, src, dst, nbytes)
            else:
                root = alive[0]
                for g in alive[1:]:
                    with self._tag(MECH_REDUCTION_BCAST, ma.name):
                        tr = self.platform.bus.p2p(root, g, nbytes)
                    self._note_reduction(tr, root, g, nbytes)
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
