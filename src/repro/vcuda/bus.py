"""PCI-Express + cluster-interconnect model.

Each GPU hangs off its node's host through one PCIe link; peer-to-peer
copies occupy the links of both endpoint GPUs and, on a dual-I/O-hub
node, cross the QPI at reduced bandwidth (``BusSpec.p2p_cross_hub``).

On a :class:`~repro.vcuda.specs.ClusterSpec` machine a second tier
exists: one NIC port per node on a switched fabric
(:class:`~repro.vcuda.specs.NicSpec`).  ``net`` transfers occupy the
NIC ports of both endpoint nodes; peer copies between GPUs on
*different* nodes route over the NIC automatically, and host<->device
transfers for GPUs away from the home node (node 0, where host memory
lives) are staged as a NIC hop chained to the node-local PCIe leg.
On a plain single-node machine none of these paths exist and the
schedule is bit-identical to the pre-cluster model.

Transfers are *asynchronous*: :meth:`Bus.h2d` and friends only reserve
link time and return a :class:`Transfer` with start/end timestamps in
virtual time.  The caller (runtime data loader / communication manager)
synchronizes a batch with :meth:`Bus.sync`, which advances the shared
clock to the batch makespan -- this models the paper's "communications
are executed asynchronously" (section IV-D) where transfers to distinct
GPUs overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

from .clock import VirtualClock
from .specs import BusSpec, ClusterSpec, MachineSpec

TransferKind = Literal["h2d", "d2h", "p2p", "net"]

#: Profiler categories matching the paper's Fig. 8 buckets.
CATEGORY_CPU_GPU = "CPU-GPU"
CATEGORY_GPU_GPU = "GPU-GPU"
CATEGORY_KERNELS = "KERNELS"
#: Inter-GPU transfer time hidden under kernels (or other accounted
#: work) by the asynchronous communication layer.  Charged via
#: :meth:`VirtualClock.charge`, so it never moves the clock: Fig. 8's
#: ``GPU-GPU`` bucket keeps meaning *exposed* communication only.
CATEGORY_GPU_GPU_OVERLAPPED = "GPU-GPU (hidden)"
#: Inter-node (NIC) transfer time -- the new lane multi-node breakdowns
#: report next to the paper's three buckets.
CATEGORY_NET = "NET"
#: NET time hidden under kernels by the async layer (charged, never
#: advances the clock; the NET analogue of ``GPU-GPU (hidden)``).
CATEGORY_NET_OVERLAPPED = "NET (hidden)"

#: Distinct transfer shapes a bus keeps prices for before starting over.
_PRICE_MEMO_LIMIT = 4096


class NetworkError(RuntimeError):
    """A modeled NIC link cannot carry a transfer (dead or degraded to
    zero/invalid bandwidth).  Structured: carries the endpoints and the
    offending bandwidth so fault handling does not parse messages."""

    def __init__(self, src_node: int, dst_node: int,
                 bandwidth: float) -> None:
        super().__init__(
            f"NIC link between node {src_node} and node {dst_node} has "
            f"no usable bandwidth ({bandwidth!r} B/s)")
        self.src_node = src_node
        self.dst_node = dst_node
        self.bandwidth = bandwidth


@dataclass(slots=True)
class Transfer:
    """One scheduled DMA or NIC transfer."""

    kind: TransferKind
    nbytes: int
    src_device: int | None
    dst_device: int | None
    start: float
    end: float
    #: Logical profiler bucket when it differs from the physical kind:
    #: host-staged replica broadcasts move over h2d/d2h links but are
    #: inter-GPU communication for Fig. 8 purposes.
    category_override: str | None = None
    #: Endpoint nodes (always set for ``net`` transfers; set on every
    #: transfer scheduled on a cluster machine).
    src_node: int | None = None
    dst_node: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def category(self) -> str:
        if self.category_override is not None:
            return self.category_override
        if self.kind == "net":
            return CATEGORY_NET
        return CATEGORY_GPU_GPU if self.kind == "p2p" else CATEGORY_CPU_GPU

    @property
    def cross_node(self) -> bool:
        return (self.src_node is not None and self.dst_node is not None
                and self.src_node != self.dst_node)


class Bus:
    """Link-time scheduler for one machine's PCIe + NIC topology."""

    def __init__(self, machine: MachineSpec | ClusterSpec,
                 clock: VirtualClock) -> None:
        self.machine = machine
        self.spec: BusSpec = machine.bus
        self.clock = clock
        #: True on a cluster with two or more nodes: the only case in
        #: which any NIC path is ever taken (one-node machines -- plain
        #: or ClusterSpec -- schedule bit-identically).
        self._multinode = machine.node_count > 1
        #: GPU count, fixed at construction (a cluster sums its nodes'
        #: counts on every ``gpu_count`` read).
        self._gpu_count = machine.gpu_count
        #: Per GPU, resolved once (the topology is fixed for the bus's
        #: life): its I/O hub, its node and that node's PCIe spec.
        gpus = range(self._gpu_count)
        self._dev_hub = [machine.hub_of(g) for g in gpus]
        self._dev_node = [machine.node_of(g) for g in gpus]
        self._dev_spec = [machine.node_bus(n) if self._multinode
                          else self.spec for n in self._dev_node]
        #: Virtual time at which each GPU's PCIe link becomes free.
        self._link_free_at: list[float] = [0.0] * self._gpu_count
        #: Virtual time at which each I/O hub's host uplink frees up.
        self._hub_free_at: list[float] = \
            [0.0] * (1 + max(self._dev_hub, default=0))
        #: Virtual time at which each node's NIC port frees up.
        self._nic_free_at: list[float] = [0.0] * machine.node_count
        self._pending: list[Transfer] = []
        self.completed: list[Transfer] = []
        #: Optional clock-advance hook ``(timestamp, category) -> None``.
        #: When the async communication layer is active the platform
        #: installs its timeline-attributing advance here so that waits
        #: split the advanced interval into kernel / exposed-comm /
        #: hidden-comm segments instead of charging it wholesale.
        self.advancer: Callable[[float, str | None], None] | None = None
        #: Optional pure observer of every scheduled transfer (tracing).
        #: Called right after a transfer is queued; must not touch the
        #: schedule.
        self.observer: Callable[[Transfer], None] | None = None
        #: Prices already computed, keyed by transfer shape (see
        #: :meth:`price_transfer`); cleared when it reaches
        #: :data:`_PRICE_MEMO_LIMIT` entries.
        self._prices: dict[tuple, tuple] = {}

    # -- pricing ------------------------------------------------------------

    def _node_of(self, device: int | None) -> int:
        return 0 if device is None else self._dev_node[device]

    def _bus_spec(self, device: int | None) -> BusSpec:
        """PCIe spec of the node hosting ``device`` (home node for
        host-side endpoints)."""
        return self.spec if device is None else self._dev_spec[device]

    def _duration(self, kind: TransferKind, nbytes: int, src: int | None,
                  dst: int | None) -> float:
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        spec = self._bus_spec(dst if kind == "h2d" else src)
        if nbytes == 0:
            return 0.0
        if kind == "h2d":
            bw = spec.h2d_bandwidth
        elif kind == "d2h":
            bw = spec.d2h_bandwidth
        else:
            assert src is not None and dst is not None
            same_hub = self._dev_hub[src] == self._dev_hub[dst]
            bw = spec.p2p_same_hub if same_hub else spec.p2p_cross_hub
        return spec.latency + nbytes / bw

    def _net_duration(self, src_node: int, dst_node: int,
                      nbytes: int) -> float:
        machine = self.machine
        assert isinstance(machine, ClusterSpec)
        bw = machine.link_bandwidth(src_node, dst_node)
        # Validate the link before the zero-byte shortcut: a transfer
        # over a dead link must fail loudly even when empty, not stall
        # silently or ship stale data.
        if not (bw > 0.0) or bw != bw or bw == float("inf"):
            raise NetworkError(src_node, dst_node, bw)
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if nbytes == 0:
            return 0.0
        return machine.link_latency(src_node, dst_node) + nbytes / bw

    def price_transfer(self, kind: TransferKind, nbytes: int,
                       src: int | None, dst: int | None) -> tuple:
        """What placing a PCIe transfer of this shape costs, as
        ``(duration, hub, hub_occupancy, node)``: its link seconds, the
        I/O hub whose host uplink it also occupies (``None`` for a peer
        copy) and for how long, and the node it runs on.  A pure
        function of the shape on a fixed topology, so it is computed
        once per shape and looked up afterwards; :meth:`place_transfer`
        puts a priced transfer on the links."""
        key = (kind, nbytes, nbytes.__class__, src, dst)
        price = self._prices.get(key)
        if price is not None:
            return price
        duration = self._duration(kind, nbytes, src, dst)
        dev = src if src is not None else dst
        hub = None
        hub_occupancy = 0.0
        if kind != "p2p" and dev is not None:
            # Host transfers also consume the shared I/O-hub uplink, for a
            # fraction of their duration equal to link/uplink bandwidth:
            # concurrent same-hub transfers serialize on that share.
            spec = self._dev_spec[dev]
            hub = self._dev_hub[dev]
            link_bw = (spec.h2d_bandwidth if kind == "h2d"
                       else spec.d2h_bandwidth)
            hub_occupancy = duration * min(
                1.0, link_bw / spec.hub_uplink_bandwidth)
        node = 0 if dev is None else self._dev_node[dev]
        return self._keep_price(key, (duration, hub, hub_occupancy, node))

    def _keep_price(self, key: tuple, price: tuple) -> tuple:
        if len(self._prices) >= _PRICE_MEMO_LIMIT:
            self._prices.clear()
        self._prices[key] = price
        return price

    def place_transfer(
        self, kind: TransferKind, nbytes: int, src: int | None,
        dst: int | None, price: tuple, not_before: float = 0.0,
        category: str | None = None,
    ) -> Transfer:
        """Queue a transfer priced by :meth:`price_transfer`: it starts
        at the latest of now, the issue dependency, both endpoint links
        and the hub uplink, and occupies them for the priced seconds."""
        duration, hub, hub_occupancy, node = price
        free = self._link_free_at
        start = self.clock.now
        if not_before > start:
            start = not_before
        if src is not None and free[src] > start:
            start = free[src]
        if dst is not None and free[dst] > start:
            start = free[dst]
        if hub is not None and self._hub_free_at[hub] > start:
            start = self._hub_free_at[hub]
        end = start + duration
        if src is not None:
            free[src] = end
        if dst is not None:
            free[dst] = end
        if hub is not None:
            self._hub_free_at[hub] = start + hub_occupancy
        t = Transfer(kind, nbytes, src, dst, start, end, category, node, node)
        self._pending.append(t)
        if self.observer is not None:
            self.observer(t)
        return t

    def _schedule(
        self, kind: TransferKind, nbytes: int, src: int | None, dst: int | None,
        not_before: float = 0.0, category: str | None = None,
    ) -> Transfer:
        return self.place_transfer(kind, nbytes, src, dst,
                                   self.price_transfer(kind, nbytes, src, dst),
                                   not_before, category)

    def _schedule_net(
        self, src_node: int, dst_node: int, nbytes: int,
        src: int | None = None, dst: int | None = None,
        not_before: float = 0.0, category: str | None = None,
    ) -> Transfer:
        """Reserve both endpoint nodes' NIC ports (and, for a direct
        cross-node peer copy, the endpoint GPUs' PCIe links)."""
        key = ("net", nbytes, nbytes.__class__, src_node, dst_node)
        price = self._prices.get(key)
        if price is None:
            price = self._keep_price(
                key, (self._net_duration(src_node, dst_node, nbytes),))
        duration, = price
        nic = self._nic_free_at
        free = self._link_free_at
        start = self.clock.now
        if not_before > start:
            start = not_before
        if nic[src_node] > start:
            start = nic[src_node]
        if nic[dst_node] > start:
            start = nic[dst_node]
        if src is not None and free[src] > start:
            start = free[src]
        if dst is not None and free[dst] > start:
            start = free[dst]
        end = start + duration
        nic[src_node] = end
        nic[dst_node] = end
        if src is not None:
            free[src] = end
        if dst is not None:
            free[dst] = end
        t = Transfer("net", nbytes, src, dst, start, end, category,
                     src_node, dst_node)
        self._pending.append(t)
        if self.observer is not None:
            self.observer(t)
        return t

    # -- public API ----------------------------------------------------------

    def h2d(self, device: int, nbytes: int, *, not_before: float = 0.0,
            category: str | None = None, local: bool = False) -> Transfer:
        """Queue a host-to-device copy on ``device``'s link.

        On a cluster, host memory lives on the home node: a copy to a
        GPU on another node first hops the NIC (home -> node), then
        runs the node-local PCIe leg.  ``local=True`` skips the NIC
        hop for data already staged in the target node's host memory
        (the communication manager's aggregated inter-node exchange).
        """
        self._check_device(device)
        node = self._node_of(device)
        if self._multinode and node != 0 and not local:
            hop = self._schedule_net(
                0, node, nbytes, not_before=not_before,
                category=category if category is not None
                else CATEGORY_CPU_GPU)
            not_before = hop.end
        return self._schedule("h2d", nbytes, None, device,
                              not_before=not_before, category=category)

    def d2h(self, device: int, nbytes: int, *, not_before: float = 0.0,
            category: str | None = None, local: bool = False) -> Transfer:
        """Queue a device-to-host copy on ``device``'s link (plus, for
        a remote-node GPU, the NIC hop back to the home node unless
        ``local=True``)."""
        self._check_device(device)
        node = self._node_of(device)
        pcie = self._schedule("d2h", nbytes, device, None,
                              not_before=not_before, category=category)
        if self._multinode and node != 0 and not local:
            return self._schedule_net(
                node, 0, nbytes, not_before=pcie.end,
                category=category if category is not None
                else CATEGORY_CPU_GPU)
        return pcie

    def p2p(self, src: int, dst: int, nbytes: int, *,
            not_before: float = 0.0, category: str | None = None) -> Transfer:
        """Queue a GPU-to-GPU copy occupying both links.

        ``not_before`` is an issue dependency (e.g. "after the producing
        kernel finishes"): the transfer starts no earlier, on top of the
        usual link-availability constraints.  Peers on different nodes
        route over the NIC (a ``net`` transfer occupying both GPUs'
        PCIe links and both nodes' NIC ports).
        """
        price = self.price_p2p(src, dst, nbytes)
        if price is None:
            return self._schedule_net(self._dev_node[src], self._dev_node[dst],
                                      nbytes, src=src, dst=dst,
                                      not_before=not_before, category=category)
        return self.place_transfer("p2p", nbytes, src, dst, price,
                                   not_before, category)

    def price_p2p(self, src: int, dst: int, nbytes: int) -> tuple | None:
        """Check a peer copy's endpoints and price it for
        :meth:`place_transfer`; ``None`` when they sit on different
        nodes (:meth:`p2p` routes that copy over the NIC)."""
        self._check_device(src)
        self._check_device(dst)
        if src == dst:
            raise ValueError("peer copy requires distinct devices")
        if self._multinode and self._dev_node[src] != self._dev_node[dst]:
            return None
        return self.price_transfer("p2p", nbytes, src, dst)

    def net(self, src_node: int, dst_node: int, nbytes: int, *,
            not_before: float = 0.0, category: str | None = None) -> Transfer:
        """Queue a host-to-host NIC transfer between two nodes (the
        aggregated leg of a staged inter-node exchange)."""
        self._check_node(src_node)
        self._check_node(dst_node)
        if src_node == dst_node:
            raise ValueError("net transfer requires distinct nodes")
        return self._schedule_net(src_node, dst_node, nbytes,
                                  not_before=not_before, category=category)

    def net_pipeline(self, path: list[int], chunks: list[int], *,
                     chunk_ready: list[float] | None = None,
                     category: str | None = None,
                     ) -> dict[int, list[Transfer]]:
        """Queue a chunked multi-leg NET pipeline along ``path`` (a
        sequence of distinct nodes).

        Chunk *k* on leg *i* depends on chunk *k* having finished leg
        *i-1*; NIC-port occupancy then serializes same-port chunks, so
        leg *i+1* of chunk *k* naturally overlaps leg *i* of chunk
        *k+1* -- the bandwidth-optimal pipelined schedule a ring
        broadcast prices.  ``chunk_ready[k]`` (optional) is the time
        chunk *k* leaves the source node (e.g. its gather D2H end).

        Returns the per-node arrival transfers: ``result[node][k]`` is
        the transfer that delivered chunk *k* to ``node``.
        """
        if len(path) < 2:
            return {}
        arrivals: dict[int, list[Transfer]] = {n: [] for n in path[1:]}
        legs = list(zip(path, path[1:]))
        # Chunk-major issue order: a chunk traverses every leg before
        # the next chunk is issued.  NIC-port occupancy is a scalar
        # free-at per node, so leg-major order would (wrongly) make a
        # relay node wait for the whole inbound leg before forwarding
        # anything.
        for k, nbytes in enumerate(chunks):
            ready = chunk_ready[k] if chunk_ready is not None else 0.0
            for a, b in legs:
                tr = self.net(a, b, nbytes, not_before=ready,
                              category=category)
                ready = tr.end
                arrivals[b].append(tr)
        return arrivals

    def sync(self, category: str | None = None) -> float:
        """Wait for all queued transfers; advance the clock to the makespan.

        Returns the makespan seconds of this batch (0 if nothing was
        pending or everything already completed).  The advanced wall
        time is attributed to ``category`` (or each transfer's own
        category bucket when the batch is homogeneous and ``category``
        is None).
        """
        if not self._pending:
            return 0.0
        finish = max(t.end for t in self._pending)
        if category is None:
            cats = {t.category for t in self._pending}
            if len(cats) != 1:
                raise ValueError(
                    "mixed-category transfer batch requires an explicit category"
                )
            category = cats.pop()
        before = self.clock.now
        self._advance_to(finish, category)
        makespan = self.clock.now - before
        self.completed.extend(self._pending)
        self._pending.clear()
        return makespan

    def sync_split(self, category: str = CATEGORY_GPU_GPU,
                   net_category: str = CATEGORY_NET) -> float:
        """Wait for all queued transfers, attributing intra-node time
        to ``category`` and any remaining NIC tail to ``net_category``.

        With no NET transfers pending this is exactly :meth:`sync`
        with an explicit category (one clock advance, bit for bit), so
        single-node runs are unchanged.  With NET pending the wait is
        walked segment by segment: intervals where an intra-node
        transfer is active land in ``category``, NIC-only intervals in
        ``net_category`` (and schedule gaps in ``category``), which is
        how Fig-8-style breakdowns reconcile per node.
        """
        if not self._pending:
            return 0.0
        before = self.clock.now
        finish = max(t.end for t in self._pending)
        if not any(t.category == net_category for t in self._pending):
            self._advance_to(finish, category)
        else:
            ivs = [(max(t.start, before), t.end,
                    t.category == net_category)
                   for t in self._pending if t.end > before]
            points = sorted({before, finish}
                            | {p for s, e, _ in ivs for p in (s, e)})
            for a, b in zip(points, points[1:]):
                mid = (a + b) / 2.0
                net_only = (any(is_net for s, e, is_net in ivs
                                if s <= mid < e)
                            and not any(not is_net for s, e, is_net in ivs
                                        if s <= mid < e))
                self._advance_to(b, net_category if net_only else category)
        makespan = self.clock.now - before
        self.completed.extend(self._pending)
        self._pending.clear()
        return makespan

    def sync_category(self, category: str) -> float:
        """Wait only for pending transfers whose bucket is ``category``.

        Unlike :meth:`sync` this leaves transfers of other categories
        in flight (the async communication layer keeps GPU-GPU traffic
        pending across host-side CPU-GPU synchronization points).
        Transfers of *any* category that have finished by the resulting
        clock time are retired.  Returns the seconds waited.
        """
        matching = [t for t in self._pending if t.category == category]
        if not matching:
            self.retire()
            return 0.0
        finish = max(t.end for t in matching)
        before = self.clock.now
        self._advance_to(finish, category)
        waited = self.clock.now - before
        self.retire()
        return waited

    def retire(self) -> int:
        """Move transfers that finished by ``clock.now`` to ``completed``."""
        now = self.clock.now
        done = [t for t in self._pending if t.end <= now]
        if done:
            self._pending = [t for t in self._pending if t.end > now]
            self.completed.extend(done)
        return len(done)

    def _advance_to(self, timestamp: float, category: str | None) -> None:
        if self.advancer is not None:
            self.advancer(timestamp, category)
        else:
            self.clock.advance_to(timestamp, category)

    @property
    def pending(self) -> tuple[Transfer, ...]:
        """The in-flight transfers (read-only view)."""
        return tuple(self._pending)

    def pending_count(self) -> int:
        return len(self._pending)

    def duration(self, kind: TransferKind, nbytes: int,
                 src: int | None = None, dst: int | None = None) -> float:
        """Unloaded duration of a PCIe transfer (latency + bytes/bw),
        ignoring link contention.  Schedule cost models (the collective
        engine, ``explain --collectives``) price candidate schedules
        with this without issuing transfers."""
        return self._duration(kind, nbytes, src, dst)

    @staticmethod
    def split_chunks(nbytes: int, chunk_bytes: int) -> list[int]:
        """Split a payload into pipeline chunks of at most
        ``chunk_bytes`` (the last chunk carries the remainder).  A
        payload that fits in one chunk comes back whole -- chunking is
        only worth its per-message latency when there is something to
        overlap."""
        if nbytes <= 0:
            return []
        if chunk_bytes <= 0 or nbytes <= chunk_bytes:
            return [nbytes]
        full, rem = divmod(nbytes, chunk_bytes)
        return [chunk_bytes] * full + ([rem] if rem else [])

    @staticmethod
    def coalesce_runs(runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Merge adjacent ``(byte_offset, nbytes)`` runs into single
        transactions, amortizing the per-transfer PCIe latency."""
        merged: list[list[int]] = []
        for off, n in sorted(runs):
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1][1] += n
            else:
                merged.append([off, n])
        return [(off, n) for off, n in merged]

    def bytes_moved(self, kind: TransferKind | None = None) -> int:
        """Total completed bytes, optionally filtered by kind."""
        return sum(t.nbytes for t in self.completed if kind is None or t.kind == kind)

    def cross_node_bytes(self) -> int:
        """Total completed bytes that crossed a node boundary (every
        transfer that traversed the NIC, staged or direct)."""
        return sum(t.nbytes for t in self.completed if t.cross_node)

    def _check_device(self, device: int) -> None:
        if not (0 <= device < self._gpu_count):
            raise ValueError(
                f"device {device} out of range for {self.machine.name} "
                f"({self._gpu_count} GPUs)"
            )

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.machine.node_count):
            raise ValueError(
                f"node {node} out of range for {self.machine.name} "
                f"({self.machine.node_count} nodes)"
            )
