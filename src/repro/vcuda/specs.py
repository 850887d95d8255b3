"""Hardware specifications for the virtual platform.

These mirror Table I of the paper: a desktop machine (one Core i7, two
Tesla C2075 GPUs) and a TSUBAME2.0 thin node (two Xeon X5670, three
Tesla M2050 GPUs).  Peak numbers come from the vendor datasheets of the
2011-era parts; the cost models in :mod:`repro.vcuda.device` and
:mod:`repro.cpu.openmp` apply efficiency factors on top of these peaks.

All bandwidths are bytes/second, frequencies in Hz, capacities in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GB = 1024**3
MB = 1024**2


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU device."""

    name: str
    #: Number of CUDA cores (Fermi: 32 per SM).
    cuda_cores: int
    #: Number of streaming multiprocessors.
    sm_count: int
    #: Shader clock in Hz.
    clock_hz: float
    #: Peak single-precision throughput in FLOP/s.
    peak_sp_flops: float
    #: Peak device-memory bandwidth in bytes/s.
    mem_bandwidth: float
    #: Device memory capacity in bytes.
    mem_capacity: int
    #: Fixed kernel-launch overhead in seconds.
    launch_overhead: float = 8e-6
    #: Fraction of peak memory bandwidth achieved by coalesced streams.
    coalesced_efficiency: float = 0.75
    #: Fraction of peak bandwidth achieved by uncoalesced/random access
    #: (applied to the cost model's already-inflated random byte counts;
    #: Fermi's L2/texture caches keep scattered gathers well above the
    #: worst case).
    random_efficiency: float = 0.50
    #: Fraction of peak FLOP/s achieved by typical compiled kernels.
    compute_efficiency: float = 0.55


@dataclass(frozen=True)
class CpuSpec:
    """Static description of one CPU socket."""

    name: str
    cores: int
    #: Hardware threads per core (Hyper-Threading = 2).
    threads_per_core: int
    clock_hz: float
    #: Single-precision FLOPs per cycle per core (SSE 4-wide, mul+add).
    flops_per_cycle: float
    #: Sustained memory bandwidth per socket in bytes/s.
    mem_bandwidth: float
    #: Parallel efficiency of the OpenMP runtime at full thread count.
    omp_efficiency: float = 0.55

    @property
    def peak_sp_flops(self) -> float:
        """Peak single-precision FLOP/s of the whole socket."""
        return self.cores * self.clock_hz * self.flops_per_cycle


@dataclass(frozen=True)
class BusSpec:
    """PCI-Express link characteristics.

    ``p2p_same_hub`` applies between GPUs under one I/O hub (desktop);
    ``p2p_cross_hub`` applies when a peer copy crosses the QPI between
    the two I/O hubs of a dual-socket node (TSUBAME thin node), where
    it is staged and noticeably slower -- this asymmetry is what makes
    BFS's inter-GPU traffic a bottleneck on the supercomputer node in
    the paper's Fig. 8.
    """

    name: str
    #: Effective host<->device bandwidth per link, bytes/s.
    h2d_bandwidth: float
    d2h_bandwidth: float
    #: Effective direct GPU<->GPU bandwidth, same I/O hub.
    p2p_same_hub: float
    #: Effective GPU<->GPU bandwidth when crossing QPI/IOH boundary.
    p2p_cross_hub: float
    #: Aggregate host<->device bandwidth through one I/O hub.  Concurrent
    #: transfers to GPUs behind the same hub share this uplink; when it is
    #: close to the per-link bandwidth they effectively serialize (the
    #: TSUBAME thin node's two hub-0 GPUs), when it is ~2x they overlap
    #: (the desktop).
    hub_uplink_bandwidth: float = 12e9
    #: Per-transfer latency in seconds (DMA setup + driver).
    latency: float = 12e-6
    #: Schedule cost hint: pipeline chunk size (bytes) for intra-node
    #: ring broadcasts (see docs/COLLECTIVES.md).
    collective_chunk_bytes: int = 1024 * 1024


# ---------------------------------------------------------------------------
# Catalogue of the parts in Table I.
# ---------------------------------------------------------------------------

TESLA_C2075 = GpuSpec(
    name="Tesla C2075",
    cuda_cores=448,
    sm_count=14,
    clock_hz=1.15e9,
    peak_sp_flops=1030e9,
    mem_bandwidth=144e9,
    mem_capacity=6 * GB,
)

TESLA_M2050 = GpuSpec(
    name="Tesla M2050",
    cuda_cores=448,
    sm_count=14,
    clock_hz=1.15e9,
    peak_sp_flops=1030e9,
    mem_bandwidth=148e9,
    mem_capacity=3 * GB,
)

TESLA_C1060 = GpuSpec(
    name="Tesla C1060",
    cuda_cores=240,
    sm_count=30,
    clock_hz=1.296e9,
    peak_sp_flops=622e9,
    mem_bandwidth=102e9,
    mem_capacity=4 * GB,
    # GT200 has no L2 cache: scattered gathers fall much closer to the
    # worst case than on Fermi parts.
    random_efficiency=0.25,
)

CORE_I7_980 = CpuSpec(
    name="Intel Core i7 (6C/12T)",
    cores=6,
    threads_per_core=2,
    clock_hz=3.33e9,
    flops_per_cycle=8.0,
    mem_bandwidth=25.6e9,
)

XEON_X5670 = CpuSpec(
    name="Intel Xeon X5670 (6C/12T)",
    cores=6,
    threads_per_core=2,
    clock_hz=2.93e9,
    flops_per_cycle=8.0,
    mem_bandwidth=32e9,
)

PCIE_GEN2_DESKTOP = BusSpec(
    name="PCIe 2.0 x16 (single IOH)",
    h2d_bandwidth=5.8e9,
    d2h_bandwidth=6.2e9,
    p2p_same_hub=5.2e9,
    p2p_cross_hub=5.2e9,  # single hub: never crossed
    hub_uplink_bandwidth=20.0e9,  # X58: 36 gen2 lanes, two full x16 links
)

PCIE_GEN2_TSUBAME = BusSpec(
    name="PCIe 2.0 x16 (dual IOH over QPI)",
    h2d_bandwidth=5.6e9,
    d2h_bandwidth=6.0e9,
    p2p_same_hub=5.0e9,
    p2p_cross_hub=2.2e9,
    hub_uplink_bandwidth=10.0e9,
    latency=16e-6,
)


@dataclass(frozen=True)
class NicSpec:
    """Network-interface / interconnect-fabric characteristics.

    One NIC port per node; ``bandwidth`` is the effective per-flow
    bytes/s between two nodes under the same leaf switch.  The cluster
    topology is a two-level tree (leaf switches grouped under one root
    switch): a flow that crosses the root pays ``hop_latency`` for each
    of the two extra switch traversals and, when the fabric is
    oversubscribed, the reduced ``cross_group_bandwidth``.
    """

    name: str
    #: Effective node-to-node bandwidth within a leaf-switch group,
    #: bytes/s per flow.
    bandwidth: float
    #: Per-message latency between nodes under one leaf switch.
    latency: float = 2e-6
    #: Additional latency per extra switch level a flow traverses.
    hop_latency: float = 0.6e-6
    #: Per-flow bandwidth when the flow crosses the root switch
    #: (``None`` = full bisection, same as ``bandwidth``).
    cross_group_bandwidth: float | None = None
    #: Schedule cost hint: pipeline chunk size (bytes) for collective
    #: broadcasts and the staged-exchange progress engine.  Payloads
    #: larger than this are split so the NIC leg of chunk *k* overlaps
    #: the PCIe legs of chunks *k±1* (see docs/COLLECTIVES.md).
    collective_chunk_bytes: int = 64 * 1024


#: TSUBAME2.0-era fabric: 4x QDR InfiniBand, ~3.2 GB/s effective per
#: port after 8b/10b encoding and transport overheads.
QDR_INFINIBAND = NicSpec(
    name="QDR InfiniBand 4x",
    bandwidth=3.2e9,
    latency=1.9e-6,
    hop_latency=0.6e-6,
)

#: Commodity fallback fabric for what-if runs: the NIC becomes the
#: bottleneck long before PCIe does.
GIGABIT_ETHERNET = NicSpec(
    name="10 Gigabit Ethernet",
    bandwidth=1.1e9,
    latency=9e-6,
    hop_latency=2e-6,
)


def _gpu_mix(machine) -> dict[str, int]:
    """GPU model name -> slot count, in slot order."""
    counts: dict[str, int] = {}
    for g in machine.gpu_specs:
        counts[g.name] = counts.get(g.name, 0) + 1
    return counts


def _is_heterogeneous(machine) -> bool:
    return len(_gpu_mix(machine)) > 1


def _gpu_mix_label(machine) -> str:
    """Human-readable GPU model mix, e.g. ``2x A + 1x B``."""
    counts = _gpu_mix(machine)
    if len(counts) == 1:
        return next(iter(counts))
    return " + ".join(f"{n}x {name}" for name, n in counts.items())


def _subset_slots(machine, slots) -> tuple[int, ...]:
    """``slots`` as a tuple, checked against ``machine``'s GPU slots."""
    slots = tuple(slots)
    if not slots:
        raise ValueError("subset needs at least one GPU slot")
    if len(set(slots)) != len(slots):
        raise ValueError(f"duplicate GPU slots in subset: {slots}")
    for s in slots:
        if not (0 <= s < machine.gpu_count):
            raise ValueError(
                f"slot {s} out of range for {machine.name} "
                f"({machine.gpu_count} GPUs)")
    return slots


@dataclass(frozen=True)
class MachineSpec:
    """One evaluation platform of Table I.

    ``gpu_hub`` assigns each GPU index to an I/O hub; peer transfers
    between GPUs on different hubs use ``bus.p2p_cross_hub``.

    ``gpus`` optionally lists one spec per GPU slot for heterogeneous
    nodes (mixed device generations); when empty, every slot holds
    ``gpu``.  ``gpu`` stays the nominal part for Table I rendering and
    as the default device model.

    A single node is also the degenerate one-node cluster: the
    ``node_*`` accessors mirror :class:`ClusterSpec` so the bus, the
    communication manager and the scheduler can treat both uniformly
    (``node_of`` is constant 0 and there is no NIC).
    """

    name: str
    cpu: CpuSpec
    cpu_sockets: int
    gpu: GpuSpec
    gpu_count: int
    bus: BusSpec
    gpu_hub: tuple[int, ...] = field(default=())
    gpus: tuple[GpuSpec, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.gpu_hub and len(self.gpu_hub) != self.gpu_count:
            raise ValueError("gpu_hub must list one hub id per GPU")
        if self.gpus and len(self.gpus) != self.gpu_count:
            raise ValueError("gpus must list one spec per GPU slot")

    def hub_of(self, gpu_index: int) -> int:
        """I/O hub id hosting GPU ``gpu_index`` (default: hub 0)."""
        if not self.gpu_hub:
            return 0
        return self.gpu_hub[gpu_index]

    @property
    def gpu_specs(self) -> tuple[GpuSpec, ...]:
        """Per-slot GPU specs (uniform nodes repeat ``gpu``)."""
        if self.gpus:
            return self.gpus
        return (self.gpu,) * self.gpu_count

    is_heterogeneous = property(_is_heterogeneous)
    gpu_mix_label = property(_gpu_mix_label)

    @property
    def total_cpu_threads(self) -> int:
        return self.cpu_sockets * self.cpu.cores * self.cpu.threads_per_core

    # -- one-node-cluster protocol (mirrors ClusterSpec) --------------------

    #: A plain node has no network tier.
    nic: "NicSpec | None" = field(default=None, init=False, repr=False)

    @property
    def node_count(self) -> int:
        return 1

    def node_of(self, gpu_index: int) -> int:
        return 0

    def node_bus(self, node: int) -> BusSpec:
        return self.bus

    def node_gpu_range(self, node: int) -> tuple[int, int]:
        return (0, self.gpu_count)

    def subset(self, slots: tuple[int, ...] | list[int]) -> "MachineSpec":
        """Carve a sub-machine out of this node's GPU slots.

        The program service packs independent programs onto disjoint
        slot subsets of one large fleet; each admitted program runs on
        the :class:`MachineSpec` this returns.  Per-slot GPU specs and
        I/O-hub assignments are preserved (renumbered contiguously), so
        a request placed across two hubs still pays the cross-hub
        peer-transfer penalty it would on the real node.  CPU and bus
        are shared-machine resources and carry over unchanged.
        """
        slots = _subset_slots(self, slots)
        specs = self.gpu_specs
        return MachineSpec(
            name=f"{self.name} [slots {','.join(map(str, slots))}]",
            cpu=self.cpu,
            cpu_sockets=self.cpu_sockets,
            gpu=self.gpu,
            gpu_count=len(slots),
            bus=self.bus,
            gpu_hub=tuple(self.hub_of(s) for s in slots),
            gpus=tuple(specs[s] for s in slots),
        )


@dataclass(frozen=True)
class ClusterSpec:
    """A modeled cluster: ``MachineSpec`` nodes in a tree topology.

    GPUs are flattened into one global index space (node 0's GPUs
    first, then node 1's, ...), so everything that addresses GPUs by
    index -- the platform, the data loader, the communication manager
    -- runs unchanged.  ``node_of`` recovers the node of a global GPU
    index; ``hub_of`` returns *globally unique* I/O-hub ids (each
    node's hubs are offset past the previous nodes'), so same-hub /
    cross-hub PCIe pricing keeps working per node.

    The network tier is a two-level tree: ``node_group`` assigns each
    node to a leaf switch; flows between groups cross the root switch
    (extra ``NicSpec.hop_latency`` and, if set, the oversubscribed
    ``cross_group_bandwidth``).  Host memory lives on node 0 (the home
    node): host<->device transfers for GPUs on other nodes are staged
    over the NIC by the bus.

    ``link_overrides`` pins the effective bandwidth of specific node
    pairs -- the fault-injection hook for degraded or dead links.
    """

    name: str
    nodes: tuple[MachineSpec, ...]
    nic: NicSpec = QDR_INFINIBAND
    #: Leaf-switch group per node (default: all under one leaf switch).
    node_group: tuple[int, ...] = field(default=())
    #: ``(node_a, node_b, bandwidth)`` effective-bandwidth pins, order
    #: of the node pair irrelevant.  Zero or negative bandwidth models
    #: a dead link (transfers raise a structured error).
    link_overrides: tuple[tuple[int, int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")
        if self.node_group and len(self.node_group) != len(self.nodes):
            raise ValueError("node_group must list one group per node")

    # -- flattened GPU space -------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def gpu_count(self) -> int:
        return sum(n.gpu_count for n in self.nodes)

    @property
    def gpu_specs(self) -> tuple[GpuSpec, ...]:
        out: tuple[GpuSpec, ...] = ()
        for n in self.nodes:
            out += n.gpu_specs
        return out

    def node_gpu_range(self, node: int) -> tuple[int, int]:
        """Global GPU index range ``[lo, hi)`` hosted by ``node``."""
        lo = sum(n.gpu_count for n in self.nodes[:node])
        return (lo, lo + self.nodes[node].gpu_count)

    def node_of(self, gpu_index: int) -> int:
        base = 0
        for i, n in enumerate(self.nodes):
            if gpu_index < base + n.gpu_count:
                return i
            base += n.gpu_count
        raise ValueError(
            f"GPU {gpu_index} out of range for {self.name} "
            f"({self.gpu_count} GPUs)")

    def local_gpu(self, gpu_index: int) -> int:
        """Node-local slot of a global GPU index."""
        node = self.node_of(gpu_index)
        return gpu_index - self.node_gpu_range(node)[0]

    def hub_of(self, gpu_index: int) -> int:
        """Globally unique I/O-hub id of a GPU (offset per node)."""
        node = self.node_of(gpu_index)
        base = sum(_hub_count(n) for n in self.nodes[:node])
        return base + self.nodes[node].hub_of(self.local_gpu(gpu_index))

    def node_bus(self, node: int) -> BusSpec:
        return self.nodes[node].bus

    # -- network tier --------------------------------------------------------

    def group_of(self, node: int) -> int:
        return self.node_group[node] if self.node_group else 0

    def link_bandwidth(self, a: int, b: int) -> float:
        """Effective NIC bandwidth between nodes ``a`` and ``b``."""
        for x, y, bw in self.link_overrides:
            if {x, y} == {a, b}:
                return bw
        if self.group_of(a) != self.group_of(b) \
                and self.nic.cross_group_bandwidth is not None:
            return self.nic.cross_group_bandwidth
        return self.nic.bandwidth

    def link_latency(self, a: int, b: int) -> float:
        """Per-message latency: one leaf hop, plus two extra switch
        traversals (up to the root and back down) across groups."""
        if self.group_of(a) == self.group_of(b):
            return self.nic.latency
        return self.nic.latency + 2 * self.nic.hop_latency

    def degrade_link(self, a: int, b: int,
                     bandwidth: float) -> "ClusterSpec":
        """Copy of this cluster with one node pair's bandwidth pinned
        (0 = dead link; transfers over it raise a structured error)."""
        return ClusterSpec(
            name=f"{self.name} [link {a}-{b} @ {bandwidth:g} B/s]",
            nodes=self.nodes, nic=self.nic, node_group=self.node_group,
            link_overrides=self.link_overrides + ((a, b, bandwidth),))

    # -- home-node host model (report/host-executor compatibility) -----------

    @property
    def cpu(self) -> CpuSpec:
        return self.nodes[0].cpu

    @property
    def cpu_sockets(self) -> int:
        return self.nodes[0].cpu_sockets

    @property
    def gpu(self) -> GpuSpec:
        return self.nodes[0].gpu

    @property
    def bus(self) -> BusSpec:
        """Home-node PCIe (node-local pricing uses ``node_bus``)."""
        return self.nodes[0].bus

    @property
    def total_cpu_threads(self) -> int:
        return self.nodes[0].total_cpu_threads

    @property
    def gpu_hub(self) -> tuple[int, ...]:
        return tuple(self.hub_of(g) for g in range(self.gpu_count))

    is_heterogeneous = property(_is_heterogeneous)
    gpu_mix_label = property(_gpu_mix_label)

    # -- fleet carving -------------------------------------------------------

    def subset(self, slots: tuple[int, ...] | list[int]
               ) -> "MachineSpec | ClusterSpec":
        """Carve a sub-machine out of global GPU slots, preserving node
        boundaries.

        Slots within one node return that node's
        :meth:`MachineSpec.subset` (a plain node: no NIC tier to pay).
        Slots spanning nodes return a smaller :class:`ClusterSpec`
        whose surviving nodes keep their leaf-switch groups and any
        link overrides between them -- a spanning placement keeps
        paying cross-node prices, it never collapses onto one PCIe bus.
        """
        slots = _subset_slots(self, slots)
        by_node: dict[int, list[int]] = {}
        for s in slots:
            by_node.setdefault(self.node_of(s), []).append(self.local_gpu(s))
        if len(by_node) == 1:
            (node, local), = by_node.items()
            return self.nodes[node].subset(local)
        keep = sorted(by_node)
        renumber = {node: i for i, node in enumerate(keep)}
        overrides = tuple(
            (renumber[a], renumber[b], bw)
            for a, b, bw in self.link_overrides
            if a in renumber and b in renumber)
        return ClusterSpec(
            name=f"{self.name} [slots {','.join(map(str, slots))}]",
            nodes=tuple(self.nodes[n].subset(by_node[n]) for n in keep),
            nic=self.nic,
            node_group=tuple(self.group_of(n) for n in keep)
            if self.node_group else (),
            link_overrides=overrides,
        )


def _hub_count(node: MachineSpec) -> int:
    return 1 + max((node.hub_of(g) for g in range(node.gpu_count)),
                   default=0)


def cluster_of(nodes: int, node: MachineSpec,
               nic: NicSpec = QDR_INFINIBAND,
               nodes_per_group: int = 0,
               name: str | None = None) -> ClusterSpec:
    """Uniform cluster of ``nodes`` copies of ``node``.

    ``nodes_per_group`` packs that many nodes under each leaf switch
    (0 = one flat group: every node pair is one switch hop apart).
    """
    if nodes < 1:
        raise ValueError("a cluster needs at least one node")
    groups = tuple(n // nodes_per_group for n in range(nodes)) \
        if nodes_per_group > 0 else ()
    return ClusterSpec(
        name=name or f"{nodes}x {node.name}",
        nodes=(node,) * nodes,
        nic=nic,
        node_group=groups,
    )


DESKTOP_MACHINE = MachineSpec(
    name="Desktop Machine",
    cpu=CORE_I7_980,
    cpu_sockets=1,
    gpu=TESLA_C2075,
    gpu_count=2,
    bus=PCIE_GEN2_DESKTOP,
    gpu_hub=(0, 0),
)

SUPERCOMPUTER_NODE = MachineSpec(
    name="Supercomputer Node (TSUBAME2.0 thin node)",
    cpu=XEON_X5670,
    cpu_sockets=2,
    gpu=TESLA_M2050,
    gpu_count=3,
    bus=PCIE_GEN2_TSUBAME,
    gpu_hub=(0, 0, 1),
)

MACHINES = {
    "desktop": DESKTOP_MACHINE,
    "supercomputer": SUPERCOMPUTER_NODE,
}

#: The paper's TSUBAME2.0 thin nodes scaled out over the QDR fabric:
#: the smallest catalogue cluster with a real network tier.
TSUBAME_CLUSTER = cluster_of(
    2, SUPERCOMPUTER_NODE, nic=QDR_INFINIBAND,
    name="TSUBAME2.0 (2 thin nodes)")

CLUSTERS = {
    "tsubame2": TSUBAME_CLUSTER,
}
