"""Table I machine configurations, benchmark-facing helpers.

The specs themselves live in :mod:`repro.vcuda.specs`; this module adds
the lookup and hypothetical-machine helpers the harness and the
projection benchmarks use.
"""

from __future__ import annotations

from ..vcuda.specs import (
    CLUSTERS,
    DESKTOP_MACHINE,
    MACHINES,
    ClusterSpec,
    MachineSpec,
    NicSpec,
    PCIE_GEN2_TSUBAME,
    SUPERCOMPUTER_NODE,
    TESLA_C1060,
    TESLA_M2050,
    XEON_X5670,
    cluster_of,
)


def machine(name: str | MachineSpec | ClusterSpec) -> MachineSpec | ClusterSpec:
    """Resolve a machine by Table I / cluster key or pass a spec through."""
    if isinstance(name, (MachineSpec, ClusterSpec)):
        return name
    if name in CLUSTERS:
        return CLUSTERS[name]
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; known: "
            f"{sorted(MACHINES) + sorted(CLUSTERS)}") from None


def machine_for(ngpus: int) -> MachineSpec:
    """Desktop while it has enough GPUs, else a hypothetical node."""
    spec = MACHINES["desktop"]
    return spec if ngpus <= spec.gpu_count else hypothetical_node(ngpus)


def hypothetical_cluster(nodes: int, gpus_per_node: int,
                         nic: NicSpec | None = None) -> ClusterSpec:
    """A what-if cluster of identical :func:`hypothetical_node` nodes.

    The multi-node scaling and internode-ablation benchmarks use this
    to sweep node x GPU topologies that the paper's single node cannot
    express.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    node = hypothetical_node(gpus_per_node)
    kwargs = {} if nic is None else {"nic": nic}
    return cluster_of(nodes, node,
                      name=f"Hypothetical {nodes}x{gpus_per_node} cluster",
                      **kwargs)


def hypothetical_node(gpu_count: int, gpus_per_hub: int = 4) -> MachineSpec:
    """A what-if node with TSUBAME-class parts and ``gpu_count`` GPUs.

    GPUs are packed onto I/O hubs ``gpus_per_hub`` at a time; peer
    transfers between hubs cross the QPI.  Used by the scaling
    projection to ask where each application's curve bends beyond the
    paper's 3-GPU hardware.
    """
    if gpu_count < 1:
        raise ValueError("need at least one GPU")
    hubs = tuple(g // gpus_per_hub for g in range(gpu_count))
    return MachineSpec(
        name=f"Hypothetical {gpu_count}-GPU node",
        cpu=XEON_X5670,
        cpu_sockets=2,
        gpu=TESLA_M2050,
        gpu_count=gpu_count,
        bus=PCIE_GEN2_TSUBAME,
        gpu_hub=hubs,
    )


def mixed_node(fast: int = 2, slow: int = 2,
               gpus_per_hub: int = 2) -> MachineSpec:
    """A mixed-generation node: Fermi M2050s next to GT200 C1060s.

    The specs alternate (fast, slow, fast, slow, ...) so each I/O hub
    carries a balanced share of whatever split the runtime chooses.
    This is the adaptive ablation's stress machine: the static equal
    split leaves the M2050s waiting on the C1060s every kernel.
    """
    count = fast + slow
    if count < 1:
        raise ValueError("need at least one GPU")
    order: list = []
    f, s = fast, slow
    while f > 0 or s > 0:
        if f > 0:
            order.append(TESLA_M2050)
            f -= 1
        if s > 0:
            order.append(TESLA_C1060)
            s -= 1
    hubs = tuple(g // gpus_per_hub for g in range(count))
    return MachineSpec(
        name=f"Mixed {fast}+{slow}-GPU node",
        cpu=XEON_X5670,
        cpu_sockets=2,
        gpu=TESLA_M2050,
        gpu_count=count,
        bus=PCIE_GEN2_TSUBAME,
        gpu_hub=hubs,
        gpus=tuple(order),
    )


__all__ = ["machine", "machine_for", "hypothetical_node",
           "hypothetical_cluster", "mixed_node", "MACHINES", "CLUSTERS",
           "DESKTOP_MACHINE", "SUPERCOMPUTER_NODE"]
