"""Collective-schedule ablation sweep (docs/COLLECTIVES.md).

Runs the monitored stencil of :mod:`repro.bench.multinode` -- the
workload whose replica-placed recording array broadcasts from every
writer GPU after each sweep -- under the collective engine's schedules
and the two legacy transports:

* ``naive`` -- one NIC transfer per communicating GPU pair (the
  baseline the paper's halo-exchange analysis warns against);
* ``staged`` -- per-node-pair aggregation, serialized
  gather -> NIC -> scatter (PR 9's transport, ``collective="none"``);
* ``ring`` / ``tree`` / ``auto`` -- the staged transport with the
  collective engine's broadcast schedules and the chunked
  staged-exchange progress engine.

Every metric is modeled or counted (never wall-clock), so the
checked-in ``BENCH_collectives.json`` artifact is bit-reproducible;
the benchmark gate regenerates it and byte-compares.
"""

from __future__ import annotations

import numpy as np

from ..runtime.collectives import TRANSPORTS
from ..vcuda.specs import ClusterSpec, cluster_of
from .machines import hypothetical_cluster, hypothetical_node
from .multinode import ENTRY, STENCIL_PROBES_SOURCE, probe_args

#: Sweep columns: one per transport ("naive" is ``internode="naive"``;
#: everything else rides ``internode="staged"`` with the variant as its
#: ``collective`` mode, ``"none"`` for "staged").
VARIANTS = TRANSPORTS


def grouped_cluster(nodes: int, gpus_per_node: int,
                    nodes_per_group: int = 0) -> ClusterSpec:
    """A TSUBAME-class cluster with an optionally oversubscribed
    two-level fabric (``nodes_per_group`` > 0 groups the leaf
    switches, so cross-group flows pay extra hops)."""
    if nodes_per_group <= 0:
        return hypothetical_cluster(nodes, gpus_per_node)
    return cluster_of(nodes, hypothetical_node(gpus_per_node),
                      nodes_per_group=nodes_per_group,
                      name=f"Hypothetical {nodes}x{gpus_per_node} "
                           f"cluster ({nodes_per_group}/group)")


def collective_sweep(nodes: int = 2, gpus_per_node: int = 4,
                     cluster: ClusterSpec | None = None) -> dict:
    """Run the monitored stencil under every schedule variant.

    Asserts inside that every variant's arrays are bit-identical to the
    single-GPU reference (the engine re-prices transfers, never changes
    data), then reports the modeled byte/time/step metrics per variant.
    """
    import repro

    prog = repro.compile(STENCIL_PROBES_SOURCE)
    if cluster is None:
        cluster = grouped_cluster(nodes, gpus_per_node,
                                  nodes_per_group=2 if nodes > 2 else 0)
    ngpus = cluster.gpu_count

    ref = probe_args()
    prog.run(ENTRY, ref, machine="desktop", ngpus=1)

    out: dict = {"cluster": cluster.name, "ngpus": ngpus, "nodes": nodes}
    for variant in VARIANTS:
        internode = "naive" if variant == "naive" else "staged"
        collective = variant if variant in ("ring", "tree", "auto") \
            else "none"
        args = probe_args()
        run = prog.run(ENTRY, args, machine=cluster, ngpus=ngpus,
                       internode=internode, collective=collective)
        for name in ("a", "record"):
            np.testing.assert_array_equal(
                args[name], ref[name],
                err_msg=f"{name} perturbed by collective={variant}")
        bus = run.platform.bus
        comm = run.executor.comm
        out[variant] = {
            "cross_node_bytes": bus.cross_node_bytes(),
            "internode_bytes": comm.transport.bytes_internode,
            "nic_transfers": sum(
                1 for t in bus.completed if t.kind == "net"),
            "collective_broadcasts": comm.transport.collective_broadcasts,
            "collective_steps": comm.transport.collective_steps,
            "modeled_seconds": run.breakdown.total,
            "net_seconds": run.breakdown.net,
        }
    for variant in ("ring", "tree", "auto"):
        out[variant]["cross_node_bytes_saved_vs_naive"] = (
            out["naive"]["cross_node_bytes"]
            - out[variant]["cross_node_bytes"])
    return out
