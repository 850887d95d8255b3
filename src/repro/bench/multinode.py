"""Multi-node internode-exchange ablation workload and sweep.

The cluster platform routes coherence traffic that crosses a node
boundary over the modeled NIC.  Two transports exist
(:mod:`repro.runtime.comm`):

* ``naive`` -- one NIC transfer per communicating GPU pair, exactly the
  single-node peer-to-peer pattern lifted onto the network.
* ``staged`` -- traffic is aggregated per node pair: boundary chunks
  gather into the source node's host staging buffer over PCIe, cross
  the NIC once, and scatter to the destination GPUs on arrival.
  Replica broadcasts additionally dedup per destination *node* instead
  of per destination *member*.

For pairwise-distinct halo payloads the two move the same bytes (fewer,
larger NIC messages); the byte win comes from replica dedup.  The
ablation workload is therefore a *monitored stencil*: a 1-D relaxation
sweep (halo exchange at every partition boundary) that records the
field at scattered probe sites after each step, the classic
seismic-receiver pattern.  The scattered ``record[slot[p]]`` writes
defeat affine placement, so the recording array is replica-placed and
every sweep ends with a dirty broadcast from each writer GPU to all
others -- on a 2x4 cluster, four remote members per writer that the
staged transport serves with one NIC transfer instead of four.
"""

from __future__ import annotations

import numpy as np

from ..vcuda.specs import ClusterSpec
from .machines import hypothetical_cluster

STENCIL_PROBES_SOURCE = """
void stencil_probes(int n, int nprobes, int steps, float alpha,
                    float *a, float *b, int *site, int *slot,
                    float *record) {
  #pragma acc data copy(a[0:n], record[0:nprobes]) create(b[0:n]) copyin(site[0:nprobes], slot[0:nprobes])
  {
    for (int s = 0; s < steps; s++) {
      #pragma acc parallel
      {
        #pragma acc localaccess a[stride(1, 1, 1)] b[stride(1, 1, 1)]
        #pragma acc loop gang
        for (int i = 0; i < n; i++) {
          if (i > 0 && i < n - 1) {
            b[i] = (1.0f - alpha) * a[i]
                 + alpha * 0.5f * (a[i - 1] + a[i + 1]);
          } else {
            b[i] = a[i];
          }
        }
      }
      #pragma acc parallel
      {
        #pragma acc loop gang
        for (int p = 0; p < nprobes; p++) {
          record[slot[p]] = fmax(record[slot[p]], b[site[p]]);
        }
      }
      #pragma acc parallel
      {
        #pragma acc localaccess b[stride(1)] a[stride(1)]
        #pragma acc loop gang
        for (int i = 0; i < n; i++) {
          a[i] = b[i];
        }
      }
    }
  }
}
"""

ENTRY = "stencil_probes"


def probe_args(n: int = 512, nprobes: int = 64, steps: int = 6,
               seed: int = 7) -> dict:
    """Deterministic workload for the monitored stencil."""
    rng = np.random.default_rng(seed)
    return dict(
        n=n, nprobes=nprobes, steps=steps, alpha=np.float32(0.4),
        a=rng.random(n, dtype=np.float32),
        b=np.zeros(n, np.float32),
        site=rng.choice(n, size=nprobes, replace=False).astype(np.int32),
        slot=rng.permutation(nprobes).astype(np.int32),
        record=np.zeros(nprobes, np.float32),
    )


def internode_sweep(nodes: int = 2, gpus_per_node: int = 4,
                    cluster: ClusterSpec | None = None) -> dict:
    """Run the monitored stencil under both internode transports.

    Returns one metrics dict per transport plus the single-GPU
    reference outputs' fingerprint; every number is modeled or counted
    (never wall-clock), so the checked-in artifact is bit-reproducible.
    """
    import repro

    prog = repro.compile(STENCIL_PROBES_SOURCE)
    if cluster is None:
        cluster = hypothetical_cluster(nodes, gpus_per_node)
    ngpus = cluster.gpu_count

    ref = probe_args()
    prog.run(ENTRY, ref, machine="desktop", ngpus=1)

    out: dict = {"cluster": cluster.name, "ngpus": ngpus, "nodes": nodes}
    for mode in ("staged", "naive"):
        args = probe_args()
        run = prog.run(ENTRY, args, machine=cluster, ngpus=ngpus,
                       internode=mode)
        bus = run.platform.bus
        comm = run.executor.comm
        for name in ("a", "record"):
            np.testing.assert_array_equal(
                args[name], ref[name],
                err_msg=f"{name} perturbed by internode={mode}")
        out[mode] = {
            "cross_node_bytes": bus.cross_node_bytes(),
            "internode_bytes": comm.transport.bytes_internode,
            "replica_bytes": comm.bytes_replica,
            "halo_bytes": comm.bytes_halo,
            "nic_transfers": sum(
                1 for t in bus.completed if t.kind == "net"),
            "staged_exchanges": comm.transport.staged_exchanges,
            "modeled_seconds": run.breakdown.total,
            "net_seconds": run.breakdown.net,
        }
    s, n = out["staged"], out["naive"]
    s["cross_node_bytes_saved"] = (
        n["cross_node_bytes"] - s["cross_node_bytes"])
    return out
