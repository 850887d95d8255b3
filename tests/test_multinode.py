"""Multi-node platform tests: topology, equivalence, faults, placement.

The cluster tier must be invisible when it is trivial and explicit
when it is not:

* a one-node :class:`~repro.vcuda.specs.ClusterSpec` run is
  *bit-identical* -- arrays, modeled time, every breakdown bucket,
  per-kind transfer bytes, normalized trace summary -- to the same run
  on the underlying :class:`~repro.vcuda.specs.MachineSpec`, for every
  flag combination in the determinism matrix;
* both internode transports produce arrays bit-identical to single-GPU,
  and staged aggregation moves strictly fewer cross-node bytes than
  naive per-pair exchange on the monitored-stencil workload;
* a dead NIC link surfaces a structured
  :class:`~repro.vcuda.bus.NetworkError` naming the link, instead of
  silently stalling or producing stale halos;
* fleet carving and serve placement respect node boundaries: a
  placement never spans nodes unless spanning was requested.
"""

import numpy as np
import pytest

import repro
from repro.apps import EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.bench.multinode import (
    ENTRY as PROBE_ENTRY,
    STENCIL_PROBES_SOURCE,
    probe_args,
)
from repro.serve.scheduler import (
    AdmissionError,
    FleetState,
    plan_placement,
)
from repro.trace.golden import normalize
from repro.vcuda.bus import NetworkError
from repro.vcuda.specs import CLUSTERS, ClusterSpec, MachineSpec, cluster_of

from .test_determinism_matrix import COMBO_IDS, FLAG_COMBOS

BREAKDOWN_FIELDS = ("kernels", "cpu_gpu", "gpu_gpu", "gpu_gpu_overlapped",
                    "net", "net_overlapped", "other")


def _run(app_name, machine, ngpus, **flags):
    spec = EXTRA_APPS[app_name]
    options = repro.CompileOptions(fuse=True) if flags.pop("fuse", False) \
        else None
    prog = repro.compile(spec.source, options)
    args = spec.args_for("tiny")
    run = prog.run(spec.entry, args, machine=machine, ngpus=ngpus, **flags)
    arrays = {k: v for k, v in args.items() if isinstance(v, np.ndarray)}
    return run, arrays


class TestOneNodeEquivalence:
    """cluster_of(1, node) is the node, bit for bit."""

    @pytest.mark.parametrize("flags", FLAG_COMBOS, ids=COMBO_IDS)
    def test_bit_identical_to_machine(self, flags):
        node = hypothetical_node(4)
        cluster = cluster_of(1, node)
        flat_run, flat = _run("jacobi", node, 4, **dict(flags))
        clus_run, clus = _run("jacobi", cluster, 4, **dict(flags))
        for name, a in flat.items():
            np.testing.assert_array_equal(
                clus[name], a, err_msg=f"jacobi.{name} perturbed by "
                f"1-node ClusterSpec under {flags}")
        assert clus_run.elapsed == flat_run.elapsed
        for field in BREAKDOWN_FIELDS:
            assert getattr(clus_run.breakdown, field) \
                == getattr(flat_run.breakdown, field), field
        for kind in ("h2d", "d2h", "p2p", "net"):
            assert clus_run.platform.bus.bytes_moved(kind) \
                == flat_run.platform.bus.bytes_moved(kind), kind
        assert clus_run.platform.bus.cross_node_bytes() == 0
        if flags.get("trace"):
            assert normalize(clus_run.tracer) == normalize(flat_run.tracer)

    def test_one_node_ignores_internode_choice(self):
        node = hypothetical_node(2)
        cluster = cluster_of(1, node)
        a_run, a = _run("jacobi", cluster, 2, internode="staged")
        b_run, b = _run("jacobi", cluster, 2, internode="naive")
        for name in a:
            np.testing.assert_array_equal(b[name], a[name])
        assert a_run.elapsed == b_run.elapsed


class TestPlatformTopology:
    def test_node_helpers(self):
        cluster = hypothetical_cluster(2, 4)
        run, _ = _run("jacobi", cluster, 8)
        platform = run.platform
        assert platform.node_count == 2
        assert [platform.node_of(g) for g in range(8)] \
            == [0, 0, 0, 0, 1, 1, 1, 1]
        assert list(platform.node_devices(0)) == [0, 1, 2, 3]
        assert list(platform.node_devices(1)) == [4, 5, 6, 7]

    def test_single_machine_is_one_node(self):
        run, _ = _run("jacobi", hypothetical_node(4), 4)
        assert run.platform.node_count == 1
        assert list(run.platform.node_devices(0)) == [0, 1, 2, 3]

    def test_partial_fleet_stays_on_first_nodes(self):
        """ngpus below the fleet size occupies a node-count prefix."""
        cluster = hypothetical_cluster(2, 4)
        run, _ = _run("jacobi", cluster, 4)
        assert run.platform.node_count == 1
        assert run.platform.bus.cross_node_bytes() == 0

    def test_named_cluster_resolves(self):
        assert "tsubame2" in CLUSTERS
        spec = EXTRA_APPS["jacobi"]
        prog = repro.compile(spec.source)
        args = spec.args_for("tiny")
        run = prog.run(spec.entry, args, machine="tsubame2", ngpus=4)
        assert isinstance(run.platform.machine, ClusterSpec)

    def test_timeline_has_nic_lane(self):
        cluster = hypothetical_cluster(2, 2)
        run, _ = _run("jacobi", cluster, 4, trace=True)
        nets = [e for e in run.tracer.events if e.kind == "net"]
        assert nets, "cross-node run scheduled nothing on the NIC"
        chart = repro.trace.gantt(run.tracer)
        lanes = [ln for ln in chart.split("\n") if "~" in ln][:-1]
        assert lanes and all(ln.startswith("nic node") for ln in lanes)


class TestInternodeTransports:
    def test_both_modes_match_single_gpu(self):
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        ref = probe_args()
        prog.run(PROBE_ENTRY, ref, machine="desktop", ngpus=1)
        cluster = hypothetical_cluster(2, 4)
        for mode in ("staged", "naive"):
            args = probe_args()
            prog.run(PROBE_ENTRY, args, machine=cluster, ngpus=8,
                     internode=mode)
            for name in ("a", "record"):
                np.testing.assert_array_equal(
                    args[name], ref[name],
                    err_msg=f"{name} perturbed by internode={mode}")

    def test_staged_reduces_cross_node_bytes(self):
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        cluster = hypothetical_cluster(2, 4)
        moved = {}
        for mode in ("staged", "naive"):
            run = prog.run(PROBE_ENTRY, probe_args(), machine=cluster,
                           ngpus=8, internode=mode)
            transport = run.executor.comm.transport
            moved[mode] = (run.platform.bus.cross_node_bytes(),
                           transport.bytes_internode,
                           transport.staged_exchanges)
        assert moved["staged"][0] < moved["naive"][0]
        assert moved["staged"][1] < moved["naive"][1]
        assert moved["staged"][2] > 0 and moved["naive"][2] == 0

    def test_unknown_mode_rejected(self):
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        with pytest.raises(ValueError, match="internode"):
            prog.run(PROBE_ENTRY, probe_args(),
                     machine=hypothetical_cluster(2, 2), ngpus=4,
                     internode="telepathy")


class TestFaultInjection:
    def test_dead_link_raises_structured_error(self):
        cluster = hypothetical_cluster(2, 2).degrade_link(0, 1, 0.0)
        spec = EXTRA_APPS["jacobi"]
        prog = repro.compile(spec.source)
        with pytest.raises(NetworkError) as exc_info:
            prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                     ngpus=4)
        err = exc_info.value
        assert isinstance(err, RuntimeError)
        assert {err.src_node, err.dst_node} == {0, 1}
        assert err.bandwidth == 0.0
        assert "node" in str(err)

    @pytest.mark.parametrize("internode", ["staged", "naive"])
    def test_dead_link_raises_under_both_transports(self, internode):
        cluster = hypothetical_cluster(2, 2).degrade_link(0, 1, 0.0)
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        with pytest.raises(NetworkError):
            prog.run(PROBE_ENTRY, probe_args(), machine=cluster, ngpus=4,
                     internode=internode)

    def test_degraded_link_is_timing_only(self):
        """A slow (but live) link changes modeled time, never results."""
        spec = EXTRA_APPS["jacobi"]
        prog = repro.compile(spec.source)
        healthy = hypothetical_cluster(2, 2)
        crippled = healthy.degrade_link(0, 1, 1e4)
        a = spec.args_for("tiny")
        fast = prog.run(spec.entry, a, machine=healthy, ngpus=4)
        b = spec.args_for("tiny")
        slow = prog.run(spec.entry, b, machine=crippled, ngpus=4)
        for name, v in a.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(b[name], v)
        assert slow.elapsed > fast.elapsed


class TestNodeAwareCarving:
    def test_subset_within_node_is_plain_machine(self):
        cluster = hypothetical_cluster(2, 4)
        sub = cluster.subset([1, 2])
        assert isinstance(sub, MachineSpec)
        assert sub.gpu_count == 2

    def test_subset_across_nodes_stays_clustered(self):
        cluster = hypothetical_cluster(2, 4)
        sub = cluster.subset([0, 1, 4, 5])
        assert isinstance(sub, ClusterSpec)
        assert sub.node_count == 2
        assert [sub.node_of(g) for g in range(4)] == [0, 0, 1, 1]

    def test_subset_preserves_degraded_links(self):
        cluster = hypothetical_cluster(2, 2).degrade_link(0, 1, 0.0)
        sub = cluster.subset([0, 3])
        assert isinstance(sub, ClusterSpec)
        assert sub.link_bandwidth(0, 1) == 0.0


class TestNodeAwarePlacement:
    def test_placement_never_spans_nodes(self):
        state = FleetState(hypothetical_cluster(2, 4))
        slots = plan_placement(state, 3, 1024)
        assert slots is not None
        assert len({state.slots[i].node for i in slots}) == 1
        state.reserve("a", slots, 1024)
        # The next 3-wide request must land whole on the other node,
        # not straddle the boundary through the leftover slot.
        more = plan_placement(state, 3, 1024)
        assert more is not None
        assert {state.slots[i].node for i in more} == {1}

    def test_wide_request_waits_instead_of_spanning(self):
        state = FleetState(hypothetical_cluster(2, 4))
        assert plan_placement(state, 6, 1024) is None
        with pytest.raises(AdmissionError) as exc_info:
            state.check_admissible(6, 1024)
        assert exc_info.value.code == "oversized_node"

    def test_spanning_must_be_requested(self):
        state = FleetState(hypothetical_cluster(2, 4), span_nodes=True)
        state.check_admissible(6, 1024)
        slots = plan_placement(state, 6, 1024)
        assert slots is not None
        assert {state.slots[i].node for i in slots} == {0, 1}
        # Even with spanning allowed, a request one node can host
        # stays node-local.
        state2 = FleetState(hypothetical_cluster(2, 4), span_nodes=True)
        local = plan_placement(state2, 4, 1024)
        assert len({state2.slots[i].node for i in local}) == 1

    def test_single_node_fleet_unchanged(self):
        """On a plain MachineSpec the node tier is a no-op: same picks
        as before the node axis existed."""
        state = FleetState(hypothetical_node(8))
        assert all(s.node == 0 for s in state.slots)
        slots = plan_placement(state, 4, 1024)
        assert slots == [0, 1, 2, 3]
