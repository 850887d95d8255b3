"""The transport and its collective schedules (runtime/collectives.py).

Covers the tentpole claims of docs/COLLECTIVES.md:

* schedule selection: the pure cost model orders ring paths
  group-contiguously, builds log-round binomial trees, and ``auto``
  picks the cheaper modeled schedule per transfer;
* determinism: every ``collective`` mode is bit-identical to the
  legacy ``none`` schedule (which itself matches single-GPU) on
  multi-node clusters, and one-GPU/one-node runs degenerate to the
  legacy schedule *exactly* (same modeled time);
* fault injection: a dead link raises the structured
  :class:`NetworkError` mid-schedule under ring and tree alike, and a
  degraded-but-live link only changes timing;
* telemetry: transport counters, per-schedule tracer metrics and the
  ``collective_*`` trace mechanisms all surface;
* routing: the "Who decides the route" table of docs/COLLECTIVES.md,
  executed -- 5 transports x {pairs, broadcast} on a 2x2 fleet.
"""

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.bench.multinode import (
    ENTRY as PROBE_ENTRY,
    STENCIL_PROBES_SOURCE,
    probe_args,
)
from repro.explain import main as explain_main, render_collectives
from repro.runtime.collectives import (
    COLLECTIVE_MODES,
    TRANSPORTS,
    Transport,
    node_schedule_costs,
    ring_order,
    select_node_schedule,
    tree_rounds,
)
from repro.trace import Tracer
from repro.trace.events import (
    MECH_COLLECTIVE_PIPELINE,
    MECH_COLLECTIVE_RING,
    MECH_COLLECTIVE_TREE,
    MECH_HALO,
    MECH_INTERNODE_STAGED,
    MECH_REPLICA,
)
from repro.vcuda import Platform
from repro.vcuda.bus import NetworkError
from repro.vcuda.specs import CLUSTERS, cluster_of

APPS = {**ALL_APPS, **EXTRA_APPS}
SCHEDULES = ("auto", "ring", "tree")

KB = 1024
MB = 1024 * 1024


def grouped_cluster(nodes, gpus_per_node, nodes_per_group):
    return cluster_of(nodes, hypothetical_node(gpus_per_node),
                      nodes_per_group=nodes_per_group)


# ---------------------------------------------------------------------------
# Pure cost model
# ---------------------------------------------------------------------------

class TestCostModel:
    def test_ring_order_is_group_contiguous(self):
        cluster = grouped_cluster(6, 1, 2)  # groups {0,1} {2,3} {4,5}
        path = ring_order(cluster, 2, list(range(6)))
        assert path[0] == 2
        groups = [cluster.group_of(n) for n in path]
        # Source's group first, every group contiguous: the path
        # crosses the root switch once per extra group.
        assert groups == sorted(groups, key=lambda g: (g != groups[0], g))
        crossings = sum(1 for a, b in zip(groups, groups[1:]) if a != b)
        assert crossings == 2

    def test_tree_rounds_double_each_round(self):
        assert tree_rounds(1) == []
        assert tree_rounds(2) == [[(0, 1)]]
        rounds = tree_rounds(8)
        assert len(rounds) == 3
        have = 1
        for rnd in rounds:
            assert len(rnd) == min(have, 8 - have)
            have += len(rnd)
        assert have == 8

    def test_tree_rounds_partial_last_round(self):
        rounds = tree_rounds(5)
        assert [len(r) for r in rounds] == [1, 2, 1]

    def test_costs_scale_with_payload_and_auto_matches_min(self):
        cluster = grouped_cluster(8, 1, 4)
        dsts = list(range(1, 8))
        for nbytes in (4 * KB, 64 * KB, 1 * MB, 16 * MB):
            costs = node_schedule_costs(cluster, 0, dsts, nbytes)
            assert costs["ring"] > 0 and costs["tree"] > 0
            pick = select_node_schedule(cluster, 0, dsts, nbytes)
            assert pick == ("ring" if costs["ring"] < costs["tree"]
                            else "tree")

    def test_tree_wins_small_ring_wins_large_on_wide_cluster(self):
        # 8 nodes: tree = 3 full-payload rounds, ring ~ 2x the payload
        # once the pipeline fills -- so latency-bound small messages go
        # tree and bandwidth-bound large ones go ring.
        cluster = grouped_cluster(8, 1, 4)
        dsts = list(range(1, 8))
        assert select_node_schedule(cluster, 0, dsts, 4 * KB) == "tree"
        assert select_node_schedule(cluster, 0, dsts, 64 * MB) == "ring"

    def test_dead_link_prices_infinite_and_auto_routes_around(self):
        # The ring path 0->1->2->3 crosses the dead 1<->2 link; the
        # binomial tree (0->1, then 0->2 and 1->3) never does.  The
        # dead edge prices infinite, so ``auto`` steers the broadcast
        # onto the schedule that avoids it.
        cluster = hypothetical_cluster(4, 1).degrade_link(1, 2, 0.0)
        costs = node_schedule_costs(cluster, 0, [1, 2, 3], 1 * MB)
        assert costs["ring"] == float("inf")
        assert costs["tree"] < float("inf")
        assert select_node_schedule(cluster, 0, [1, 2, 3], 1 * MB) == "tree"

    def test_empty_and_degenerate_broadcasts_cost_nothing(self):
        cluster = hypothetical_cluster(2, 2)
        assert node_schedule_costs(cluster, 0, [], 1 * MB) \
            == {"ring": 0.0, "tree": 0.0}
        assert node_schedule_costs(cluster, 0, [1], 0) \
            == {"ring": 0.0, "tree": 0.0}


# ---------------------------------------------------------------------------
# Engine validation / degeneracy
# ---------------------------------------------------------------------------

class TestEngineContract:
    def test_invalid_mode_rejected_by_run(self):
        spec = APPS["md"]
        prog = repro.compile(spec.source)
        with pytest.raises(ValueError, match="collective"):
            prog.run(spec.entry, spec.args_for("tiny"), ngpus=1,
                     collective="butterfly")

    def test_engine_rejects_none_and_unknown(self):
        spec = APPS["md"]
        prog = repro.compile(spec.source)
        run = prog.run(spec.entry, spec.args_for("tiny"), ngpus=1)
        # "none" is no collective schedule: the transport it selects
        # is the staged one.  Unknown values are rejected.
        assert Transport(run.platform, collective="none").mode == "staged"
        for bad in ("butterfly", "staged"):
            with pytest.raises(ValueError, match="collective"):
                Transport(run.platform, collective=bad)
        with pytest.raises(ValueError, match="internode"):
            Transport(run.platform, internode="butterfly")

    def test_naive_takes_no_collective_schedule(self):
        # docs/COLLECTIVES.md: ``internode="naive"`` is the undisturbed
        # ablation baseline.  It used to consult the collective engine
        # for node-local replicas anyway (37 collective broadcasts on
        # bfs 2x4 under naive + ring); the pair is a contradiction and
        # is rejected where the transport is configured.
        spec = APPS["bfs"]
        prog = repro.compile(spec.source)
        cluster = hypothetical_cluster(2, 4)
        for mode in SCHEDULES:
            with pytest.raises(ValueError) as exc_info:
                prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                         ngpus=8, internode="naive", collective=mode)
            assert "internode='naive'" in str(exc_info.value)
            assert f"collective={mode!r}" in str(exc_info.value)
        run = prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                       ngpus=8, internode="naive", collective="none")
        assert run.executor.comm.transport.mode == "naive"
        assert run.executor.comm.collective_broadcasts == 0

    def test_flag_pairs_select_five_transports(self):
        p = Platform(hypothetical_cluster(2, 2), 4)
        modes = {Transport(p, internode, collective).mode
                 for internode in ("staged", "naive")
                 for collective in COLLECTIVE_MODES
                 if (internode, collective) == ("naive", "none")
                 or internode == "staged"}
        assert modes == set(TRANSPORTS)

    def test_modes_tuple_is_the_contract(self):
        assert COLLECTIVE_MODES == ("none", "auto", "ring", "tree")

    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_one_gpu_degenerates_exactly(self, mode):
        spec = APPS["md"]
        prog = repro.compile(spec.source)
        a = spec.args_for("tiny")
        base = prog.run(spec.entry, a, ngpus=1)
        b = spec.args_for("tiny")
        run = prog.run(spec.entry, b, ngpus=1, collective=mode)
        for name, v in a.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(b[name], v)
        # Same modeled schedule, not merely same results.
        assert run.elapsed == base.elapsed
        assert run.executor.comm.collective_broadcasts == 0


# ---------------------------------------------------------------------------
# Determinism across schedules
# ---------------------------------------------------------------------------

class TestBitIdentity:
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_cluster_results_match_legacy_schedule(self, app, mode):
        spec = APPS[app]
        prog = repro.compile(spec.source)
        cluster = hypothetical_cluster(2, 2)
        a = spec.args_for("tiny")
        prog.run(spec.entry, a, machine=cluster, ngpus=4)
        b = spec.args_for("tiny")
        run = prog.run(spec.entry, b, machine=cluster, ngpus=4,
                       collective=mode)
        for name, v in a.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(
                    b[name], v,
                    err_msg=f"{app}/{name} diverged under "
                            f"collective={mode}")

    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_probe_stencil_matches_single_gpu_on_4x2(self, mode):
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        ref = probe_args()
        prog.run(PROBE_ENTRY, ref, ngpus=1)
        args = probe_args()
        run = prog.run(PROBE_ENTRY, args, machine=hypothetical_cluster(4, 2),
                       ngpus=8, collective=mode)
        for name in ("a", "record"):
            np.testing.assert_array_equal(args[name], ref[name])
        assert run.executor.comm.collective_broadcasts > 0

    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_composes_with_overlap_and_coalesce(self, mode):
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        ref = probe_args()
        prog.run(PROBE_ENTRY, ref, ngpus=1)
        args = probe_args()
        prog.run(PROBE_ENTRY, args, machine=hypothetical_cluster(2, 2),
                 ngpus=4, collective=mode, overlap=True, coalesce=True)
        for name in ("a", "record"):
            np.testing.assert_array_equal(args[name], ref[name])


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_dead_link_raises_structured_error_mid_schedule(self, mode):
        cluster = hypothetical_cluster(2, 2).degrade_link(0, 1, 0.0)
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        with pytest.raises(NetworkError) as exc_info:
            prog.run(PROBE_ENTRY, probe_args(), machine=cluster, ngpus=4,
                     collective=mode)
        err = exc_info.value
        assert {err.src_node, err.dst_node} == {0, 1}
        assert err.bandwidth == 0.0

    @pytest.mark.parametrize("mode", ["ring", "tree"])
    def test_dead_interior_link_raises_on_wider_ring(self, mode):
        # The dead link is *interior* to the broadcast structure (not
        # touching the source), so the failure really happens
        # mid-schedule, hops into the relay.
        cluster = hypothetical_cluster(4, 1).degrade_link(2, 3, 0.0)
        spec = EXTRA_APPS["jacobi"]
        prog = repro.compile(spec.source)
        with pytest.raises(NetworkError) as exc_info:
            prog.run(spec.entry, spec.args_for("tiny"), machine=cluster,
                     ngpus=4, collective=mode)
        err = exc_info.value
        assert {err.src_node, err.dst_node} == {2, 3}

    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_degraded_link_is_timing_only(self, mode):
        spec = EXTRA_APPS["jacobi"]
        prog = repro.compile(spec.source)
        healthy = hypothetical_cluster(2, 2)
        crippled = healthy.degrade_link(0, 1, 1e4)
        a = spec.args_for("tiny")
        fast = prog.run(spec.entry, a, machine=healthy, ngpus=4,
                        collective=mode)
        b = spec.args_for("tiny")
        slow = prog.run(spec.entry, b, machine=crippled, ngpus=4,
                        collective=mode)
        for name, v in a.items():
            if isinstance(v, np.ndarray):
                np.testing.assert_array_equal(b[name], v)
        assert slow.elapsed > fast.elapsed


# ---------------------------------------------------------------------------
# Telemetry: counters, metrics, mechanisms
# ---------------------------------------------------------------------------

class TestTelemetry:
    def _traced_run(self, mode, cluster=None):
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        cluster = cluster or hypothetical_cluster(2, 4)
        return prog.run(PROBE_ENTRY, probe_args(), machine=cluster,
                        ngpus=cluster.gpu_count, collective=mode,
                        trace=True)

    @pytest.mark.parametrize("mode", ["ring", "tree"])
    def test_engine_counters_and_metrics(self, mode):
        run = self._traced_run(mode)
        comm = run.executor.comm
        transport = comm.transport
        assert transport.mode == mode
        assert transport.broadcasts[mode] > 0
        assert transport.broadcasts["tree" if mode == "ring" else "ring"] == 0
        assert transport.staged_exchanges > 0
        assert comm.collective_steps > 0
        assert comm.bytes_collective > 0
        metrics = run.tracer.metrics
        assert metrics.counter_total("collective_steps",
                                     schedule=mode) > 0
        assert metrics.counter_total("collective_bytes",
                                     schedule=mode) > 0
        assert metrics.counter_total("collective_steps",
                                     schedule="pipeline") > 0

    @pytest.mark.parametrize("mode,mech", [
        ("ring", MECH_COLLECTIVE_RING),
        ("tree", MECH_COLLECTIVE_TREE),
    ])
    def test_trace_mechanisms_surface(self, mode, mech):
        run = self._traced_run(mode)
        mechs = {e.mechanism for e in run.tracer.events
                 if getattr(e, "mechanism", None)}
        assert mech in mechs
        assert MECH_COLLECTIVE_PIPELINE in mechs

    def test_legacy_mode_schedules_no_collectives(self):
        run = self._traced_run("none")
        comm = run.executor.comm
        assert comm.transport.mode == "staged"
        assert comm.collective_broadcasts == 0
        assert comm.collective_steps == 0
        assert comm.bytes_collective == 0
        mechs = {e.mechanism for e in run.tracer.events
                 if getattr(e, "mechanism", None)}
        assert not mechs & {MECH_COLLECTIVE_RING, MECH_COLLECTIVE_TREE,
                            MECH_COLLECTIVE_PIPELINE}

    def test_cross_node_bytes_match_legacy_staged(self):
        # Collectives re-time the NIC traffic but never inflate the
        # modeled cross-node byte total of the staged transport.
        prog = repro.compile(STENCIL_PROBES_SOURCE)
        cluster = hypothetical_cluster(2, 4)
        runs = {}
        for mode in ("none",) + SCHEDULES:
            run = prog.run(PROBE_ENTRY, probe_args(), machine=cluster,
                           ngpus=8, collective=mode)
            runs[mode] = run.platform.bus.cross_node_bytes()
        assert len(set(runs.values())) == 1


# ---------------------------------------------------------------------------
# The routing table (docs/COLLECTIVES.md "Who decides the route"), executed
# ---------------------------------------------------------------------------

#: A stub mechanism on a 2x2 fleet (GPUs 0,1 on node 0; 2,3 on node 1).
#: Pairs: two same-node, two node 0 -> 1 (from two source GPUs), one
#: node 1 -> 0.  Broadcast: GPU 0's two dirty runs to every other GPU.
STUB_PAIRS = [(0, 1, 64), (1, 2, 64), (0, 3, 64), (2, 1, 64), (3, 2, 64)]
STUB_RUNS = [(0, 256), (512, 256)]

#: transport -> shape -> (mechanism tags, net transfers, NIC bytes counted)
ROUTING_TABLE = {
    "naive": {
        # One NIC transfer per cross-node pair, under the caller's tag.
        "pairs": ({MECH_HALO}, 3, 3 * 64),
        # Per far target per run; the one near replica fans out too.
        "broadcast": ({MECH_REPLICA}, 4, 4 * 256),
    },
    "staged": {
        # One NIC transfer per node pair.
        "pairs": ({MECH_HALO, MECH_INTERNODE_STAGED}, 2, 3 * 64),
        # The shared payload crosses once per destination node.
        "broadcast": ({MECH_INTERNODE_STAGED, MECH_REPLICA}, 1, 512),
    },
    "ring": {
        # Pipelined: one NIC chunk per source GPU per node pair.
        "pairs": ({MECH_HALO, MECH_COLLECTIVE_PIPELINE}, 3, 3 * 64),
        "broadcast": ({MECH_COLLECTIVE_RING, MECH_REPLICA}, 1, 512),
    },
    "tree": {
        "pairs": ({MECH_HALO, MECH_COLLECTIVE_PIPELINE}, 3, 3 * 64),
        "broadcast": ({MECH_COLLECTIVE_TREE, MECH_REPLICA}, 1, 512),
    },
    "auto": {
        "pairs": ({MECH_HALO, MECH_COLLECTIVE_PIPELINE}, 3, 3 * 64),
        # One hop: ring and tree price the same, ties go to tree.
        "broadcast": ({MECH_COLLECTIVE_TREE, MECH_REPLICA}, 1, 512),
    },
}


class TestRoutingTable:
    def test_table_covers_every_transport(self):
        assert tuple(ROUTING_TABLE) == TRANSPORTS

    @pytest.mark.parametrize("shape", ["pairs", "broadcast"])
    @pytest.mark.parametrize("mode", TRANSPORTS)
    def test_transport_routes_shape(self, mode, shape):
        p = Platform(hypothetical_cluster(2, 2), 4)
        tracer = Tracer(ngpus=4)
        p.bus.observer = tracer.on_transfer
        transport = Transport(
            p, internode="naive" if mode == "naive" else "staged",
            collective=mode if mode in SCHEDULES else "none", tracer=tracer)
        assert transport.mode == mode

        class RecordingGate:
            def __init__(self):
                self.noted = []

            def note(self, tr, src, dst):
                self.noted.append(tr)

        transport.gate = RecordingGate()
        if shape == "pairs":
            transport.pairs("a", MECH_HALO, STUB_PAIRS)
        else:
            transport.broadcast("a", 0, [1, 2, 3], STUB_RUNS)
        tags, nets, nic_bytes = ROUTING_TABLE[mode][shape]
        assert {e.mechanism for e in tracer.events} == tags
        assert sum(t.kind == "net" for t in p.bus.pending) == nets
        assert transport.bytes_internode == nic_bytes
        # The overlap gate saw every transfer the bus did.
        assert transport.gate.noted == list(p.bus.pending)
        assert transport.transactions == len(p.bus.pending)
        assert {e.array for e in tracer.events} == {"a"}

    def test_direct_pairs_ignore_the_transport(self):
        # Reduction hops: list order, peer copies, whatever the mode.
        orders = set()
        for mode in TRANSPORTS:
            p = Platform(hypothetical_cluster(2, 2), 4)
            Transport(
                p, internode="naive" if mode == "naive" else "staged",
                collective=mode if mode in SCHEDULES else "none",
            ).pairs("a", MECH_HALO, STUB_PAIRS, direct=True)
            orders.add(tuple((t.kind, t.src_device, t.dst_device, t.start,
                              t.end) for t in p.bus.pending))
            assert [(t.src_device, t.dst_device, t.nbytes)
                    for t in p.bus.pending] == STUB_PAIRS
        assert len(orders) == 1


# ---------------------------------------------------------------------------
# explain --collectives
# ---------------------------------------------------------------------------

class TestExplainCollectives:
    def test_cluster_report_lists_schedules(self, capsys):
        assert explain_main(["--collectives", "tsubame2"]) == 0
        out = capsys.readouterr().out
        assert "ring" in out and "tree" in out and "auto" in out
        assert "ring path" in out

    def test_single_node_report_degenerates(self, capsys):
        assert explain_main(["--collectives", "desktop"]) == 0
        out = capsys.readouterr().out
        assert "single node" in out

    def test_render_matches_runtime_selection(self):
        cluster = CLUSTERS["tsubame2"]
        text = render_collectives(cluster)
        pick = select_node_schedule(
            cluster, 0, list(range(1, cluster.node_count)), 1 * MB,
            cluster.nic.collective_chunk_bytes)
        assert pick in text
