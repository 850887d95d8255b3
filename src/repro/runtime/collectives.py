"""The transport under the communication manager (docs/COLLECTIVES.md).

The comm manager (:mod:`repro.runtime.comm`) applies every coherence
data effect with NumPy and then states *what moved* in one of two
shapes; :class:`Transport` owns *how* it moves -- every schedule, the
choice between them, the mechanism tag, the issue floor and the
NIC-side counters:

* **pairs** ``[(src_gpu, dst_gpu, nbytes)]`` of pairwise-distinct
  payloads (halo slabs, windowed dirty overlaps, miss records,
  reduction hops).  Same-node pairs are direct peer copies; cross-node
  pairs go one NIC transfer per GPU pair (``naive``), aggregated per
  node pair as a serialized gather -> NIC -> scatter (``staged``), or
  as the same aggregation pipelined in NIC-sized chunks so the NIC leg
  of chunk *k* hides behind the PCIe legs of chunks *k±1*
  (``ring``/``tree``/``auto``).  :meth:`Transport.route` makes that
  split and prices the peer copies once; :meth:`Transport.ship` issues
  a route, so a layout's halo exchange is routed once and shipped
  after every launch.
* **broadcast** ``(src_gpu, targets, chunk runs)`` of one shared
  payload (replica dirty chunks).  Replicas on other nodes receive it
  once per *node*, not per member; the node hosts and the node-local
  replicas are reached by a direct fan-out, a host-staged D2H + H2Ds,
  or a structured collective:

  * **ring** -- a chunked pipeline around a group-contiguous node ring
    (PCIe-hub-local ring inside a node).  Bandwidth-optimal for large
    payloads: the slowest link is loaded once per chunk instead of once
    per destination, and chunk *k* on leg *i+1* overlaps chunk *k+1* on
    leg *i*.
  * **tree** -- a binomial tree, ``ceil(log2 N)`` rounds of concurrent
    full-payload sends.  Latency-optimal for small payloads.
  * **auto** -- price both against the modeled per-edge bandwidth and
    latency (:func:`schedule_costs`) and take the cheaper one; the
    oversubscribed cross-group bandwidth of a two-level fabric enters
    the edge costs directly and acts as the tiebreak.

  Both tiers -- the node hosts over the NIC and one node's GPUs over
  peer copies -- share one path order (:func:`ring_order`), one cost
  rule (:func:`schedule_costs`) and one issue routine
  (:meth:`Transport._collective`, whose ring is :meth:`Bus.net_pipeline`).

Everything here only prices *when* modeled transfers happen; array data
is applied eagerly by the comm manager before any schedule runs, so
results are bit-identical across transports by construction (the
determinism matrix pins it).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable

from ..vcuda.bus import CATEGORY_GPU_GPU, Bus, Transfer, net_seconds
from ..vcuda.specs import ClusterSpec
from ..trace.events import (
    MECH_COLLECTIVE_PIPELINE,
    MECH_COLLECTIVE_RING,
    MECH_COLLECTIVE_TREE,
    MECH_INTERNODE_STAGED,
    MECH_REPLICA,
    MECH_REPLICA_STAGED,
)
from .config import COLLECTIVE_MODES, TRANSPORTS, RunConfig

__all__ = [
    "COLLECTIVE_MODES",
    "TRANSPORTS",
    "Transport",
    "node_schedule_costs",
    "ring_order",
    "schedule_costs",
    "select_node_schedule",
    "tree_rounds",
]

#: ``(src_gpu, dst_gpu, nbytes)``.
Pair = tuple[int, int, int]
#: A list of pairs as :meth:`Transport.ship` issues it: the peer copies
#: in issue order, ``(src_gpu, dst_gpu, nbytes, price)`` with the bus's
#: price (``None`` for a copy the bus routes over the NIC), then the
#: cross-node pairs :meth:`Transport._exchange` aggregates.
Route = tuple[list[tuple[int, int, int, tuple | None]], list[Pair]]

#: Mechanism tag of each collective schedule.
_MECH = {"ring": MECH_COLLECTIVE_RING, "tree": MECH_COLLECTIVE_TREE}


# ---------------------------------------------------------------------------
# Pure cost model (no platform required -- `explain --collectives` uses
# these directly on a spec).
# ---------------------------------------------------------------------------

def ring_order(cluster: ClusterSpec, src: int, members: list[int],
               domain: Callable[[int], int] | None = None) -> list[int]:
    """Order ``members`` into a broadcast path: the source first, then
    the rest of its own domain, then every other domain contiguous.
    A node's domain is its leaf-switch group (``cluster.group_of``,
    the default ``domain``), a GPU's its I/O hub: the path crosses the
    root switch (the QPI) once per extra domain -- the minimum for a
    connected path -- instead of once per hop."""
    domain = domain or cluster.group_of
    home = domain(src)
    rest = sorted(m for m in members if m != src)
    rest.sort(key=lambda m: (domain(m) != home, domain(m), m))
    return [src] + rest


def tree_rounds(count: int) -> list[list[tuple[int, int]]]:
    """Binomial broadcast rounds over ``count`` participants (index 0
    is the root): round *r* doubles the set of holders, so ``ceil(log2
    count)`` rounds total.  Returns ``(sender_index, receiver_index)``
    pairs per round."""
    rounds: list[list[tuple[int, int]]] = []
    have = 1
    while have < count:
        senders = min(have, count - have)
        rounds.append([(s, have + s) for s in range(senders)])
        have += senders
    return rounds


def schedule_costs(path: list[int], chunks: list[int], total: int,
                   hop: Callable[[int, int, int], float]) -> dict[str, float]:
    """Modeled cost of broadcasting ``total`` bytes along ``path`` (the
    source first) under each schedule, ``hop(a, b, nbytes)`` pricing one
    unloaded message.

    ring: the ``K`` ``chunks`` pipeline over ``H`` hops.  One hop
    degenerates to ``K`` serialized messages; with relays every
    interior port is half-duplex (it cannot receive chunk *k+1* while
    forwarding chunk *k*), so the steady-state period is two steps per
    chunk: ``(H + 2*(K-1)) * max_edge_step``.

    tree: ``ceil(log2 N)`` rounds, each costing its slowest edge's
    full-payload message.
    """
    hops = len(path) - 1
    step = max(hop(a, b, chunks[0]) for a, b in zip(path, path[1:]))
    ring = (len(chunks) if hops == 1 else hops + 2 * (len(chunks) - 1)) * step
    tree = sum(max(hop(path[s], path[r], total) for s, r in rnd)
               for rnd in tree_rounds(len(path)))
    return {"ring": ring, "tree": tree}


def _cheaper(costs: dict[str, float]) -> str:
    """The ``auto`` rule: cheaper modeled schedule, ties to ``tree``
    (fewer messages on the wire for the same modeled time)."""
    return "ring" if costs["ring"] < costs["tree"] else "tree"


def node_schedule_costs(cluster: ClusterSpec, src_node: int,
                        dst_nodes: list[int], nbytes: int,
                        chunk_bytes: int | None = None) -> dict[str, float]:
    """:func:`schedule_costs` of broadcasting ``nbytes`` from
    ``src_node`` to ``dst_nodes`` over the NIC; a dead link prices
    ``inf`` (:func:`~repro.vcuda.bus.net_seconds`), so ``auto`` never
    picks a schedule across it when an alternative exists."""
    participants = [src_node] + sorted(set(dst_nodes) - {src_node})
    if len(participants) < 2 or nbytes <= 0:
        return {"ring": 0.0, "tree": 0.0}
    if chunk_bytes is None:
        chunk_bytes = cluster.nic.collective_chunk_bytes
    return schedule_costs(ring_order(cluster, src_node, participants),
                          Bus.split_chunks(nbytes, chunk_bytes), nbytes,
                          lambda a, b, n: net_seconds(cluster, a, b, n))


def select_node_schedule(cluster: ClusterSpec, src_node: int,
                         dst_nodes: list[int], nbytes: int,
                         chunk_bytes: int | None = None) -> str:
    """The ``auto`` pick (:func:`_cheaper`) for a node broadcast."""
    return _cheaper(node_schedule_costs(cluster, src_node, dst_nodes,
                                        nbytes, chunk_bytes))


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

class Transport:
    """Issues every coherence transfer of one run on the bus.

    Configured once from the run's :class:`RunConfig`; :attr:`mode` is
    its :attr:`~RunConfig.transport`, one of :data:`TRANSPORTS`.  The
    transport owns *pricing only*: the comm manager has already applied
    the array data before calling :meth:`pairs` / :meth:`ship` /
    :meth:`broadcast`, and keeps the per-mechanism byte ledger; the
    counters here are the NIC-side ones, so ablation comparisons stay
    apples-to-apples across transports.
    """

    def __init__(self, platform: Any, config: RunConfig | None = None,
                 tracer: Any | None = None) -> None:
        #: The run's flags (:class:`RunConfig`).
        self.config = config = config or RunConfig()
        self.mode = config.transport
        self.platform = platform
        self.bus: Bus = platform.bus
        self.machine = self.bus.machine
        #: Opt-in tracer: transfers issued inside a :meth:`_tag` block
        #: carry the mechanism and array that produced them.
        self.tracer = tracer
        #: Overlap bookkeeping hook: while the comm manager propagates
        #: one array in overlap mode this is its in-flight record, and
        #: every issued transfer is reported to its ``note(transfer,
        #: src_gpu, dst_gpu)`` (completions become event dependences).
        self.gate: Any | None = None
        self._node = [platform.node_of(g) for g in range(platform.ngpus)]
        #: I/O hub per GPU, resolved once (a cluster's ``hub_of`` walks
        #: its node list on every call).
        self._hub = [self.machine.hub_of(g) for g in range(platform.ngpus)]
        self._multinode = len(set(self._node)) > 1
        nic = getattr(self.machine, "nic", None)
        #: NIC pipeline chunk (0 on single-node machines: no NIC).
        self.net_chunk = nic.collective_chunk_bytes if nic is not None else 0
        #: Telemetry: bus transactions issued.
        self.transactions = 0
        #: Telemetry: bytes that crossed a node boundary (NIC bytes --
        #: aggregated totals when staged, per-pair sums when direct),
        #: node-pair exchanges performed (serialized or pipelined) and
        #: host-staged node-local broadcasts.
        self.bytes_internode = 0
        self.staged_exchanges = 0
        self.staged_broadcasts = 0
        #: Telemetry: collective broadcasts issued per schedule.
        self.broadcasts = {"ring": 0, "tree": 0}
        #: Telemetry: total pipeline steps (one modeled transfer on the
        #: critical structure: a NET chunk hop or a p2p ring hop).
        self.collective_steps = 0
        #: Telemetry: wire bytes scheduled per schedule (every hop
        #: counted -- a relayed chunk pays each leg it traverses).
        self.bytes_scheduled = {"ring": 0, "tree": 0, "pipeline": 0}

    @property
    def collective_broadcasts(self) -> int:
        """Collective (ring/tree) broadcasts scheduled."""
        return sum(self.broadcasts.values())

    @property
    def bytes_collective(self) -> int:
        """Wire bytes moved under collective schedules (each hop a
        relayed chunk traverses counts once)."""
        return sum(self.bytes_scheduled.values())

    # -- helpers ---------------------------------------------------------------

    def _tag(self, mechanism: str, array: str | None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.tag(mechanism, array)

    def _note(self, tr: Transfer, src: int | None, dst: int | None) -> None:
        self.transactions += 1
        if self.gate is not None:
            self.gate.note(tr, src, dst)

    def _floor(self, *gpus: int) -> float:
        """Issue dependency of a transfer: the endpoint GPUs' queued
        kernels produce (source) or still read (destination) the
        buffers, so the copy may not start before they finish."""
        if not self.config.overlap:
            return 0.0
        devs = self.platform.devices
        floor = 0.0
        for g in gpus:
            if devs[g].busy_until > floor:
                floor = devs[g].busy_until
        return floor

    def _gather(self, g: int, nbytes: int, local: bool = True) -> float:
        """D2H leg of a staged schedule (into the node host's memory
        when ``local``); returns its completion time."""
        d = self.bus.d2h(g, nbytes, not_before=self._floor(g),
                         category=CATEGORY_GPU_GPU, local=local)
        self._note(d, g, None)
        return d.end

    def _net(self, src_node: int, dst_node: int, nbytes: int,
             ready: float) -> Transfer:
        """Host-to-host NIC leg."""
        tr = self.bus.net(src_node, dst_node, nbytes, not_before=ready)
        self._note(tr, None, None)
        return tr

    def _p2p(self, a: int, b: int, nbytes: int, ready: float) -> Transfer:
        """Peer-copy leg, no earlier than its endpoints' issue floor."""
        tr = self.bus.p2p(a, b, nbytes, not_before=max(ready,
                                                       self._floor(a, b)))
        self._note(tr, a, b)
        return tr

    def _scatter(self, t: int, nbytes: int, ready: float,
                 local: bool = True) -> None:
        """H2D leg of a staged schedule, chained on ``ready``."""
        h = self.bus.h2d(t, nbytes, not_before=max(ready, self._floor(t)),
                         category=CATEGORY_GPU_GPU, local=local)
        self._note(h, None, t)

    def _record(self, schedule: str, scope: str, steps: int,
                nbytes: int) -> None:
        self.collective_steps += steps
        self.bytes_scheduled[schedule] += nbytes
        if self.tracer is not None:
            self.tracer.metrics.count("collective_steps", steps,
                                      schedule=schedule, scope=scope)
            self.tracer.metrics.count("collective_bytes", nbytes,
                                      schedule=schedule, scope=scope)

    # -- pairs: pairwise-distinct payloads --------------------------------------

    def pairs(self, array: str | None, mech: str, pairs: list[Pair],
              direct: bool = False) -> None:
        """Ship ``(src_gpu, dst_gpu, nbytes)`` pairs under the
        mechanism tag ``mech``: :meth:`ship` of their :meth:`route`."""
        self.ship(array, mech, self.route(pairs, direct))

    def route(self, pairs: list[Pair], direct: bool = False) -> Route:
        """How :meth:`ship` issues ``pairs``.

        Same-node pairs are peer copies in list order, each checked and
        priced here by :meth:`Bus.price_p2p`; the cross-node ones follow
        them -- as peer copies too on the ``naive`` transport (the bus
        routes a cross-node peer copy over the NIC itself), otherwise
        aggregated per node pair (:meth:`_exchange`).  ``direct`` ships
        every pair as a peer copy in list order, whatever the transport:
        reduction hops (each depends on the one before) and the direct
        replica fan-out.  A route depends on the pairs and the topology
        only, so a layout's halo exchange keeps its route.
        """
        far: list[Pair] = []
        if self._multinode and not direct:
            node = self._node
            far = [p for p in pairs if node[p[0]] != node[p[1]]]
            if far:
                pairs = [p for p in pairs if node[p[0]] == node[p[1]]]
                if self.mode == "naive":
                    pairs, far = pairs + far, []
        price = self.bus.price_p2p
        return [(g, t, n, price(g, t, n)) for g, t, n in pairs], far

    def ship(self, array: str | None, mech: str, route: Route) -> None:
        """Issue a :meth:`route` under the mechanism tag ``mech``, each
        peer copy no earlier than its endpoints' issue floor."""
        near, far = route
        bus, floor, note = self.bus, self._floor, self._note
        with self._tag(mech, array):
            for g, t, nbytes, price in near:
                if price is None:
                    tr = bus.p2p(g, t, nbytes, not_before=floor(g, t))
                    self.bytes_internode += nbytes
                else:
                    tr = bus.place_transfer("p2p", nbytes, g, t, price,
                                            floor(g, t))
                note(tr, g, t)
        if far:
            self._exchange(array, far)

    def _exchange(self, array: str | None, far: list[Pair]) -> None:
        """Cross-node pairs, aggregated per (source node, destination
        node): gather each source GPU's bytes to its node host (D2H),
        NIC, scatter per destination GPU (H2D) -- one NIC message
        stream per node pair instead of one per GPU pair, which is what
        amortizes the NIC latency (the measured win of the multinode
        ablation).  ``staged`` serializes the three legs; the collective
        transports pipeline them in NIC-sized chunks."""
        node = self._node
        groups: dict[tuple[int, int], tuple[dict, dict]] = {}
        for g, t, nbytes in far:
            outbound, inbound = groups.setdefault((node[g], node[t]),
                                                  ({}, {}))
            outbound[g] = outbound.get(g, 0) + nbytes
            inbound[t] = inbound.get(t, 0) + nbytes
        staged = self.mode == "staged"
        with self._tag(MECH_INTERNODE_STAGED if staged
                       else MECH_COLLECTIVE_PIPELINE, array):
            for sn, dn in sorted(groups):
                outbound, inbound = groups[sn, dn]
                total = sum(outbound.values())
                if staged:
                    ready = 0.0
                    for g in sorted(outbound):
                        ready = max(ready, self._gather(g, outbound[g]))
                    ready = self._net(sn, dn, total, ready).end
                    for t in sorted(inbound):
                        self._scatter(t, inbound[t], ready)
                else:
                    self._pipelined_exchange(sn, dn, outbound, inbound)
                self.bytes_internode += total
                self.staged_exchanges += 1

    def _pipelined_exchange(self, src_node: int, dst_node: int,
                            outbound: dict[int, int],
                            inbound: dict[int, int]) -> None:
        """Progress engine for one node pair: split each source GPU's
        payload into NIC-sized chunks and chain D2H -> NET -> H2D per
        chunk, so the NIC leg of chunk *k* overlaps the gather of chunk
        *k+1* and the scatter of chunk *k-1* -- NIC time hides behind
        intra-node PCIe time instead of serializing after it."""
        stream: list[tuple[int, float]] = []
        for g in sorted(outbound):
            for c in Bus.split_chunks(outbound[g], self.net_chunk):
                stream.append((c, self._net(src_node, dst_node, c,
                                            self._gather(g, c)).end))
        # Scatter consumes the chunk stream in order: destination
        # bytes map onto whichever NET chunks delivered them, and
        # each H2D piece waits only for *its* chunk, not the last.
        i = 0
        rem = stream[0][0] if stream else 0
        for t in sorted(inbound):
            need = inbound[t]
            while need > 0:
                take = min(need, rem)
                self._scatter(t, take, stream[i][1])
                need -= take
                rem -= take
                if rem == 0 and i + 1 < len(stream):
                    i += 1
                    rem = stream[i][0]
        self._record("pipeline", "internode", len(stream),
                     sum(outbound.values()))

    # -- broadcast: one shared payload --------------------------------------------

    def broadcast(self, array: str | None, g: int, targets: list[int],
                  runs: list[tuple[int, int]]) -> None:
        """Ship GPU ``g``'s dirty chunk ``runs`` (``(byte_offset,
        nbytes)``, one DMA each when sent directly) to every replica in
        ``targets``: the other nodes first, then the node-local ones
        (on a single-node machine every target is node-local)."""
        total = sum(n for _, n in runs)
        node = self._node
        far = [t for t in targets if node[t] != node[g]]
        if far:
            if self.mode == "naive":
                self._fan_out(array, g, far, runs)
            else:
                self._node_broadcast(array, g, far, total)
        near = [t for t in targets if node[t] == node[g]]
        if not near:
            return
        if self.mode in ("ring", "tree", "auto") and self._gpu_broadcast(
                array, g, near, runs, total):
            return
        if self._host_staging_pays(g, near, runs, total):
            # Host-staged broadcast: one D2H of the dirty bytes, then
            # one H2D per replica chained on its completion.  For a
            # fan-out of two or more this loads each link once instead
            # of occupying the source link per peer (and avoids
            # repeated QPI crossings on dual-hub nodes).  Logically it
            # is inter-GPU traffic: the legs carry a GPU-GPU category.
            with self._tag(MECH_REPLICA_STAGED, array):
                ready = self._gather(g, total, local=False)
                self.staged_broadcasts += 1
                for t in near:
                    self._scatter(t, total, ready, local=False)
        else:
            self._fan_out(array, g, near, runs)

    def _fan_out(self, array: str | None, g: int, targets: list[int],
                 runs: list[tuple[int, int]]) -> None:
        """Direct fan-out: one peer copy per target per dirty chunk run
        (the sender scans only the second-level bits, so the transfer
        unit is the chunk)."""
        self.pairs(array, MECH_REPLICA,
                   [(g, t, n) for t in targets for _, n in runs],
                   direct=True)

    def _fan_out_cost(self, g: int, targets: list[int],
                      runs: list[tuple[int, int]]) -> float:
        return sum(self.bus.duration("p2p", n, g, t)
                   for t in targets for _, n in runs)

    def _host_staging_pays(self, g: int, targets: list[int],
                           runs: list[tuple[int, int]], total: int) -> bool:
        """Price direct fan-out vs host staging for one source GPU.
        Staging needs async transfers with dependencies, so it only
        runs in overlap mode."""
        if not self.config.overlap or len(targets) < 2 or total == 0:
            return False
        staged = (self.bus.duration("d2h", total, g, None)
                  + self.bus.duration("h2d", total, None, g))
        return staged < self._fan_out_cost(g, targets, runs)

    def _node_broadcast(self, array: str | None, g: int, far: list[int],
                        total: int) -> None:
        """Replicas on other nodes: the payload is *shared*, so staging
        dedups -- one D2H gather on the source node, ``total`` bytes
        once per destination *node*, then a per-member H2D scatter.
        ``staged`` sends one NIC transfer per destination node from the
        source; ring/tree relay between the node hosts instead, so the
        source NIC port is loaded once and the hops pipeline."""
        src_node = self._node[g]
        members: dict[int, list[int]] = {}
        for t in sorted(far):
            members.setdefault(self._node[t], []).append(t)
        dst_nodes = sorted(members)
        self.bytes_internode += total * len(dst_nodes)
        if self.mode == "staged":
            with self._tag(MECH_INTERNODE_STAGED, array):
                ready = self._gather(g, total)
                for dn in dst_nodes:
                    arrived = self._net(src_node, dn, total, ready).end
                    self.staged_exchanges += 1
                    for t in members[dn]:
                        self._scatter(t, total, arrived)
            return
        schedule = self.mode
        if schedule == "auto":
            schedule = select_node_schedule(self.machine, src_node,
                                            dst_nodes, total, self.net_chunk)
        path = ring_order(self.machine, src_node, [src_node] + dst_nodes)
        chunks = (Bus.split_chunks(total, self.net_chunk)
                  if schedule == "ring" else [total])
        with self._tag(_MECH[schedule], array):
            ready = [self._gather(g, c) for c in chunks]
            arrivals = self._collective(schedule, "internode", path, chunks,
                                        ready, self._net)
            for dn in dst_nodes:
                for t in members[dn]:
                    for tr in arrivals[dn]:
                        self._scatter(t, tr.nbytes, tr.end)

    def _collective(self, schedule: str, scope: str, path: list[int],
                    chunks: list[int], ready: list[float],
                    leg: Callable[[int, int, int, float], Transfer],
                    ) -> dict[int, list[Transfer]]:
        """Issue one collective broadcast along ``path`` (the source
        first), each hop by ``leg`` (:meth:`_net` or :meth:`_p2p`):
        ``ring`` pipelines ``chunks`` chunk-major through
        :meth:`Bus.net_pipeline`, ``tree`` sends its one chunk down
        :func:`tree_rounds`.  Chunk *k* leaves the source no earlier
        than ``ready[k]``.  Returns the transfers that delivered each
        chunk to each other member."""
        if schedule == "ring":
            arrivals = self.bus.net_pipeline(path, chunks, leg, ready)
        else:
            done = {path[0]: ready[0]}
            arrivals = {}
            for rnd in tree_rounds(len(path)):
                for s, r in rnd:
                    tr = leg(path[s], path[r], chunks[0], done[path[s]])
                    done[path[r]] = tr.end
                    arrivals[path[r]] = [tr]
        self.broadcasts[schedule] += 1
        hops = len(path) - 1
        self._record(schedule, scope, len(chunks) * hops, sum(chunks) * hops)
        return arrivals

    def _gpu_broadcast(self, array: str | None, g: int, targets: list[int],
                       runs: list[tuple[int, int]],
                       total: int) -> str | None:
        """Node-local replica broadcast as a hub-local ring chain or a
        binomial p2p tree.  Returns the schedule used, or ``None`` when
        it declines (fewer than two targets, or ``auto`` prices the
        direct fan-out cheaper) and the caller falls through."""
        if total <= 0 or len(targets) < 2:
            return None
        path = ring_order(self.machine, g, targets, self._hub.__getitem__)
        chunks = Bus.split_chunks(total, self.machine.node_bus(
            self._node[g]).collective_chunk_bytes)
        schedule = self.mode
        if schedule == "auto":
            duration = self.bus.duration
            costs = schedule_costs(path, chunks, total,
                                   lambda a, b, n: duration("p2p", n, a, b))
            if self._fan_out_cost(g, targets, runs) <= min(costs.values()):
                return None
            schedule = _cheaper(costs)
        if schedule == "tree":
            chunks = [total]
        with self._tag(_MECH[schedule], array):
            self._collective(schedule, "intranode", path, chunks,
                             [0.0] * len(chunks), self._p2p)
        return schedule
