"""One transport schedule: every transfer the transport issues, pinned.

Every bundled app runs at its ``tiny`` size on a 4-GPU node, an 8-GPU
node on two I/O hubs and a 2x4 cluster, and ``bench.multinode``'s
probe stencil -- at the benchmark's size and at a wide size whose
replica broadcasts split into several NIC chunks -- runs on those three
and on 4x2 and 4x4 clusters grouped two nodes to a leaf switch.  Each
runs under every transport, synchronous and with ``overlap`` plus
``coalesce``.  One node has no cross-node pair, so ``naive`` routes
there as ``staged`` does and runs only on the clusters.

Per (machine, transport), the SHA-256 of every ``Transfer`` (kind,
bytes, endpoints, nodes, start and end as hex, category) and the
transport's counters of every run must equal the digest pinned here,
taken before the node and GPU tiers shared one ordering, one cost rule
and one issue routine and before NIC transfers were placed like PCIe
ones.  ``test_launch_identity.py`` reaches collectives on a 2x2 cluster
only, where no node has two local replicas and ``auto`` always picks
the tree; here ``ring`` and ``tree`` are forced as well.
``PYTHONPATH=src:. python tests/test_transport_identity.py`` prints the
table.
"""

import hashlib

import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench import multinode
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.vcuda.specs import cluster_of

APPS = {**ALL_APPS, **EXTRA_APPS}

#: name -> (machine factory, runs the bundled apps)
MACHINES = {
    "node4": (lambda: hypothetical_node(4), True),
    "node8": (lambda: hypothetical_node(8), True),
    "cluster2x4": (lambda: hypothetical_cluster(2, 4), True),
    "grouped4x2": (lambda: cluster_of(4, hypothetical_node(2),
                                      nodes_per_group=2), False),
    "grouped4x4": (lambda: cluster_of(4, hypothetical_node(4),
                                      nodes_per_group=2), False),
}

#: transport -> its run flags
TRANSPORTS = {
    "staged": dict(internode="staged"),
    "naive": dict(internode="naive"),
    "ring": dict(collective="ring"),
    "tree": dict(collective="tree"),
    "auto": dict(collective="auto"),
}

FLAGS = ({}, dict(overlap=True, coalesce=True))

#: The probe stencil's sizes: the benchmark's, and one whose record
#: array (128 KiB) broadcasts as two NIC chunks.
PROBES = {
    "probes": {},
    "probes_wide": dict(n=1 << 16, nprobes=1 << 15, steps=2),
}

DIGESTS = {
    ('node4', 'staged'):
        '97afcb0c4a8d765407eecc6c4c1efe692d0cd330116564a9ec69ab5f7fd1499c',
    ('node4', 'ring'):
        'b9bc95b85746920b0ceeb74a126c352db9e8f989f363aa6f44b2480eb86c0f26',
    ('node4', 'tree'):
        'db28cbec949c9730de48f6a686d26ec6bdd31eabc05fba376cd19058393c125d',
    ('node4', 'auto'):
        'db28cbec949c9730de48f6a686d26ec6bdd31eabc05fba376cd19058393c125d',
    ('node8', 'staged'):
        '2198a1bbcd201bbbd5c6f0754dcad8f53813850ce00f67f1b0bab39babb0b3c2',
    ('node8', 'ring'):
        '9b68305a7368007a2ad08d27b1b19e4d5fba2c247a5d95c592e8181e37a9329b',
    ('node8', 'tree'):
        '3ad40a056540ddc74387a14ff4685886e6fea49ce517851e85f227af91cecbe0',
    ('node8', 'auto'):
        '3ad40a056540ddc74387a14ff4685886e6fea49ce517851e85f227af91cecbe0',
    ('cluster2x4', 'staged'):
        '8265293f5b87792ade29772b12b619a48e412a0f861af5b942160a121daeeb41',
    ('cluster2x4', 'naive'):
        '645ec3bb757c1773927c2ad6964803852abdb47ebc8aa2ed9801ab5848c30159',
    ('cluster2x4', 'ring'):
        'b6242a41ecba49f6ed9068943be2f950b747801077393450e56e54db70535ba6',
    ('cluster2x4', 'tree'):
        'dbf40980b2ec9c71b0fa869549eb81705669f455e7071ed6c3ec3dd48e01fab8',
    ('cluster2x4', 'auto'):
        'dbf40980b2ec9c71b0fa869549eb81705669f455e7071ed6c3ec3dd48e01fab8',
    ('grouped4x2', 'staged'):
        'e8bc073bf8fe819252344e5f1f02cadd4e82b5235038e131ebee2807c20e59ed',
    ('grouped4x2', 'naive'):
        '9c26092b1c86d259b71f61c9a859d4471252bff8ae69bce39fc799592bba734c',
    ('grouped4x2', 'ring'):
        'dfaeb474a49918db813faa86e0592095dbbdba7fb5fff32601ba892a7aa09793',
    ('grouped4x2', 'tree'):
        '40e841007bac0bc0ec20e03045c19620eb1263a0b42f470ec009c57b0e910329',
    ('grouped4x2', 'auto'):
        '40e841007bac0bc0ec20e03045c19620eb1263a0b42f470ec009c57b0e910329',
    ('grouped4x4', 'staged'):
        '2ab4e4864edc58d828b05a828d57c54008d9ef7dd3a9441730c2c1121a394874',
    ('grouped4x4', 'naive'):
        'dfff249eea336b1cd1361a672a0dac205e2c05b988efd92be47f263690ecac79',
    ('grouped4x4', 'ring'):
        '4813d4435e49369c9272f3b47a6d0646e6115aa26d844ff40a1a4f2209e997dc',
    ('grouped4x4', 'tree'):
        '645da41423d80c0d52e50c6f68376c0a4974c18e4150af65bb1ba9f7eeb6f145',
    ('grouped4x4', 'auto'):
        '645da41423d80c0d52e50c6f68376c0a4974c18e4150af65bb1ba9f7eeb6f145',
}

COUNTERS = ("transactions", "bytes_internode", "staged_exchanges",
            "staged_broadcasts", "collective_steps", "broadcasts",
            "bytes_scheduled")


def workloads(bundled):
    """``(name, program, entry, make_args)`` per workload."""
    probes = repro.compile(multinode.STENCIL_PROBES_SOURCE)
    out = [(name, probes, multinode.ENTRY,
            lambda kw=kw: multinode.probe_args(**kw))
           for name, kw in PROBES.items()]
    if bundled:
        out += [(name, repro.compile(spec.source), spec.entry,
                 lambda spec=spec: spec.args_for("tiny"))
                for name, spec in sorted(APPS.items())]
    return out


def schedule(run):
    """Every transfer of ``run``, times as hex, and the transport's
    counters."""
    bus = run.platform.bus
    transport = run.executor.comm.transport
    return ([(t.kind, t.nbytes, t.src_device, t.dst_device, t.src_node,
              t.dst_node, float(t.start).hex(), float(t.end).hex(),
              t.category) for t in [*bus.completed, *bus.pending]],
            [(name, getattr(transport, name)) for name in COUNTERS])


def digest(machine, transport):
    make, bundled = MACHINES[machine]
    spec = make()
    seen = []
    for name, prog, entry, make_args in workloads(bundled):
        for flags in FLAGS:
            run = prog.run(entry, make_args(), machine=spec,
                           ngpus=spec.gpu_count, **TRANSPORTS[transport],
                           **flags)
            assert run.executor.comm.transport.mode == transport
            seen.append((name, sorted(flags), schedule(run)))
    return hashlib.sha256(repr(seen).encode()).hexdigest()


CASES = [(m, t) for m in MACHINES for t in TRANSPORTS
         if t != "naive" or m.startswith(("cluster", "grouped"))]


@pytest.mark.parametrize("machine,transport", CASES)
def test_digest(machine, transport):
    assert digest(machine, transport) == DIGESTS[machine, transport]


if __name__ == "__main__":
    for machine, transport in CASES:
        print(f"    ({machine!r}, {transport!r}):")
        print(f"        {digest(machine, transport)!r},")
