"""One launch path: every observable of every bundled app, pinned.

Each bundled app runs at its ``test`` size on 4 GPUs under four
configurations, and the SHA-256 of the ``repr`` of
:func:`tests.test_launch_graph.observables` -- arrays, every launch
record and ``Transfer`` with floats as hex, the breakdown, loop stats,
the ledger -- must equal the digest pinned here, which was taken before
the synchronous, overlap and replayed launches became one body in
``AccExecutor.run_loop``.  The same digests must come out with the
executor's per-plan memo stubbed off, so that every launch rebuilds its
contexts and finds no launch graph.  ``PYTHONPATH=src:. python
tests/test_launch_identity.py`` prints the table.
"""

import hashlib

import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.runtime.context import AccExecutor, PlanMemo, _bound_names

from tests.test_launch_graph import observables

APPS = {**ALL_APPS, **EXTRA_APPS}

#: name -> (run flags, machine factory)
CONFIGS = {
    "default": ({}, lambda: hypothetical_node(4)),
    "overlap_coalesce": (dict(overlap=True, coalesce=True),
                         lambda: hypothetical_node(4)),
    "adaptive": (dict(adaptive=True), lambda: hypothetical_node(4)),
    "overlap_auto_2x2": (dict(overlap=True, collective="auto"),
                         lambda: hypothetical_cluster(2, 2)),
}

DIGESTS = {
    ('default', 'bfs'):
        '99ec61cb9548c56cefbf53b7fd7393d7cdf000a636b82546ccfe34e64ad50635',
    ('default', 'gradpipe'):
        '2c99858eec5dfc22f2a3a176dae9d3c4380b8ce09ef3562b98941f7f910e18fc',
    ('default', 'heat2d'):
        '027013c6824ccafcc8e27fbf3113f4fc2b152eb0900cdd13b66e95f945e5a5cf',
    ('default', 'jacobi'):
        'd1c45ead09bb3a0f1acc6ae3dd8de41837e8e49929b29909ff659ae47bec1b4b',
    ('default', 'kmeans'):
        '550a7803678d610b0326054de13a68a7eb8598b1cc930af3830f9f9025248a9a',
    ('default', 'md'):
        '23166a9fe93663fdc62f80401793d77bb0132495b99dc9957d8f447ac843e595',
    ('default', 'phasepipe'):
        '0c5297b5a2de6be57515bc491417ebf215153155f3b69d7f351ff630a9333079',
    ('default', 'shift_scale'):
        'ac4085056f5cd0bb0b43f1d98c988816c0a666bcb6715d53441c436017d3416c',
    ('default', 'spmv'):
        'a008c161a2c7d6122b4e0d039971c9b8c17dad2bf718b22057aeb12502551e19',
    ('default', 'stencil'):
        '41f14902f0c8e7fb69c3263721f7a6aa8a6e9a4923cbd216ad86268ac3501ec0',
    ('overlap_coalesce', 'bfs'):
        'cdbbc03f5ff79d28d63e123d209c58d2f2a7701f370969c752ff605b88c073ba',
    ('overlap_coalesce', 'gradpipe'):
        'c2d7645d896a4bc097938e8cccc6a408730763bd249a1befa8334f7917f54118',
    ('overlap_coalesce', 'heat2d'):
        '9646aa34b08865ff837e8edb79e36fd7329105bb2ca8b86b973826497cdf92e8',
    ('overlap_coalesce', 'jacobi'):
        'c001ba9ae778f94956340b0bdd9119905fe217fa4f2a4eaf691add5f63724c40',
    ('overlap_coalesce', 'kmeans'):
        '867f3f1112a49dbbc02cd504998d65f768121797cdcb8cf7e70259d2603f91e6',
    ('overlap_coalesce', 'md'):
        '79f5fa9a8ba2ce821aee94697daa1ccaffa2f4b59d85471b72e4c9dba24b4d57',
    ('overlap_coalesce', 'phasepipe'):
        '0f281cbb46e1cbdb446663055220363a50a89139ea3abc4f8f3deeed052b4efe',
    ('overlap_coalesce', 'shift_scale'):
        'df55ef26e558b6714c0a69db67a1475106ebeb45f81e9981ff723d9dad3b605b',
    ('overlap_coalesce', 'spmv'):
        '385e9ebb74c56de9594f305255aae957c66fc2fc4201bbf0cb2f10cfb0c76584',
    ('overlap_coalesce', 'stencil'):
        '0b31bd310353cd62cd5fbd6e8c24739093d5b448c9c839831d48a02f27a34bff',
    ('adaptive', 'bfs'):
        '99ec61cb9548c56cefbf53b7fd7393d7cdf000a636b82546ccfe34e64ad50635',
    ('adaptive', 'gradpipe'):
        '2c99858eec5dfc22f2a3a176dae9d3c4380b8ce09ef3562b98941f7f910e18fc',
    ('adaptive', 'heat2d'):
        '027013c6824ccafcc8e27fbf3113f4fc2b152eb0900cdd13b66e95f945e5a5cf',
    ('adaptive', 'jacobi'):
        'd1c45ead09bb3a0f1acc6ae3dd8de41837e8e49929b29909ff659ae47bec1b4b',
    ('adaptive', 'kmeans'):
        '550a7803678d610b0326054de13a68a7eb8598b1cc930af3830f9f9025248a9a',
    ('adaptive', 'md'):
        '23166a9fe93663fdc62f80401793d77bb0132495b99dc9957d8f447ac843e595',
    ('adaptive', 'phasepipe'):
        '0c5297b5a2de6be57515bc491417ebf215153155f3b69d7f351ff630a9333079',
    ('adaptive', 'shift_scale'):
        'ac4085056f5cd0bb0b43f1d98c988816c0a666bcb6715d53441c436017d3416c',
    ('adaptive', 'spmv'):
        'a008c161a2c7d6122b4e0d039971c9b8c17dad2bf718b22057aeb12502551e19',
    ('adaptive', 'stencil'):
        '41f14902f0c8e7fb69c3263721f7a6aa8a6e9a4923cbd216ad86268ac3501ec0',
    ('overlap_auto_2x2', 'bfs'):
        '22b4a7aca9593785b2d82e6a3dd152860dc834724e127436e0c1bed1ebaef3bc',
    ('overlap_auto_2x2', 'gradpipe'):
        'dbc14bb6db121586d7389bf258bb0465d2fc1822bcf4c5f5f93f1be3c728d628',
    ('overlap_auto_2x2', 'heat2d'):
        '647ffdcc2c55e5ebb399704f117bd0751cc2fec4f3d24a60616e3c0e7c12a141',
    ('overlap_auto_2x2', 'jacobi'):
        '77de3b744b2b3046f2bcc02d0544cacafbc1897288f16b4a6ac77aa20401181e',
    ('overlap_auto_2x2', 'kmeans'):
        'b7b4ac541fd5e39a9730246bcd30a317ccff0cef96f8e8114df9442455be0b55',
    ('overlap_auto_2x2', 'md'):
        'fcc527746fbe2d25d66bc2ec34c2daf942d53c20b78792a49cb9c57ca40f032d',
    ('overlap_auto_2x2', 'phasepipe'):
        '296fd81983ee19389dfc75a7c6d374af62749d6c560ba6d099aa150761a9b745',
    ('overlap_auto_2x2', 'shift_scale'):
        '2153a6d694f5d6c71f23f21b9e2afdcd35fee9f18d83cbd4e67d6c9259b260f6',
    ('overlap_auto_2x2', 'spmv'):
        'c535057c60def20ee1ab54e61ea7d84b4b976823024fdcd1aa67c899aba5dc1b',
    ('overlap_auto_2x2', 'stencil'):
        'b666363f411e388b5134c32f023786e413ee73e5b3e2be3a2e0234ffc630d7c1',
}


def observe(name, config):
    """(run, digest of its observables)."""
    spec = APPS[name]
    flags, machine = CONFIGS[config]
    args = spec.args_for("test")
    run = repro.compile(spec.source).run(spec.entry, args, machine=machine(),
                                         ngpus=4, **flags)
    seen = repr(observables(run, args)).encode()
    return run, hashlib.sha256(seen).hexdigest()


def digest(name, config):
    return observe(name, config)[1]


CASES = [(c, n) for c in CONFIGS for n in sorted(APPS)]


@pytest.fixture
def binds(monkeypatch):
    """Count context builds (``AccExecutor._bind`` calls)."""
    seen = [0]
    bind = AccExecutor._bind

    def counted(self, memo, configs):
        seen[0] += 1
        return bind(self, memo, configs)

    monkeypatch.setattr(AccExecutor, "_bind", counted)
    return seen


@pytest.mark.parametrize("config,name", CASES)
def test_digest(config, name):
    assert digest(name, config) == DIGESTS[config, name]


@pytest.mark.parametrize("config,name", CASES)
def test_digest_without_the_memo(monkeypatch, binds, config, name):
    # A fresh memo per launch: every launch binds its contexts anew.
    monkeypatch.setattr(AccExecutor, "_memo",
                        lambda self, plan: PlanMemo(plan, _bound_names(plan)))
    run, seen = observe(name, config)
    assert binds[0] == len(run.loop_stats)
    assert run.executor.graph_replays == 0
    assert seen == DIGESTS[config, name]


@pytest.mark.parametrize("config", CONFIGS)
def test_contexts_are_reused(binds, config):
    # jacobi's two loops bind once per layout, not once per launch.
    run, _ = observe("jacobi", config)
    assert 0 < binds[0] < len(run.loop_stats) // 2


if __name__ == "__main__":
    for config, name in CASES:
        print(f"    ({config!r}, {name!r}):")
        print(f"        {digest(name, config)!r},")
