"""One launch path: every observable of every bundled app, pinned.

Each bundled app runs at its ``test`` size on 4 GPUs under four
configurations, and the SHA-256 of the ``repr`` of
:func:`tests.test_launch_graph.observables` -- arrays, every launch
record and ``Transfer`` with floats as hex, the breakdown, loop stats,
the ledger -- must equal the digest pinned here, which was taken before
the synchronous, overlap and replayed launches became one body in
``AccExecutor.run_loop``.  The same digests must come out with the
executor's per-plan memo stubbed off, so that every launch rebuilds its
contexts and prices its launches afresh.  ``PYTHONPATH=src:. python
tests/test_launch_identity.py`` prints the table.
"""

import hashlib

import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster, hypothetical_node
from repro.runtime.context import AccExecutor, PlanMemo

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
        '744d05f60cea8944ac74470f561656af9f2e435f19caceb9c1e9996df09d12cd',
    ('default', 'gradpipe'):
        '77348b675344d1e623dd5bfa6a33599034a212b7dc3be9e3d3a8aa3aee6b88c9',
    ('default', 'heat2d'):
        '9bf9d17b86547a0579fc28f641a957f4b015cf18a24fea07589ec7b400dc3645',
    ('default', 'jacobi'):
        '650ec4269537f07ba6741cf6dac92b85637a8ac6bbf6d2240612f5fbdd210026',
    ('default', 'kmeans'):
        '881ee3e56933019258e64597f9646656df34cc9c236117463b7fb675cad24fe7',
    ('default', 'md'):
        'a8c9da794f91f6fc80f8a53adfff5340a7e5dcea8c75f69b28d3cccc5ba2f3fb',
    ('default', 'phasepipe'):
        '26bc5e6124d0105be317736185bd0dcd71f2fb28861fb3bf816da96cc98ec843',
    ('default', 'shift_scale'):
        '7ba773d80bcbbc99d6d8576947ac94454630c3a5006bc6b2695e985c8359a6cf',
    ('default', 'spmv'):
        '821c07f3e243e4d4ce7bfbe3bf0baef6585f9a41b5ac1d34e35d9b7a93bccd97',
    ('default', 'stencil'):
        '2ba03c25765172eddd1028a04f99036eb3f3c9afa654237ce7b500aeb2d9cc38',
    ('overlap_coalesce', 'bfs'):
        '58272b2cd6e2330e1216de181ba68538c904fc9b2f45d886814d212562b8ec9a',
    ('overlap_coalesce', 'gradpipe'):
        'ab314b5d7da58fa9cd3ef81c41e5afbfd031de4292930268490d9a6541e459fa',
    ('overlap_coalesce', 'heat2d'):
        'a5be26cdce0cd5a76df324a2cf75ca89c3b2101633af1703e1696c7f1e5bf104',
    ('overlap_coalesce', 'jacobi'):
        '6e8e3bc0aea141c681c97ae9261db4bf7e6ceed4a6dd1eeadc27b164322723cd',
    ('overlap_coalesce', 'kmeans'):
        '38348417c8d3fc27ff7467e789968a094b9adf85584ac7fb4c242ae7f7c2e24b',
    ('overlap_coalesce', 'md'):
        'e8a7b3361a680cb62f03a79c7896e0505740cfe893b6cb6e5fcfeb2d34942afa',
    ('overlap_coalesce', 'phasepipe'):
        'f252da05b16fe5e17fe09d8f890c1b56e2260ad39dc0b856e3923e12d1194816',
    ('overlap_coalesce', 'shift_scale'):
        'c72a397f2ab21a473af7f5a0764b25af6050d341b1638ef925103fc267c959eb',
    ('overlap_coalesce', 'spmv'):
        'a26cc988fccb0516f3b422b32dfda375f37dfe276cb75661ea6bd61ff8925a57',
    ('overlap_coalesce', 'stencil'):
        '131e7d7f835ced4f8989d0c57f391cadd1386af35e6c80ceacaa20555a16cd1b',
    ('adaptive', 'bfs'):
        '744d05f60cea8944ac74470f561656af9f2e435f19caceb9c1e9996df09d12cd',
    ('adaptive', 'gradpipe'):
        '77348b675344d1e623dd5bfa6a33599034a212b7dc3be9e3d3a8aa3aee6b88c9',
    ('adaptive', 'heat2d'):
        '9bf9d17b86547a0579fc28f641a957f4b015cf18a24fea07589ec7b400dc3645',
    ('adaptive', 'jacobi'):
        '650ec4269537f07ba6741cf6dac92b85637a8ac6bbf6d2240612f5fbdd210026',
    ('adaptive', 'kmeans'):
        '881ee3e56933019258e64597f9646656df34cc9c236117463b7fb675cad24fe7',
    ('adaptive', 'md'):
        'a8c9da794f91f6fc80f8a53adfff5340a7e5dcea8c75f69b28d3cccc5ba2f3fb',
    ('adaptive', 'phasepipe'):
        '26bc5e6124d0105be317736185bd0dcd71f2fb28861fb3bf816da96cc98ec843',
    ('adaptive', 'shift_scale'):
        '7ba773d80bcbbc99d6d8576947ac94454630c3a5006bc6b2695e985c8359a6cf',
    ('adaptive', 'spmv'):
        '821c07f3e243e4d4ce7bfbe3bf0baef6585f9a41b5ac1d34e35d9b7a93bccd97',
    ('adaptive', 'stencil'):
        '2ba03c25765172eddd1028a04f99036eb3f3c9afa654237ce7b500aeb2d9cc38',
    ('overlap_auto_2x2', 'bfs'):
        'ffd2bd6e2e4a314ed476ae1e0dd7fc8d61ed9b84961d42591dd279bc9698e995',
    ('overlap_auto_2x2', 'gradpipe'):
        '80f42929223c66fdd3a076c3a125bf1cf7ae112871702f895a5a8ac512f680bb',
    ('overlap_auto_2x2', 'heat2d'):
        '91543cea5d0d2bf7f41c226515b66c54d6befe798429402ff72186b8bf5eb143',
    ('overlap_auto_2x2', 'jacobi'):
        'e9d6073ddcb066b252c4ee090ee491187d47715758c34981fd73a978f1c74421',
    ('overlap_auto_2x2', 'kmeans'):
        'aff2714c011c5fd74e1404544321e8bf2dc696ed5af26faf4c701af4e118ceaf',
    ('overlap_auto_2x2', 'md'):
        '4823af74936b1f825d22161325f75186432210d3c593fa12fcfde67ed2270244',
    ('overlap_auto_2x2', 'phasepipe'):
        '9981e21ed3722152ce63161644cd499c35257d27f7eabf69952be08e3c322255',
    ('overlap_auto_2x2', 'shift_scale'):
        '4c78aa920ec610dd5088e63f5f902f848426ac83ab7486246c2589ec27be9ded',
    ('overlap_auto_2x2', 'spmv'):
        '2042d497e3ad3da4e2c84f1a8eb2b9fee553289cc478a3b422f8aaea3704ad40',
    ('overlap_auto_2x2', 'stencil'):
        '4566f0ae2e8218373836527b989710297de4d1f43a759137df03856e2548c6a5',
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
    monkeypatch.setattr(
        AccExecutor, "_memo",
        lambda self, plan: PlanMemo(plan, [None] * self.platform.ngpus))
    run, seen = observe(name, config)
    assert binds[0] == len(run.loop_stats)
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
