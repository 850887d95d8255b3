"""The OpenACC run against gcc's sequential C program.

Every bundled C app and every divergence probe of
:mod:`tests.c_oracle` runs at its ``tiny`` size under both option sets
(``CompileOptions()`` and ``fuse=True``) on 1, 2 and 4 GPUs of one node
and on a 2x2 cluster.  Each array a clause writes back must hold gcc's
bytes, as pinned in ``tests/c_oracle_digests.json``.

The rows of a float parameter (stencil's ``a`` too), a double literal,
an int operand, and the integer probes -- ``%``, ``?:`` and ``!`` /
``&&`` over a ``long`` product, an ``unsigned`` product -- pass: every
expression carries its C type (:mod:`repro.frontend.typer`), every
kernel operator converts its operands by one rule
(``Vectorizer._operands``) and the host program converts as C does.  A known divergence is a strict xfail that names its class:

* ``libm``: NumPy's float32 ``exp`` is not glibc's ``expf`` (one ulp
  apart on some inputs);
* ``kmeans split``: on more than one GPU, kmeans adds its float32
  partial sums in another order than the sequential loop (ROADMAP
  item 13).
"""

import functools

import numpy as np
import pytest

import repro
from repro import CompileOptions
from repro.bench.machines import hypothetical_cluster, hypothetical_node

from tests.c_oracle import cases, compared_arrays, digest, load_digests

CASES = cases()
GOLDEN = load_digests()
OPTIONS = {"plain": CompileOptions(), "fused": CompileOptions(fuse=True)}
#: name -> (machine factory, GPUs).
MACHINES = {"1gpu": (lambda: hypothetical_node(4), 1),
            "2gpu": (lambda: hypothetical_node(4), 2),
            "4gpu": (lambda: hypothetical_node(4), 4),
            "2x2": (lambda: hypothetical_cluster(2, 2), 4)}

#: (case, array) -> divergence class, on every machine.
KNOWN = {("probe_libm", "k"): "libm"}
#: (case, array) rows that diverge on more than one GPU only.
SPLIT = {("kmeans", "clusters"): "kmeans split",
         ("kmeans", "new_centers"): "kmeans split"}


@functools.lru_cache(maxsize=None)
def simulated(case: str, options: str, machine: str) -> dict[str, bytes]:
    spec = CASES[case]
    args = spec.make_args()
    factory, ngpus = MACHINES[machine]
    prog = repro.compile(spec.source, OPTIONS[options])
    prog.run(spec.entry, args, machine=factory(), ngpus=ngpus)
    return {name: np.ascontiguousarray(args[name]).tobytes()
            for name in compared_arrays(spec)}


def _rows():
    for case in CASES:
        for array in compared_arrays(CASES[case]):
            for options in OPTIONS:
                for machine in MACHINES:
                    cls = KNOWN.get((case, array))
                    if cls is None and machine != "1gpu":
                        cls = SPLIT.get((case, array))
                    marks = () if cls is None else pytest.mark.xfail(
                        strict=True, reason=f"divergence class: {cls}")
                    yield pytest.param(
                        case, array, options, machine, marks=marks,
                        id=f"{case}-{array}-{options}-{machine}")


def test_digests_cover_every_case():
    assert {case: sorted(GOLDEN[case]) for case in GOLDEN} == {
        case: sorted(compared_arrays(spec)) for case, spec in CASES.items()}


@pytest.mark.parametrize("case,array,options,machine", list(_rows()))
def test_run_matches_gcc(case, array, options, machine):
    got = simulated(case, options, machine)[array]
    assert digest(got) == GOLDEN[case][array]
