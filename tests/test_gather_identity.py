"""Frozen output digests of the gather kernels.

One sha256 per program whose kernels gather, scatter or stride --
``md``, ``kmeans``, ``bfs``, ``spmv``, ``heat2d``, ``shift_scale``,
``stencil_probes`` and the Fortran ``md`` -- on 1, 2 and 4 GPUs of a
four-GPU node, over the ``test`` workload: every array argument's
``tobytes()`` after the run, every launch's ``dyn_counts``,
``repr(run.elapsed)`` and the bus's bytes per kind.  The digests were
generated at ``701b56d``, when these kernels were the mask lowering's
(``ks.ld`` over ``np.clip``, ``ks.bcv`` locals, ``ks.merge``), with
:func:`run_digest` as it stands (``python tests/test_gather_identity.py``
prints the table).

A lowering that runs the same ufuncs on the same operands gives the same
bits, not merely the interpreter's to ``rtol``: a digest that moves
means a float result, a trip count, a modeled second or a transferred
byte did.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench import multinode
from repro.bench.machines import hypothetical_node
from tests.test_fortran_apps import MD_FORTRAN

NODE4 = hypothetical_node(4)
APPS = {**ALL_APPS, **EXTRA_APPS}


def case(name):
    """``(program, entry, fresh arguments)`` of one digest row."""
    if name == "stencil_probes":
        return (repro.compile(multinode.STENCIL_PROBES_SOURCE),
                multinode.ENTRY,
                multinode.probe_args(n=2048, nprobes=256, steps=3))
    if name == "md_fortran":
        return (repro.compile_fortran(MD_FORTRAN), "md",
                APPS["md"].args_for("test"))
    spec = APPS[name]
    return repro.compile(spec.source), spec.entry, spec.args_for("test")


GOLDEN = {
    ("bfs", 1):
        "1995555d67a1b016dc37a1fa3aa9270d48b407a5596669004662a728485ce154",
    ("bfs", 2):
        "a62cd893de95e638a96718b72f65863f6195664384f8950a2d98dc4149d55dd6",
    ("bfs", 4):
        "04c9059154df5e46699106018aedab935a0ee731bf809354f48d40b6138eaa76",
    ("heat2d", 1):
        "e131cd3e98b8d32b160c89dc8f020c4f58be59d6fb5f59cb1bbde705b0261c33",
    ("heat2d", 2):
        "6bbe2ffe43ed15a2aa75341a18d97e65eaafa97b6d5f5a0ea8254b34720b646d",
    ("heat2d", 4):
        "cea71f05c747c13d7c6b876d029262e3384f8b7a9d8ac33007dcc683c3a9e475",
    ("kmeans", 1):
        "b2f253d88f00276acd5ab2525e608b6552bd0ec95ab9cb4a92474be8d71164bf",
    ("kmeans", 2):
        "e5d1984c8734a6c1452239ae641908c4189f1054a8eabf3f736b2171821557d2",
    ("kmeans", 4):
        "ecade93a62ec3b368d9939e4118b8559e16c462ddf3f5cae1c64350ae5d8df43",
    ("md", 1):
        "d6cf72d8e3dc4f93200a154d27c35719cfd91b37daa237326c90cbfccc6c6cf7",
    ("md", 2):
        "2839fe8f47e0869152e40ba0ce53f7735ca13768ffee519768d7cb5f13097cb7",
    ("md", 4):
        "4f233c92b1b3c92d5f03189e2f5aa2f44c9e97f347a7260fe209c99388a7114c",
    ("md_fortran", 1):
        "d6cf72d8e3dc4f93200a154d27c35719cfd91b37daa237326c90cbfccc6c6cf7",
    ("md_fortran", 2):
        "2839fe8f47e0869152e40ba0ce53f7735ca13768ffee519768d7cb5f13097cb7",
    ("md_fortran", 4):
        "4f233c92b1b3c92d5f03189e2f5aa2f44c9e97f347a7260fe209c99388a7114c",
    ("shift_scale", 1):
        "49593dbe7406b14c2d0db1400e046c69c5c2a9698374644974b3110134cb10f5",
    ("shift_scale", 2):
        "59ae42f7b55a5e29ea625562fba96b4e27fa6ebeff252834a5f2e184403cb5e7",
    ("shift_scale", 4):
        "4cd2b51531d01470926ad06805bce01461c652782b50758adb1b5671fc1fa005",
    ("spmv", 1):
        "5043fc12cf163298026b9abb2fdf2f3dcb9193a94b2a14108c06ead66a91a8ef",
    ("spmv", 2):
        "7a1ea743bb75ff658c2fa047d3ea0b9adea5ce8aa5de8e6d01e8b06352cea0c5",
    ("spmv", 4):
        "9b94e102e2af7d6e332323e24bf303653ff9ebdc16a3dd7394059faa868c41ee",
    ("stencil_probes", 1):
        "a1e24b08795280f326fd89f906587725841ba5eb389c9bcd13ff8e3329a960ae",
    ("stencil_probes", 2):
        "afd29f39fafe880f6a9986a4edd3ae81d7271bbdf0269f3beef731f5edbe3f1a",
    ("stencil_probes", 4):
        "38b72fe18f4ea6f0cf3ffa2012346da115ea33632ccdbbd55540c1cd9990b460",
}

NAMES = ["bfs", "heat2d", "kmeans", "md", "md_fortran", "shift_scale",
         "spmv", "stencil_probes"]
NGPUS = [1, 2, 4]


def run_digest(name: str, ngpus: int) -> str:
    return digest_of(*case(name), ngpus)


def digest_of(prog, entry: str, args: dict, ngpus: int) -> str:
    run = prog.run(entry, args, machine=NODE4, ngpus=ngpus)
    h = hashlib.sha256()
    for key in sorted(args):
        if isinstance(args[key], np.ndarray):
            arr = np.ascontiguousarray(args[key])
            h.update(f"{key} {arr.dtype} {arr.shape}\n".encode())
            h.update(arr.tobytes())
    for stats in run.loop_stats:
        h.update(repr([sorted(c.items()) for c in stats.dyn_counts]).encode())
    h.update(repr(run.elapsed).encode())
    bus = run.platform.bus
    h.update(repr([bus.bytes_moved(kind)
                   for kind in ("h2d", "d2h", "p2p", "net")]).encode())
    h.update(repr(bus.bytes_moved()).encode())
    return h.hexdigest()


def test_golden_lists_every_case():
    assert sorted(GOLDEN) == [(n, g) for n in NAMES for g in NGPUS]


@pytest.mark.parametrize("ngpus", NGPUS)
@pytest.mark.parametrize("name", NAMES)
def test_output_digest_matches_golden(name, ngpus):
    assert run_digest(name, ngpus) == GOLDEN[name, ngpus]


if __name__ == "__main__":
    for name in NAMES:
        for ngpus in NGPUS:
            print(f'    ("{name}", {ngpus}):\n'
                  f'        "{run_digest(name, ngpus)}",')
