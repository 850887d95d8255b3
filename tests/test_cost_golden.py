"""Frozen kernel-cost digests and the lowering count gate.

One sha256 per bundled source pins what the runtime prices kernels
from: every plan's ``cost.buckets`` (member plans and fused plans, the
buckets in the order ``KernelCostInfo.total`` adds them, every field as
``float.hex``) under ``CompileOptions()`` and ``CompileOptions(fuse=True)``.
The digests were generated at ``f582925``, when the charges sat inside
the ``Vectorizer``'s emit methods and every body with a unit-stride
access was lowered a second time to collect them; they are now what
:func:`repro.translator.cost.price_body` charges from the C statements.
A digest that moves means modeled kernel seconds moved.

The count gate bounds the translator's work for the ``compile_cold``
sources in counts, never seconds (docs/PERFORMANCE.md, "The perf gate").
"""

import dataclasses
import hashlib

import pytest

from repro import CompileOptions
from repro.frontend import fortran, parser
from repro.translator import fusion, spanlower, vectorizer
from repro.translator.compiler import compile_program
from repro.vcuda.device import KernelWork
from tests.test_frontend_golden import C_SOURCES, FORTRAN_SOURCES

SOURCES = {**C_SOURCES, **FORTRAN_SOURCES}
OPTION_SETS = (CompileOptions(), CompileOptions(fuse=True))

GOLDEN = {
    "bfs":
        "8958ee1f0e52bc9318e1165afed649a0a55a71571b0a5e8446205f9b0286cde9",
    "daxpy_fortran":
        "3fe80bf5cac716183c838ddd26564e1b0ce0f8f526ef344d2f724ac301782263",
    "gradpipe":
        "44f84f24047dd7cb6bc3f872d6c757791caf961c5edb2d9ebb34f0af6f770cff",
    "heat2d":
        "e2edc84739b094d2491b321b396e09aef162664e0d5864fd64a2cd2dabbe7d3c",
    "jacobi":
        "95dc8ea97e814ad9945c8483a41c323b364255d3d455164728aaf2baff485072",
    "kmeans":
        "882e0509f56b519a95ab08f6eb52eba29b24256fba713b93d2fdb5c7189265ed",
    "md":
        "49da40051a53af8ac08c62f5d6a20cb7f9b39bd60554815a505d42d421e09c9b",
    "md_fortran":
        "3d16a86ef5be3223240d782d4388878266a9ec8a4fa4d2c43e2a1c6304281ed4",
    "phasepipe":
        "2c22c253849f1d840cf8e0bd75566052cc3b701bf6fb6d2ccab9e7b4bf91925f",
    "saxpy_fortran":
        "4d65cd71e9dc34f9da95e2f9d89a860777e59604b0d1cc7baf36a8821c909751",
    "shift_scale":
        "347e14c4d7e0889205b858a2947f2e8599412178b66e9b778464202fa1eb997e",
    "spmv":
        "b1e0eea4c3de4e2fb20ac32f99623784767a7ff2086eaca7699cd58ca12fc25d",
    "stencil":
        "abb5f4e241da960f4c950bb5ccaf172da210330e4c56c708cc0e6b3f09f6868d",
    "stencil_probes":
        "6d33c6570793e10de8e956393b9bcf2082744aeedf991897ebb0eb3b41500709",
}


def compile_bundled(name: str, options: CompileOptions):
    parse = parser.parse if name in C_SOURCES else fortran.parse_fortran
    return compile_program(parse(SOURCES[name]), options)


def all_plans(compiled):
    """Member plans, then the fused plans that replace runs of them."""
    return [*compiled.plans, *(g.fused for g in compiled.fusion_groups)]


def cost_digest(name: str) -> str:
    h = hashlib.sha256()
    fields = [f.name for f in dataclasses.fields(KernelWork)]
    for options in OPTION_SETS:
        for plan in all_plans(compile_bundled(name, options)):
            h.update(f"{plan.name}\n".encode())
            for label, work in plan.cost.buckets.items():
                row = [float(getattr(work, f)).hex() for f in fields]
                h.update(f"{label} {' '.join(row)}\n".encode())
    return h.hexdigest()


def test_golden_lists_every_bundled_source():
    assert sorted(GOLDEN) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_cost_digest_matches_golden(name):
    assert cost_digest(name) == GOLDEN[name]


def test_no_bundled_kernel_is_interpreter_only():
    """Every bundled plan is priced and vectorized -- a loop that is not
    fails to compile -- so none of the artifacts built from these sources
    can hold a zero-work kernel."""
    plans = [plan for name in sorted(SOURCES) for options in OPTION_SETS
             for plan in all_plans(compile_bundled(name, options))]
    assert len(plans) == 50
    assert all(plan.fn is not None
               and plan.cost.buckets != {"base": KernelWork()}
               for plan in plans)


def test_lowering_passes_for_the_compile_cold_sources(monkeypatch):
    """The count gate: one emitter per lowered body (at ``f582925``, 90
    emitters for these 48 bodies: 42 were lowered twice), all of one
    class -- the lowering has no subclass to hand an axis to."""
    emitters, bodies = [], []
    init, lower = vectorizer.Vectorizer.__init__, spanlower.lower_body

    def counted_init(self, *args, **kwargs):
        emitters.append(type(self).__name__)
        init(self, *args, **kwargs)

    def counted_lower(*args, **kwargs):
        bodies.append(args[0].nest.stmt.line)
        return lower(*args, **kwargs)

    monkeypatch.setattr(vectorizer.Vectorizer, "__init__", counted_init)
    monkeypatch.setattr(spanlower, "lower_body", counted_lower)
    monkeypatch.setattr(fusion, "lower_body", counted_lower)
    for name in sorted(C_SOURCES):
        for options in OPTION_SETS:
            compile_bundled(name, options)

    assert len(bodies) == 48
    assert len(emitters) == len(bodies)
    assert set(emitters) == {"Vectorizer"}
