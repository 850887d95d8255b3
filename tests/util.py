"""Shared helper functions for the test suite."""

from __future__ import annotations

import numpy as np

import repro
from tests.interp_oracle import oracle


def run_source(src, args, ngpus=1, machine="desktop", entry=None,
               options=None, interp=False, **run_kw):
    """Compile + run, returning (mutated args, ProgramRun); ``interp``
    runs every kernel on the interpreter oracle."""
    prog = repro.compile(src, options)
    if entry is None:
        entry = prog.compiled.program.functions[0].name
    if interp:
        prog = oracle(prog)
    args = dict(args)
    run = prog.run(entry, args, machine=machine, ngpus=ngpus, **run_kw)
    return args, run


def compare_engines(src, make_args, ngpus_list=(1, 2), machine="desktop",
                    entry=None, outputs=None, rtol=1e-5, atol=1e-6):
    """Run the generated kernels vs the interpreter oracle; assert
    identical effects.

    ``make_args`` is a zero-argument callable producing a fresh argument
    dict (arrays are mutated in place).  ``outputs`` defaults to every
    array argument.
    """
    results = {}
    for engine in ("vector", "interp"):
        for ngpus in ngpus_list:
            args, _ = run_source(src, make_args(), ngpus=ngpus,
                                 machine=machine, entry=entry,
                                 interp=engine == "interp")
            results[(engine, ngpus)] = args
    base = results[("vector", ngpus_list[0])]
    names = outputs or [k for k, v in base.items()
                        if isinstance(v, np.ndarray)]
    for key, args in results.items():
        for name in names:
            np.testing.assert_allclose(
                args[name], base[name], rtol=rtol, atol=atol,
                err_msg=f"{name} differs for engine/ngpus={key}")
    return base


