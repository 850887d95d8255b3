"""Pairwise coverage of the run configuration space.

``tests/test_determinism_matrix.py`` hand-lists flag combinations on a
2-GPU desktop.  This suite derives its rows from the
:class:`~repro.runtime.config.RunConfig` schema instead: a greedy
pairwise covering array over every timing flag, the transport (one
5-level factor of the ``(internode, collective)`` pairs a config
accepts), ``fuse`` and two machines, so every two levels of every two
factors meet in at least one row.  Each row runs every bundled app
plain (no tracer, no sanitizer) and must be bit-identical to that
machine's plain run.
"""

import dataclasses
import re

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.machines import hypothetical_cluster
from repro.runtime.config import RunConfig
from repro.vcuda.specs import MACHINES

APPS = {**ALL_APPS, **EXTRA_APPS}

#: Name -> (spec, ngpus).
MACHINE_LEVELS = {"desktop": (MACHINES["desktop"], 2),
                  "cluster2x2": (hypothetical_cluster(2, 2), 4)}
TRANSPORT_LEVELS = [("naive", "none"), ("staged", "none"),
                    ("staged", "ring"), ("staged", "tree"),
                    ("staged", "auto")]
#: Plain runs: the tracer and the sanitizer are observers with their
#: own suites.
PLAIN = {"sanitize": False, "trace": False}

FACTORS = {
    "transport": TRANSPORT_LEVELS,
    "machine": list(MACHINE_LEVELS),
    "chunk_bytes": [RunConfig.chunk_bytes, 64],
    **{f.name: [False, True] for f in dataclasses.fields(RunConfig)
       if f.type == "bool"},
    "fuse": [False, True],
}


def pairwise(factors):
    """Rows (factor -> level) in which every two levels of every two
    factors meet at least once.  Greedy and deterministic: each row
    starts from the first uncovered pair and fills every other factor
    with the level covering the most pairs still uncovered (ties to the
    first level)."""
    levels = list(factors.values())
    todo = {(i, a, j, b)
            for i in range(len(levels)) for j in range(i + 1, len(levels))
            for a in range(len(levels[i])) for b in range(len(levels[j]))}
    rows = []
    while todo:
        i, a, j, b = min(todo)
        row = {i: a, j: b}

        def gain(k, c):
            return sum(((m, row[m], k, c) if m < k else (k, c, m, row[m]))
                       in todo for m in row)

        for k in range(len(levels)):
            if k not in row:
                row[k] = max(range(len(levels[k])), key=lambda c: gain(k, c))
        todo -= {(m, row[m], k, row[k]) for m in row for k in row if m < k}
        rows.append({name: levels[k][row[k]]
                     for k, name in enumerate(factors)})
    return rows


ROWS = pairwise(FACTORS)


def row_id(row):
    internode, collective = row["transport"]
    parts = [row["machine"], internode if collective == "none"
             else collective, f"chunk={row['chunk_bytes']}"]
    parts += [k for k, v in row.items() if v is True]
    return "+".join(parts)


def run_plain(app_name, machine, fuse=False, **flags):
    spec = APPS[app_name]
    options = repro.CompileOptions(fuse=True) if fuse else None
    args = spec.args_for("tiny")
    mspec, ngpus = MACHINE_LEVELS[machine]
    repro.compile(spec.source, options).run(
        spec.entry, args, machine=mspec, ngpus=ngpus,
        config=RunConfig(**flags, **PLAIN))
    return {k: v for k, v in args.items() if isinstance(v, np.ndarray)}


@pytest.fixture(scope="module")
def baselines():
    return {(name, m): run_plain(name, m)
            for name in APPS for m in MACHINE_LEVELS}


def test_rows_cover_every_pair():
    names = list(FACTORS)
    for x, first in enumerate(names):
        for second in names[x + 1:]:
            met = {(FACTORS[first].index(r[first]),
                    FACTORS[second].index(r[second])) for r in ROWS}
            assert len(met) == len(FACTORS[first]) * len(FACTORS[second]), \
                (first, second)
    # Greedy, not minimal: the two largest factors bound it from below.
    assert 10 <= len(ROWS) <= 14


def test_factors_are_the_config_schema():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert fields - set(FACTORS) == {"internode", "collective", *PLAIN}
    for internode, collective in TRANSPORT_LEVELS:
        RunConfig(internode=internode, collective=collective)
    assert sorted(RunConfig(internode=i, collective=c).transport
                  for i, c in TRANSPORT_LEVELS) == sorted(
        ["naive", "staged", "ring", "tree", "auto"])


def created(app_name):
    """The arrays of ``create`` clauses in an app's source."""
    return {name for clause in re.findall(r"\bcreate\(([^)]*)\)",
                                          APPS[app_name].source)
            for name in re.findall(r"(\w+)\[", clause)}


def known_defect(app_name, array, flags, ngpus):
    """Why ``app_name``'s ``array`` may differ under ``flags``: one of
    the two open defects this suite found (ROADMAP item 2), else
    ``None``."""
    if not flags["reload_skipping"] and array in created(app_name):
        return ("without reload skipping, a relayout gathers the device "
                "values of a create() array into its host image")
    if app_name == "kmeans" and not flags["tree_reduction"] and ngpus > 2:
        return ("the flat reduction merge adds float32 partials in another "
                "order than the tree merge")
    return None


@pytest.mark.parametrize("app_name", list(APPS))
@pytest.mark.parametrize("row", ROWS, ids=[row_id(r) for r in ROWS])
def test_pairwise_configs_never_change_results(row, app_name, baselines):
    flags = dict(row)
    machine, fuse = flags.pop("machine"), flags.pop("fuse")
    flags["internode"], flags["collective"] = flags.pop("transport")
    arrays = run_plain(app_name, machine, fuse=fuse, **flags)
    base = baselines[(app_name, machine)]
    defects = []
    for name, a in arrays.items():
        if np.array_equal(a, base[name]):
            continue
        reason = known_defect(app_name, name, flags,
                              MACHINE_LEVELS[machine][1])
        if reason is None:
            np.testing.assert_array_equal(
                a, base[name], err_msg=f"{app_name}.{name} perturbed by {row}")
        defects.append(f"{app_name}.{name}: {reason}")
    if defects:
        pytest.xfail("; ".join(defects))
