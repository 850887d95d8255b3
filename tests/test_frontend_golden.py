"""Frozen front-end digests and the scanner's count gate.

One sha256 per bundled source pins everything the front end hands on:
the token stream, ``repr`` of the parsed tree, and every generated
kernel and host source under ``CompileOptions()`` and
``CompileOptions(fuse=True)``.  The digests were generated at
``59bfbe5``, before the character-at-a-time lexer was replaced by the
table-driven scanner, with :func:`source_digest` as it stands (the
Fortran tokenizer was then ``fortran._tokenize_expr``).  A digest that
moves means the rewrite changed what the translator sees.

Eight of them -- ``bfs``, ``heat2d``, ``kmeans``, ``md``, ``md_fortran``,
``shift_scale``, ``spmv``, ``stencil_probes`` -- were regenerated when
the plain-axis lowering took over the kernels that gather, scatter or
stride (PR 22): their tokens and trees did not move, their kernel text
did (docs/PERFORMANCE.md, "Gather kernels", shows it;
``tests/test_gather_identity.py`` pins that their *outputs* did not).
Six of those -- ``bfs``, ``spmv`` (the CSR axis) and ``heat2d``,
``kmeans``, ``md``, ``md_fortran`` (a constant-trip loop's trip count)
-- were regenerated once more when the mask lowering was retired
(docs/PERFORMANCE.md, "One lowering for every axis").  ``shift_scale``
was regenerated once more when integer ``%`` became C's truncating
remainder: ``_gi2 = ((_i + v_shift) % v_n)`` became ``_gi2 =
np.fmod((_i + v_shift), v_n)`` and nothing else moved (its operands are
non-negative, so ``tests/test_gather_identity.py`` pins the same
output).  Five -- ``heat2d``, ``kmeans``, ``md``, ``md_fortran`` (a
constant-trip loop now runs as blocks of trips, or at least binds its
bounds inline) and ``bfs`` (no position vector its CSR body never
reads) -- were regenerated once more with the trip-axis lowering
(docs/PERFORMANCE.md, "Trip-axis lowering"), and ``md_fortran`` again
when a loop whose every statement is carried went through the same
block emitter (its ``neigh`` load became one block view per block, of
which each trip reads a row).  ``stencil_probes`` was regenerated
once more when C's ``fmax`` / ``fmin`` began to treat a NaN as missing
data: its probe kernel's ``np.maximum(_q2, _q4, out=_q5)`` became
``np.fmax(_q2, _q4, out=_q5)``, plain and fused, and nothing else moved
(its inputs hold no NaN, so ``tests/test_transport_identity.py`` and
``BENCH_multinode.json`` pin the same run).

Eleven were regenerated when every expression got its C type
(``repro.frontend.typer``) and the emitters began to follow it: a
``float`` kernel scalar is bound as ``np.float32(ctx.scalars[...])``
and a ``double`` one as ``np.float64(...)`` where ``float(...)`` or
nothing bound them (``daxpy_fortran``, ``heat2d``, ``md``,
``md_fortran``, ``saxpy_fortran``, ``shift_scale``, ``stencil``,
``stencil_probes``); ``spmv``'s unmasked CSR flattening indexes its row
bounds directly and takes its position vector from ``ctx.iota()``
instead of an ``np.arange`` of active lanes; and the host text converts
where C converts: ``jacobi``'s ``err = 0.0f`` stores
``np.float32(0.0)``, ``kmeans`` divides by ``np.float32(counts[c])``,
``md_fortran``'s undeclared-value ``real`` locals start as
``np.float32(0)``.  Only ``stencil``'s outputs moved (its ``a`` now
equals gcc's, ``tests/test_c_oracle.py``).  ``bfs`` did not move, and
``gradpipe`` and ``phasepipe`` are the ``59bfbe5`` digests still.
``md_fortran`` moved once more when the Fortran scanner began to keep a
real literal's kind (``0.0`` scans as ``0.0f``): only its token rows
moved; with the ``f`` taken off them it hashes to the digest before.
``shift_scale`` was regenerated once more when every kernel
expression went through one lowering (``Vectorizer.bx``): its index
``(i + shift) % n`` is evaluated ahead of the stored value and bound as
``_u1 = np.fmod((_i + v_shift), v_n)`` where ``_gi2`` held the same
text after it, and nothing else moved.

One thing it changed on purpose is visible in a bundled source: a
continued ``#pragma`` now carries the line of its ``#``, not of its last
physical line, and ``spmv``'s ``localaccess`` runs over three lines.
:func:`source_digest` therefore puts such a pragma (token and parsed
directive) back on its last line before hashing, and
``test_spmv_holds_the_one_continued_pragma`` pins where it is now.

The count gate bounds the scanner's work for one ``parse`` in counts,
never seconds (docs/PERFORMANCE.md, "The perf gate").
"""

import dataclasses
import hashlib
import re

import pytest

from repro import CompileOptions
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench.multinode import STENCIL_PROBES_SOURCE
from repro.frontend import cast, directives, fortran, lexer, parser
from repro.frontend.lexer import FORTRAN_TABLE, PRAGMA, tokenize
from repro.translator.compiler import compile_program
from tests.test_fortran import SAXPY_F
from tests.test_fortran_apps import MD_FORTRAN
from tests.test_host_codegen import FORTRAN_DAXPY

C_SOURCES = {name: spec.source
             for name, spec in {**ALL_APPS, **EXTRA_APPS}.items()}
C_SOURCES["stencil_probes"] = STENCIL_PROBES_SOURCE
FORTRAN_SOURCES = {"md_fortran": MD_FORTRAN, "daxpy_fortran": FORTRAN_DAXPY,
                   "saxpy_fortran": SAXPY_F}

GOLDEN = {
    "bfs":
        "b3e2e74b5a988704123eec746136fc9d1c1437ccd22c86ffd6056ee3f58399c8",
    "daxpy_fortran":
        "b0bd0c8700fa2c1f6c14085b808d1de0f85b60704b453168b6dc58fd16394072",
    "gradpipe":
        "1843807097bd0886c8d0cc743916f4b038c4450e9062661367b7a54f7187a3d0",
    "heat2d":
        "1b6d7f3235b35faebf55721bc6a75e7dee4b4e0447b85376163d43b8168dcdee",
    "jacobi":
        "87def59dbe15d08d735f958af599fbb152b887258b98f7fb5115aa67e0bdf529",
    "kmeans":
        "3f5eeea805df676ffccaefc247d583c5c8a3d4455d82c0abd13041b389c9def5",
    "md":
        "cb5d5f0e297b940f666310c290e5034da814fcb9c19120992110e3f56b3fdf53",
    "md_fortran":
        "a44ae81499f1b90aa5886347b97f7c21b88113de230bf8554e27fd37792ef841",
    "phasepipe":
        "1ae9791ed5f7bbf84ebd80789d6ef88aa97fbad0dc3941b5093de5ae60097c41",
    "saxpy_fortran":
        "61dcb1f801f393c949ea4d584c9ce4d26b6eb577f3d6dd84f78de14b6653877c",
    "shift_scale":
        "da3c5304ca6f0be04596bea14d0b0cd05150b0f73d97959b42343d985326dcd0",
    "spmv":
        "005ffb3e96b3842228fee70c0b2598f2ca95543e2fd46a6177183db6cf556e25",
    "stencil":
        "44ca22b1c92dd0933b35d19a578ab23c838413045d51a29f73723e20644743d8",
    "stencil_probes":
        "84df88a56052093c9293d6e95365bb1b7cf04899e5913050886ca4350ca4541c",
}


def token_rows(tokens):
    return [(t.kind, t.value, t.line, t.col) for t in tokens]


def continued_pragmas(source: str) -> dict[int, int]:
    """Line of the ``#`` -> last physical line, per continued pragma."""
    lines = source.split("\n")
    moved = {}
    for tok in tokenize(source):
        last = tok.line
        while tok.kind == PRAGMA and lines[last - 1].rstrip().endswith("\\"):
            last += 1
        if last != tok.line:
            moved[tok.line] = last
    return moved


def relabel(node, moved: dict[int, int]) -> None:
    """Rewrite ``line`` on a directive and every node of its clauses."""
    if isinstance(node, (list, tuple)):
        for item in node:
            relabel(item, moved)
    elif isinstance(node, dict):
        relabel(list(node.values()), moved)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            if f.name == "line":
                node.line = moved.get(node.line, node.line)
            else:
                relabel(getattr(node, f.name), moved)


def source_digest(name: str) -> str:
    h = hashlib.sha256()
    if name in C_SOURCES:
        source, parse = C_SOURCES[name], parser.parse
        moved = continued_pragmas(source)
        rows = [(kind, value, moved.get(line, line) if kind == PRAGMA
                 else line, col)
                for kind, value, line, col in token_rows(tokenize(source))]
        tree = parse(source)
        for func in tree.functions:
            for stmt in cast.walk(func.body):
                relabel(stmt.directives, moved)
    else:
        source, parse = FORTRAN_SOURCES[name], fortran.parse_fortran
        tree = parse(source)
        # The Fortran table scans statement text, never a whole file:
        # pin it on every statement line of the source.  ``col`` stays
        # out: nothing reads it (a FortranError carries a line only) and
        # at 59bfbe5 it pointed at the blanks before the token
        # (tests/test_lexer_oracle.py pins the relation).
        rows = [[row[:3] for row in
                 token_rows(tokenize(ln.text, ln.number, FORTRAN_TABLE))]
                for ln in fortran._scan_lines(source)
                if not ln.text.startswith("!$acc")]
    h.update(repr(rows).encode())
    h.update(repr(tree).encode())
    for options in (CompileOptions(), CompileOptions(fuse=True)):
        compiled = compile_program(parse(source), options)
        for plan in compiled.plans:
            h.update(f"{plan.name}\n{plan.source}\n".encode())
        h.update(compiled.host_source.encode())
    return h.hexdigest()


def test_golden_lists_every_bundled_source():
    assert sorted(GOLDEN) == sorted({**C_SOURCES, **FORTRAN_SOURCES})


@pytest.mark.parametrize("name", sorted({**C_SOURCES, **FORTRAN_SOURCES}))
def test_front_end_digest_matches_golden(name):
    assert source_digest(name) == GOLDEN[name]


def test_spmv_holds_the_one_continued_pragma():
    assert {name: continued_pragmas(source)
            for name, source in C_SOURCES.items()
            if continued_pragmas(source)} == {"spmv": {7: 9}}
    pragma = [t for t in tokenize(C_SOURCES["spmv"]) if t.kind == PRAGMA][2]
    assert (pragma.line, pragma.col) == (7, 7)
    assert C_SOURCES["spmv"].split("\n")[6][6:].startswith("#pragma acc loc")


def test_scanner_work_for_one_parse_of_md(monkeypatch):
    """The count gate: every token is built once, every text is scanned
    once, and the master regex steps once per token or layout run."""
    source = C_SOURCES["md"]
    pragma_lines = sum(t.kind == PRAGMA for t in tokenize(source))
    # Blanks ride on the next token's step; a newline and a comment take
    # one each (a pragma line's is its PRAGMA token's).
    layout = len(re.findall(r"\n|//[^\n]*|/\*[\s\S]*?\*/", source))
    layout_runs = len(re.findall(r"(?:\s|//[^\n]*|/\*[\s\S]*?\*/)+", source))
    built, returned, steps = [], [], []

    class CountedToken(lexer.Token):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    def counted_tokenize(*args):
        tokens = tokenize(*args)
        returned.append(len(tokens))
        return tokens

    def counted_match(text, pos, match=lexer.C_TABLE.match):
        steps.append(pos)
        return match(text, pos)

    monkeypatch.setattr(lexer, "Token", CountedToken)
    monkeypatch.setattr(parser, "tokenize", counted_tokenize)
    monkeypatch.setattr(directives, "tokenize", counted_tokenize)
    monkeypatch.setattr(lexer.C_TABLE, "match", counted_match)
    parser.parse(source)

    assert pragma_lines > 0 and len(returned) == 1 + pragma_lines
    assert len(built) == sum(returned)  # C plus pragma text, none twice
    # Each call's EOF token stands for its one step that matched nothing.
    # The second bound is the issue's (a step per run of blanks too).
    assert len(steps) <= sum(returned) + layout
    assert layout < layout_runs


#: The tree walkers of ``repro.frontend.cast``.
WALKERS = ("walk", "walk_expr", "child_exprs", "stmt_exprs", "all_exprs")


def walker_calls(monkeypatch, parse, source) -> int:
    """Calls of the :data:`WALKERS` while ``parse(source)`` runs."""
    calls = []
    for name in WALKERS:
        def spy(*args, _walker=getattr(cast, name)):
            calls.append(args)
            return _walker(*args)
        monkeypatch.setattr(cast, name, spy)
    parse(source)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("name", sorted(C_SOURCES))
def test_parse_walks_no_tree(name, monkeypatch):
    """The walk gate: every node is typed as the parser builds it, so a
    C parse walks no tree.  The pass over the finished tree that typed
    it before made 488 walker calls over the 11 sources (``md`` 50,
    ``kmeans`` 86, ``bfs`` 49, ``stencil`` 43, ``shift_scale`` 12,
    ``heat2d`` 57, ``spmv`` 27, ``jacobi`` 52, ``gradpipe`` 33,
    ``phasepipe`` 31, ``stencil_probes`` 48)."""
    assert walker_calls(monkeypatch, parser.parse, C_SOURCES[name]) == 0


@pytest.mark.parametrize("name", sorted(FORTRAN_SOURCES))
def test_fortran_parse_walks_only_to_rebase_windows(name, monkeypatch):
    """``parse_fortran`` walks each subroutine twice to re-base its
    ``localaccess`` windows and bind the loop variable (a ``walk_expr``
    per bound of each window spec): 6 calls for each bundled source.
    With the typing pass it made 88 (``md_fortran``), 20 and 20; the
    pass's share was 82, 14 and 14."""
    assert walker_calls(monkeypatch, fortran.parse_fortran,
                        FORTRAN_SOURCES[name]) == 6
