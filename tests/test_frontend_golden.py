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
The other six are the ``59bfbe5`` digests still.

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
        "c69d20297a386869fed2b48a54f11b8eb443faa5f6c694af40565aa7e6504a99",
    "daxpy_fortran":
        "d18e3928ff60bad55f21132f7acdbc56528f500c9365defdcb77cfdccc66265d",
    "gradpipe":
        "1843807097bd0886c8d0cc743916f4b038c4450e9062661367b7a54f7187a3d0",
    "heat2d":
        "62044bbf84d9487c288c955eaaa27f8a58f6976db005420876b8968eafafadd9",
    "jacobi":
        "8213c5eb0068a0e9087d9aa568ca13819a1c6b115cdcf77a82e5791f4cce9e7e",
    "kmeans":
        "1b2f105f59ca04fc3b446824ddbe9de0a9827b264d727f1c7f10699415ae5cc9",
    "md":
        "cf97c755efe6902ab40eee0cac77a07f711a7967da2801a05d38a86daa54c55d",
    "md_fortran":
        "eca7e91da6748630449c05376fc3f71091ad64c20f27d9dd4b07b30d9629c6dd",
    "phasepipe":
        "1ae9791ed5f7bbf84ebd80789d6ef88aa97fbad0dc3941b5093de5ae60097c41",
    "saxpy_fortran":
        "e1b54b809447a8008d8f99fcf9cb641f504478837d44af7d15a3a5df2e77ebaf",
    "shift_scale":
        "35f854003e3f9722970f3f1b3e82ad64ca6a5fd094f9943e5e80fafb52dd60b7",
    "spmv":
        "4f7b24319ea7136cc231d14094c9118ad2acb8f85a93684976fd8dbaa7e5fc7a",
    "stencil":
        "8bed7767bfba8fe9f338cae7ca12de1a5e4cc28eb0954a6ab5defcb67aaf0f92",
    "stencil_probes":
        "f83fbe97eac19158553e3237a9af66b392fe8f2d9fe4ac0a69ae5a8b44fabfc2",
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
