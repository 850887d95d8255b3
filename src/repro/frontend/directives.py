"""OpenACC directive parsing, including the paper's two extensions.

Standard directives supported (the subset the paper's apps use):

* ``#pragma acc data copy(a[0:n]) copyin(...) copyout(...) create(...)``
* ``#pragma acc parallel [loop] [clauses]`` / ``#pragma acc kernels``
* ``#pragma acc loop [gang] [worker] [vector] [independent]
  [reduction(op:var)] [private(x,...)]``
* ``#pragma acc update host(...) device(...)``
* ``#pragma acc cache(...)`` (accepted; advisory on this platform)

Extensions from section III-C of the paper:

* ``#pragma acc localaccess a[stride(s, left, right)] b[range(lo, hi)]
  c[all]`` -- declares the consecutive index window each iteration
  ``i`` may *read*: ``s*i - left .. s*(i+1) - 1 + right`` for
  ``stride``; a fixed window for ``range``; the whole array for
  ``all`` (which still permits distribution-free placement decisions).
  Bare ``a[i]``-style identity access may be written ``a[stride(1)]``.
* ``#pragma acc reductiontoarray(op: dest[lo:len])`` -- placed
  immediately before a single statement of the form
  ``dest[idx] op= value``, marking it as a reduction whose destination
  index is dynamically computed.

Clause sub-expressions (bounds, strides) are parsed with the same C
expression parser as the program text, so host variables are allowed
anywhere a constant is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cast as C
from .lexer import EOF, ID, PUNCT, tokenize
from .parser import Parser

#: Reduction operators accepted by ``reduction`` / ``reductiontoarray``.
REDUCTION_OPS = {"+", "*", "max", "min", "&", "|", "^", "&&", "||"}


class DirectiveError(SyntaxError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"directive error at line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Clause payloads
# ---------------------------------------------------------------------------


@dataclass
class ArraySection:
    """OpenACC array section ``name[start:length]`` (whole array if bare)."""

    name: str
    start: C.Expr | None = None
    length: C.Expr | None = None


@dataclass
class DataClause:
    """One data-movement clause: kind in copy/copyin/copyout/create/present."""

    kind: str
    sections: list[ArraySection] = field(default_factory=list)


@dataclass
class ReductionClause:
    op: str
    variables: list[str] = field(default_factory=list)


@dataclass
class LocalAccessSpec:
    """Per-array read-window declaration of the ``localaccess`` directive.

    ``kind``:
      * ``"stride"`` -- iteration ``i`` reads ``stride*i - left`` ..
        ``stride*(i+1) - 1 + right`` (the paper's stride clause),
      * ``"range"`` -- every iteration reads the fixed window
        ``[lo, hi)``,
      * ``"bounds"`` -- iteration ``i`` reads the inclusive window
        ``[lo(i), hi(i)]`` where the bound expressions may reference the
        loop variable and host-resident arrays (the paper's general
        lower/upper-bound pair form),
      * ``"all"`` -- every iteration may read the whole array.
    """

    kind: str
    stride: C.Expr | None = None
    left: C.Expr | None = None
    right: C.Expr | None = None
    lo: C.Expr | None = None
    hi: C.Expr | None = None


# ---------------------------------------------------------------------------
# Directive nodes
# ---------------------------------------------------------------------------


@dataclass
class Directive:
    line: int = 0


@dataclass
class AccData(Directive):
    clauses: list[DataClause] = field(default_factory=list)


@dataclass
class AccParallel(Directive):
    """``parallel`` or ``kernels`` construct (+ optional fused ``loop``)."""

    construct: str = "parallel"  # or "kernels"
    clauses: list[DataClause] = field(default_factory=list)
    fused_loop: "AccLoop | None" = None
    num_gangs: C.Expr | None = None
    vector_length: C.Expr | None = None
    is_async: bool = False


@dataclass
class AccLoop(Directive):
    gang: bool = False
    worker: bool = False
    vector: bool = False
    independent: bool = False
    seq: bool = False
    reductions: list[ReductionClause] = field(default_factory=list)
    private: list[str] = field(default_factory=list)


@dataclass
class AccUpdate(Directive):
    host: list[ArraySection] = field(default_factory=list)
    device: list[ArraySection] = field(default_factory=list)


@dataclass
class AccCache(Directive):
    sections: list[ArraySection] = field(default_factory=list)


@dataclass
class AccLocalAccess(Directive):
    """The paper's first extension: per-iteration read windows."""

    entries: dict[str, LocalAccessSpec] = field(default_factory=dict)


@dataclass
class AccReductionToArray(Directive):
    """The paper's second extension: reduction into an array element."""

    op: str = "+"
    array: str = ""
    start: C.Expr | None = None
    length: C.Expr | None = None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _ClauseParser(Parser):
    """Parser over one pragma line, scanned at its source line, with
    section helpers."""

    def __init__(self, text: str, line: int, scope: Parser | None) -> None:
        super().__init__(tokenize(text, line), scope)
        self.line = line

    def err(self, msg: str) -> DirectiveError:
        return DirectiveError(msg, self.line)

    def parse_section(self) -> ArraySection:
        name = self.expect(ID).value
        start = length = None
        if self.accept(PUNCT, "["):
            start = self.parse_expression()
            self.expect(PUNCT, ":")
            length = self.parse_expression()
            self.expect(PUNCT, "]")
        return ArraySection(name=name, start=start, length=length)

    def parse_section_list(self) -> list[ArraySection]:
        self.expect(PUNCT, "(")
        out = [self.parse_section()]
        while self.accept(PUNCT, ","):
            out.append(self.parse_section())
        self.expect(PUNCT, ")")
        return out

    def parse_name_list(self) -> list[str]:
        self.expect(PUNCT, "(")
        names = [self.expect(ID).value]
        while self.accept(PUNCT, ","):
            names.append(self.expect(ID).value)
        self.expect(PUNCT, ")")
        return names

    def parse_reduction_clause(self) -> ReductionClause:
        self.expect(PUNCT, "(")
        op = self._parse_reduction_op()
        self.expect(PUNCT, ":")
        variables = [self.expect(ID).value]
        while self.accept(PUNCT, ","):
            variables.append(self.expect(ID).value)
        self.expect(PUNCT, ")")
        return ReductionClause(op=op, variables=variables)

    def _parse_reduction_op(self) -> str:
        t = self.advance()
        op = t.value
        # '&&' / '||' lex as single tokens already; 'max'/'min' are IDs.
        if op not in REDUCTION_OPS:
            raise self.err(f"unsupported reduction operator {op!r}")
        return op


_DATA_CLAUSE_KINDS = ("copyin", "copyout", "copy", "create", "present",
                      "pcopyin", "pcopyout", "pcopy", "pcreate")


def _parse_data_clauses(p: _ClauseParser, target: list[DataClause],
                        parallel: AccParallel | None = None,
                        loop: AccLoop | None = None) -> None:
    """Parse trailing clauses shared by data/parallel/kernels constructs."""
    while not p.at(EOF):
        word = p.expect(ID).value
        if word in _DATA_CLAUSE_KINDS:
            # pcopy/pcopyin/... are the "present_or_" aliases of OpenACC 1.0.
            kind = word[1:] if word.startswith("pc") else word
            target.append(DataClause(kind=kind, sections=p.parse_section_list()))
        elif parallel is not None and word == "num_gangs":
            p.expect(PUNCT, "(")
            parallel.num_gangs = p.parse_expression()
            p.expect(PUNCT, ")")
        elif parallel is not None and word == "vector_length":
            p.expect(PUNCT, "(")
            parallel.vector_length = p.parse_expression()
            p.expect(PUNCT, ")")
        elif parallel is not None and word == "async":
            parallel.is_async = True
        elif loop is not None and word in ("gang", "worker", "vector",
                                           "independent", "seq", "reduction",
                                           "private"):
            _apply_loop_clause(p, loop, word)
        else:
            raise p.err(f"unknown clause {word!r}")


def _apply_loop_clause(p: _ClauseParser, loop: AccLoop, word: str) -> None:
    if word == "gang":
        loop.gang = True
    elif word == "worker":
        loop.worker = True
    elif word == "vector":
        loop.vector = True
    elif word == "independent":
        loop.independent = True
    elif word == "seq":
        loop.seq = True
    elif word == "reduction":
        loop.reductions.append(p.parse_reduction_clause())
    elif word == "private":
        loop.private.extend(p.parse_name_list())


def _parse_localaccess(p: _ClauseParser, line: int) -> AccLocalAccess:
    d = AccLocalAccess(line=line)
    # Entries may be parenthesized as a list or given bare, separated by
    # whitespace/commas:  localaccess(a[...], b[...])  or  localaccess a[...]
    parenthesized = bool(p.accept(PUNCT, "("))
    if parenthesized and p.at(PUNCT, ")"):
        raise p.err("localaccess requires at least one array entry")
    while True:
        name = p.expect(ID).value
        p.expect(PUNCT, "[")
        spec = _parse_localaccess_spec(p)
        p.expect(PUNCT, "]")
        if name in d.entries:
            raise p.err(f"duplicate localaccess entry for {name!r}")
        d.entries[name] = spec
        if p.accept(PUNCT, ","):
            continue
        if parenthesized and p.at(PUNCT, ")"):
            p.advance()
            break
        if p.at(EOF):
            if parenthesized:
                raise p.err("unterminated localaccess clause list")
            break
        if not p.at(ID):
            raise p.err("expected array entry in localaccess")
    if not d.entries:
        raise p.err("localaccess requires at least one array entry")
    return d


def _parse_localaccess_spec(p: _ClauseParser) -> LocalAccessSpec:
    if p.at(ID, "all"):
        p.advance()
        return LocalAccessSpec(kind="all")
    if p.at(ID, "stride"):
        p.advance()
        p.expect(PUNCT, "(")
        args = [p.parse_expression()]
        while p.accept(PUNCT, ","):
            args.append(p.parse_expression())
        p.expect(PUNCT, ")")
        if len(args) > 3:
            raise p.err("stride() takes (stride[, left[, right]])")
        while len(args) < 3:
            args.append(C.IntLit(0, ty="int"))
        return LocalAccessSpec(kind="stride", stride=args[0],
                               left=args[1], right=args[2])
    if p.at(ID, "range"):
        p.advance()
        p.expect(PUNCT, "(")
        lo = p.parse_expression()
        p.expect(PUNCT, ",")
        hi = p.parse_expression()
        p.expect(PUNCT, ")")
        return LocalAccessSpec(kind="range", lo=lo, hi=hi)
    if p.at(ID, "bounds"):
        # General inclusive-bounds form of the paper: per-iteration window
        # [lb(i), ub(i)], monotone in i; the expressions may read
        # host-resident arrays (e.g. CSR row pointers).
        p.advance()
        p.expect(PUNCT, "(")
        lb = p.parse_expression()
        p.expect(PUNCT, ",")
        ub = p.parse_expression()
        p.expect(PUNCT, ")")
        return LocalAccessSpec(kind="bounds", lo=lb, hi=ub)
    raise p.err(
        "localaccess spec must be all, stride(...), range(...) or bounds(...)"
    )


def _parse_reductiontoarray(p: _ClauseParser, line: int) -> AccReductionToArray:
    p.expect(PUNCT, "(")
    op_tok = p.advance()
    op = op_tok.value
    if op not in REDUCTION_OPS:
        raise p.err(f"unsupported reduction operator {op!r}")
    p.expect(PUNCT, ":")
    section = p.parse_section()
    p.expect(PUNCT, ")")
    return AccReductionToArray(op=op, array=section.name,
                               start=section.start, length=section.length,
                               line=line)


def parse_pragma(text: str, line: int,
                 scope: Parser | None = None) -> Directive | None:
    """Parse the text after ``#pragma``, in ``scope`` (the program's
    parser, which types names); returns None for non-acc pragmas.

    Non-``acc`` pragmas (``omp``, ``once``, ...) are ignored so that the
    same source file can carry an OpenMP fallback annotation, as the
    paper's benchmark sources do.
    """
    p = _ClauseParser(text, line, scope)
    if not p.accept(ID, "acc"):
        return None
    head = p.expect(ID).value

    if head == "data":
        d = AccData(line=line)
        _parse_data_clauses(p, d.clauses)
        if not d.clauses:
            raise p.err("data construct requires at least one clause")
        return d

    if head in ("parallel", "kernels"):
        d = AccParallel(construct=head, line=line)
        if p.at(ID, "loop"):
            p.advance()
            d.fused_loop = AccLoop(line=line, gang=True)
            _parse_data_clauses(p, d.clauses, parallel=d, loop=d.fused_loop)
        else:
            _parse_data_clauses(p, d.clauses, parallel=d)
        return d

    if head == "loop":
        d = AccLoop(line=line)
        while not p.at(EOF):
            word = p.expect(ID).value
            if word not in ("gang", "worker", "vector", "independent", "seq",
                            "reduction", "private"):
                raise p.err(f"unknown loop clause {word!r}")
            _apply_loop_clause(p, d, word)
        return d

    if head == "update":
        d = AccUpdate(line=line)
        while not p.at(EOF):
            word = p.expect(ID).value
            if word in ("host", "self"):
                d.host.extend(p.parse_section_list())
            elif word == "device":
                d.device.extend(p.parse_section_list())
            else:
                raise p.err(f"unknown update clause {word!r}")
        if not d.host and not d.device:
            raise p.err("update requires host(...) or device(...)")
        return d

    if head == "cache":
        # Rewind one token: section list starts at '('.
        d = AccCache(line=line)
        d.sections = p.parse_section_list()
        return d

    if head == "localaccess":
        return _parse_localaccess(p, line)

    if head == "reductiontoarray":
        return _parse_reductiontoarray(p, line)

    if head in ("wait", "enter", "exit", "host_data", "declare", "routine"):
        raise DirectiveError(f"acc {head} is not supported by this subset", line)
    raise DirectiveError(f"unknown acc directive {head!r}", line)
