"""Fortran frontend: a second source language over the same pipeline.

OpenACC is specified for C *and* Fortran; the paper's translator
consumes both.  This module parses a free-form Fortran subset --
``subroutine``/``function``, declarations with ``::``, assignments,
``do``/``end do``, ``do while``, ``if/then/else/end if``, ``exit``/
``cycle``, calls, and ``!$acc`` directive comments -- and lowers it to
the same C AST (:mod:`repro.frontend.cast`) the rest of the compiler
operates on, so every later stage (analysis, vectorizer, runtime) is
shared verbatim.

Lowering rules:

* Fortran arrays are 1-based: every subscript ``a(e)`` lowers to
  ``a[e - 1]`` (constant-folded where possible).
* ``do i = L, U`` lowers to the canonical ``for (i = L; i <= U; i++)``;
  the existing loop normalization turns the inclusive bound into the
  half-open form.
* ``localaccess`` window expressions are written against Fortran's
  1-based indices; they are lowered by the same ``e - 1`` subscript
  rule plus a whole-window shift of -1 (a window ``[lb, ub]`` over
  1-based element numbers is ``[lb-1, ub-1]`` over 0-based ones).
* Operators: ``**`` becomes a ``pow`` call; ``.and. .or. .not.`` and
  ``.eq. .ne. .lt. .le. .gt. .ge.`` map to their C forms; logical
  literals map to 1/0.
* Types: ``real`` -> float, ``double precision``/``real(8)`` -> double,
  ``integer`` -> int, ``logical`` -> int; a real literal is a ``double``
  with a ``d`` exponent or a double kind (``1.0d0``, ``1.0_8``,
  ``1.0_dp``), else a ``float``.

The result plugs into :func:`repro.translator.compiler.compile_source`
via ``repro.compile_fortran``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import cast as C
from .directives import (AccData, AccLocalAccess, AccParallel, Directive,
                         LocalAccessSpec, parse_pragma)
from .lexer import (
    EOF,
    FLOAT_LIT,
    FORTRAN_TABLE,
    ID,
    INT_LIT,
    PUNCT,
    LexError,
    tokenize,
)
from .parser import BINARY_PREC, Parser
from .typer import binary, call, element, int_type, literal_type, unary


class FortranError(SyntaxError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"fortran error at line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Line-level scanning
# ---------------------------------------------------------------------------


@dataclass
class _Line:
    text: str
    number: int


def _scan_lines(source: str) -> list[_Line]:
    """Strip comments, join continuations, keep !$acc directives."""
    out: list[_Line] = []
    pending = ""
    pending_no = 0
    for no, raw in enumerate(source.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        low = stripped.lower()
        if low.startswith("!$acc"):
            if pending:
                raise FortranError("directive inside a continued statement",
                                   no)
            out.append(_Line("!$acc " + stripped[5:].strip(), no))
            continue
        if stripped.startswith("!"):
            continue
        # Trailing comment (naive: ! not inside a string; the subset has
        # no meaningful string literals).
        bang = stripped.find("!")
        if bang >= 0:
            stripped = stripped[:bang].rstrip()
            if not stripped:
                continue
        if pending:
            stripped = pending + " " + stripped.lstrip("&").lstrip()
        if stripped.endswith("&"):
            pending = stripped[:-1].rstrip()
            pending_no = pending_no or no
            continue
        out.append(_Line(stripped, pending_no or no))
        pending = ""
        pending_no = 0
    if pending:
        raise FortranError("dangling continuation", pending_no)
    return out


# ---------------------------------------------------------------------------
# Expression parsing (Fortran surface -> C AST)
# ---------------------------------------------------------------------------

_INTRINSICS = {"sqrt", "abs", "exp", "log", "sin", "cos", "min", "max",
               "mod", "real", "int", "floor", "ceiling", "dble"}

#: Binds tighter than every entry of the shared precedence table.
_POWER = 1 + max(BINARY_PREC.values())


class _ExprParser(Parser):
    """Fortran operands under the C parser's precedence climb.

    The Fortran table has already respelled the operators as C's; what
    is left of the surface is ``**`` (right-associative, a ``pow``
    call) and ``name(args)``, where the unit's declared arrays
    distinguish ``a(i)`` subscripts (1-based, lowered to ``a[i-1]``)
    from function/intrinsic calls.
    """

    def __init__(self, text: str, unit: "FortranParser", line: int) -> None:
        try:
            tokens = tokenize(text, line, FORTRAN_TABLE)
        except LexError as exc:
            raise FortranError(f"cannot tokenize {text[exc.col - 1:]!r}",
                               line) from None
        super().__init__(tokens, unit)
        self.arrays = unit.arrays
        self.line = line

    def error(self, message: str) -> FortranError:
        return FortranError(f"{message} near {self.tok.value!r}", self.line)

    def parse(self) -> C.Expr:
        e = self.parse_binary(1)
        if not self.at(EOF):
            raise FortranError(
                f"trailing input {self.tok.value!r} in expression", self.line)
        return e

    def parse_unary(self) -> C.Expr:
        left = self._parse_operand()
        if self.accept(PUNCT, "**"):
            return self.call("pow", [left, self.parse_binary(_POWER)],
                             self.line)
        return left

    def _parse_operand(self) -> C.Expr:
        t = self.advance()
        if t.kind == PUNCT and t.value in ("-", "+", "!"):
            operand = self._parse_operand()
            return C.UnOp(t.value, operand, line=self.line,
                          ty=unary(t.value, operand.ty))
        if t.kind == INT_LIT:
            return _int(int(t.value), self.line)
        if t.kind == FLOAT_LIT:
            return C.FloatLit(float(t.value.rstrip("f")), self.line,
                              ty=literal_type(t.value))
        if t.kind == PUNCT and t.value == "(":
            e = self.parse_binary(1)
            self.expect(PUNCT, ")")
            return e
        if t.kind == ID:
            if not self.accept(PUNCT, "("):
                return C.Ident(t.value, self.line,
                               ty=self.names.get(t.value, "int"))
            args = []
            if not self.at(PUNCT, ")"):
                args.append(self.parse_binary(1))
                while self.accept(PUNCT, ","):
                    args.append(self.parse_binary(1))
            self.expect(PUNCT, ")")
            return self._call_or_subscript(t.value, args)
        raise FortranError(f"unexpected token {t.value!r}", self.line)

    def _call_or_subscript(self, name: str, args: list[C.Expr]) -> C.Expr:
        low = name.lower()
        if name in self.arrays:
            if len(args) != 1:
                raise FortranError(
                    f"array {name!r} must have exactly one subscript "
                    "(linearize multi-dimensional data)", self.line)
            array = self.names.get(name, "int")
            return C.Index(C.Ident(name, self.line, ty=array),
                           [_minus_one(args[0])], line=self.line,
                           ty=element(array))
        if low in _INTRINSICS:
            mapped = {"abs": "fabs", "mod": "%", "real": "(float)",
                      "dble": "(double)", "int": "(int)",
                      "ceiling": "ceil"}.get(low, low)
            if mapped == "%":
                if len(args) != 2:
                    raise FortranError("mod() takes two arguments", self.line)
                return _bin("%", args[0], args[1], self.line)
            if mapped in ("(float)", "(int)", "(double)"):
                base = mapped.strip("()")
                return C.CastExpr(C.CType(base), args[0], line=self.line,
                                  ty=base)
            return self.call(mapped, args, self.line)
        # Unknown callable: keep as a call (program-defined function).
        return self.call(name, args, self.line)


def _int(value: int, line: int = 0) -> C.IntLit:
    return C.IntLit(value, line, ty=int_type(value))


def _bin(op: str, left: C.Expr, right: C.Expr, line: int = 0) -> C.BinOp:
    return C.BinOp(op, left, right, line, ty=binary(op, left.ty, right.ty))


def _minus_one(e: C.Expr) -> C.Expr:
    """Lower a 1-based subscript to 0-based, folding constants."""
    if isinstance(e, C.IntLit):
        return _int(e.value - 1, e.line)
    if isinstance(e, C.BinOp) and e.op == "+" and isinstance(e.right, C.IntLit):
        if e.right.value == 1:
            return e.left
        return _bin("+", e.left, _int(e.right.value - 1), e.line)
    if isinstance(e, C.BinOp) and e.op == "-" and isinstance(e.right, C.IntLit):
        return _bin("-", e.left, _int(e.right.value + 1), e.line)
    return _bin("-", e, _int(1))


# ---------------------------------------------------------------------------
# Statement / unit parsing
# ---------------------------------------------------------------------------

_TYPE_MAP = {"real": "float", "integer": "int", "logical": "int",
             "double precision": "double"}

_DECL_RE = re.compile(
    r"^(?P<type>real(?:\s*\(\s*(?:kind\s*=\s*)?8\s*\))?"
    r"|double\s+precision|integer|logical)\s*"
    r"(?P<attrs>(?:,\s*[a-z_]+(?:\([^)]*\))?)*)\s*::\s*(?P<rest>.+)$",
    re.IGNORECASE)
_UNIT_RE = re.compile(
    r"^subroutine\s+(?P<name>\w+)\s*\((?P<args>[^)]*)\)\s*$", re.IGNORECASE)
_DO_RE = re.compile(
    r"^do\s+(?P<var>\w+)\s*=\s*(?P<lo>.+?)\s*,\s*(?P<hi>[^,]+?)"
    r"(?:\s*,\s*(?P<step>.+))?$", re.IGNORECASE)
_DO_WHILE_RE = re.compile(r"^do\s+while\s*\((?P<cond>.+)\)$", re.IGNORECASE)
_IF_THEN_RE = re.compile(r"^if\s*\((?P<cond>.+)\)\s*then$", re.IGNORECASE)
_IF_ONE_RE = re.compile(r"^if\s*\((?P<cond>.+)\)\s*(?P<stmt>[^t].*|t[^h].*)$",
                        re.IGNORECASE)
_ELSE_IF_RE = re.compile(r"^else\s*if\s*\((?P<cond>.+)\)\s*then$",
                         re.IGNORECASE)
_CALL_RE = re.compile(r"^call\s+(?P<name>\w+)\s*\((?P<args>.*)\)\s*$",
                      re.IGNORECASE)


class FortranParser:
    """Parses one or more subroutines into a C :class:`~cast.Program`;
    the scope (``names``, calls) of its expression and clause parsers."""

    fortran = True

    def __init__(self, source: str) -> None:
        self.lines = _scan_lines(source)
        self.pos = 0
        self.units = {m.group("name") for line in self.lines
                      if (m := _UNIT_RE.match(line.text))}

    def return_type(self, func: str) -> str:
        return "void" if func in self.units else "int"

    # -- helpers ---------------------------------------------------------------

    def peek(self) -> _Line | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next_line(self) -> _Line:
        line = self.peek()
        if line is None:
            raise FortranError("unexpected end of source",
                               self.lines[-1].number if self.lines else 0)
        self.pos += 1
        return line

    def expr(self, text: str, line: int) -> C.Expr:
        return _ExprParser(text, self, line).parse()

    # -- program ------------------------------------------------------------------

    def parse_program(self) -> C.Program:
        prog = C.Program()
        while self.peek() is not None:
            prog.functions.append(self._parse_subroutine())
        return prog

    def _parse_subroutine(self) -> C.FunctionDef:
        head = self.next_line()
        m = _UNIT_RE.match(head.text)
        if m is None:
            raise FortranError("expected 'subroutine name(args)'",
                               head.number)
        name = m.group("name")
        params = [a.strip() for a in m.group("args").split(",") if a.strip()]
        self.arrays: set[str] = set()
        self.names: dict[str, str] = {}
        param_types: dict[str, C.CType] = {}
        body: list[C.Stmt] = []
        # Declarations first (they may mention dummy args).
        while True:
            line = self.peek()
            if line is None:
                raise FortranError(f"missing 'end subroutine' for {name}",
                                   head.number)
            dm = _DECL_RE.match(line.text)
            if dm is None:
                break
            self.next_line()
            body.extend(self._lower_declaration(dm, line.number,
                                                params, param_types))
        # Executable part.
        body.extend(self._parse_block(("end",), name))
        for p in params:
            if p not in param_types:
                raise FortranError(
                    f"dummy argument {p!r} of {name} was never declared",
                    head.number)
        return C.FunctionDef(
            name=name,
            return_type=C.CType("void"),
            params=[C.Param(p, param_types[p], head.number) for p in params],
            body=C.Compound(body=body, line=head.number),
            line=head.number,
        )

    def _lower_declaration(self, m, line_no: int, params: list[str],
                           param_types: dict[str, C.CType]) -> list[C.Stmt]:
        base = _TYPE_MAP[re.sub(r"\s+", " ", m.group("type").lower())
                         .split("(")[0].strip()]
        if "8" in m.group("type") and base == "float":
            base = "double"
        rest = m.group("rest")
        decls: list[C.Stmt] = []
        for item in _split_top_level(rest):
            dm = re.match(r"^(?P<name>\w+)\s*(?:\((?P<dim>.+)\))?\s*"
                          r"(?:=\s*(?P<init>.+))?$", item.strip())
            if dm is None:
                raise FortranError(f"cannot parse declarator {item!r}",
                                   line_no)
            dname = dm.group("name")
            is_array = dm.group("dim") is not None
            if is_array:
                self.arrays.add(dname)
            self.names[dname] = base + "*" * is_array
            if dname in params:
                if is_array:
                    # Dummy array argument: becomes a pointer parameter
                    # (extent checked at run time by the loader).
                    param_types[dname] = C.CType(base, pointers=1)
                else:
                    param_types[dname] = C.CType(base)
                if dm.group("init"):
                    raise FortranError(
                        f"dummy argument {dname!r} cannot be initialized",
                        line_no)
                continue
            if is_array:
                dim = dm.group("dim")
                extent = self.expr(dim, line_no)
                decls.append(C.Decl(
                    name=dname,
                    ctype=C.CType(base, array_dims=(extent,)),
                    line=line_no))
            else:
                init = (self.expr(dm.group("init"), line_no)
                        if dm.group("init") else None)
                decls.append(C.Decl(name=dname, ctype=C.CType(base),
                                    init=init, line=line_no))
        return decls

    # -- blocks -------------------------------------------------------------------

    def _parse_block(self, terminators: tuple[str, ...],
                     unit_name: str, acc_end: str | None = None) -> list[C.Stmt]:
        """Parse statements until a terminator line; consumes it.

        ``acc_end`` names an OpenACC construct whose Fortran-style
        ``!$acc end <construct>`` sentinel also terminates this block.
        """
        stmts: list[C.Stmt] = []
        pending_directives: list[Directive] = []
        while True:
            line = self.peek()
            if line is None:
                raise FortranError("unexpected end of block", 0)
            low = line.text.lower()
            if acc_end is not None and                     re.fullmatch(rf"!\$acc\s+end\s+{acc_end}", low):
                if pending_directives:
                    raise FortranError(
                        "dangling !$acc directive before end of block",
                        line.number)
                self.next_line()
                return stmts
            if any(low == t or low.startswith(t + " ")
                   for t in terminators):
                if pending_directives:
                    raise FortranError(
                        "dangling !$acc directive before end of block",
                        line.number)
                self.next_line()
                return stmts
            stmt = self._parse_statement(unit_name)
            if stmt is None:
                continue
            if isinstance(stmt, list):  # directives
                for d in stmt:
                    is_block = isinstance(d, AccData) or (
                        isinstance(d, AccParallel) and d.fused_loop is None)
                    if is_block:
                        # Fortran block construct: parse the region body
                        # until the matching '!$acc end <construct>'.
                        kind = "data" if isinstance(d, AccData)                             else d.construct
                        body = self._parse_block((), unit_name,
                                                 acc_end=kind)
                        region = C.Compound(body=body, line=d.line)
                        region.directives = pending_directives + [d]
                        pending_directives = []
                        stmts.append(region)
                    else:
                        pending_directives.append(d)
                continue
            if pending_directives:
                stmt.directives = pending_directives + stmt.directives
                pending_directives = []
            stmts.append(stmt)

    def _parse_statement(self, unit_name: str):
        line = self.next_line()
        text = line.text
        low = text.lower()
        no = line.number

        if low.startswith("!$acc"):
            body = text[5:].strip()
            if body.lower().startswith("end"):
                # Stray 'end' sentinel of a combined construct
                # ('!$acc end parallel loop'): structural no-op.
                return None
            d = parse_pragma("acc " + body, no, self)
            return [d] if d is not None else None

        m = _DO_WHILE_RE.match(text)
        if m is not None:
            body = self._parse_block(("end do", "enddo"), unit_name)
            return C.While(cond=self.expr(m.group("cond"), no),
                           body=C.Compound(body=body, line=no), line=no)

        m = _DO_RE.match(text)
        if m is not None:
            var = m.group("var")
            if m.group("step") is not None and \
                    m.group("step").strip() != "1":
                raise FortranError("only unit do-steps are supported", no)
            lo = self.expr(m.group("lo"), no)
            hi = self.expr(m.group("hi"), no)
            body = self._parse_block(("end do", "enddo"), unit_name)
            ty = self.names.get(var, "int")
            init = C.ExprStmt(expr=C.Assign(C.Ident(var, no, ty=ty), lo, "",
                                            no, ty=ty), line=no)
            return C.For(
                init=init,
                cond=_bin("<=", C.Ident(var, no, ty=ty), hi, no),
                step=C.Assign(C.Ident(var, no, ty=ty), _int(1), "+", no,
                              ty=ty),
                body=C.Compound(body=body, line=no),
                line=no,
            )

        m = _IF_THEN_RE.match(text)
        if m is not None:
            return self._parse_if_chain(m.group("cond"), no, unit_name)

        if low.startswith("if"):
            m = re.match(r"^if\s*\((?P<cond>.+?)\)\s*(?P<rest>\w.*)$", text,
                         re.IGNORECASE)
            if m is not None and m.group("rest").lower() != "then":
                inner = self._lower_simple(m.group("rest"), no, unit_name)
                return C.If(cond=self.expr(m.group("cond"), no),
                            then=inner, line=no)

        if low == "exit":
            return C.Break(line=no)
        if low == "cycle":
            return C.Continue(line=no)
        if low == "return":
            return C.Return(line=no)
        if low.startswith("end subroutine") or low == "end":
            raise FortranError(
                f"unbalanced end in {unit_name}", no)

        return self._lower_simple(text, no, unit_name)

    def _parse_if_chain(self, cond_text: str, no: int,
                        unit_name: str) -> C.If:
        then_body: list[C.Stmt] = []
        node = C.If(cond=self.expr(cond_text, no),
                    then=C.Compound(body=then_body, line=no), line=no)
        current = then_body
        while True:
            line = self.peek()
            if line is None:
                raise FortranError("unterminated if", no)
            low = line.text.lower()
            m = _ELSE_IF_RE.match(line.text)
            if m is not None:
                self.next_line()
                sub = self._parse_if_chain(m.group("cond"), line.number,
                                           unit_name)
                node_ref = node
                while node_ref.orelse is not None:
                    node_ref = node_ref.orelse  # type: ignore[assignment]
                node_ref.orelse = sub
                return node
            if low == "else":
                self.next_line()
                else_body = self._parse_block(("end if", "endif"), unit_name)
                node.orelse = C.Compound(body=else_body, line=line.number)
                return node
            if low in ("end if", "endif"):
                self.next_line()
                return node
            stmt = self._parse_statement(unit_name)
            if stmt is None:
                continue
            if isinstance(stmt, list):
                raise FortranError("directives inside if blocks must precede "
                                   "a statement", line.number)
            current.append(stmt)

    def _lower_simple(self, text: str, no: int, unit_name: str) -> C.Stmt:
        m = _CALL_RE.match(text)
        if m is not None:
            args = [self.expr(a, no)
                    for a in _split_top_level(m.group("args")) if a.strip()]
            name = m.group("name")
            return C.ExprStmt(expr=C.Call(name, args, no, ty=call(
                name, args, True, self.return_type)), line=no)
        # Assignment: target = expr (target may be a(expr)).
        eq = _find_top_level_equals(text)
        if eq < 0:
            raise FortranError(f"cannot parse statement {text!r}", no)
        target = self.expr(text[:eq].strip(), no)
        value = self.expr(text[eq + 1:].strip(), no)
        if not isinstance(target, (C.Ident, C.Index)):
            raise FortranError("assignment target must be a variable or "
                               "array element", no)
        # Fortran has no compound assignment: desugar the idiomatic
        # 'dest = dest OP v' back into 'dest OP= v' so the translator's
        # reduction machinery (reductiontoarray, atomic-style stores)
        # sees the same form the C frontend produces.
        op = ""
        if isinstance(target, C.Index) and isinstance(value, C.BinOp) \
                and value.op in ("+", "*"):
            if value.left == target:
                value, op = value.right, value.op
            elif value.op == "+" and value.right == target:
                value, op = value.left, value.op
        return C.ExprStmt(expr=C.Assign(target, value, op, no, ty=target.ty),
                          line=no)


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested in parentheses."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _find_top_level_equals(text: str) -> int:
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "=" and depth == 0:
            prev = text[i - 1] if i else ""
            nxt = text[i + 1] if i + 1 < len(text) else ""
            if prev in "<>=!/" or nxt == "=":
                continue
            return i
    return -1


# ---------------------------------------------------------------------------
# localaccess window re-basing (1-based -> 0-based)
# ---------------------------------------------------------------------------


def _rebase_directives(prog: C.Program) -> None:
    """Shift localaccess windows from Fortran's 1-based element numbers.

    Window *bounds* are element numbers, so ``range``/``bounds`` forms
    shift by -1.  The ``stride`` form is expressed in the loop variable
    (which still runs over its original 1-based range), so it is
    rewritten to the equivalent ``bounds`` pair evaluated at ``i``:
    ``[s*(i-1)+1-l, s*i+r]`` 1-based == ``[s*(i-1)-l, s*i-1+r]``
    0-based.
    """
    for func in prog.functions:
        for stmt in C.walk(func.body):
            for d in stmt.directives:
                if not isinstance(d, AccLocalAccess):
                    continue
                for name, spec in list(d.entries.items()):
                    d.entries[name] = _rebase_spec(spec)


def _rebase_spec(spec):
    if spec.kind == "all":
        return spec
    if spec.kind in ("range", "bounds"):
        return LocalAccessSpec(kind=spec.kind,
                               lo=_minus_one(spec.lo),
                               hi=_minus_one(spec.hi))
    # stride(s, l, r) with a 1-based loop variable i: rewrite as bounds.
    assert spec.kind == "stride"
    s, l, r = spec.stride, spec.left, spec.right
    # A ``do`` variable is an integer.
    i = C.Ident("__loopvar__", ty="int")
    lo = _bin("-", _bin("*", s, _bin("-", i, _int(1))), l)
    hi = _bin("+", _bin("-", _bin("*", s, i), _int(1)), r)
    return LocalAccessSpec(kind="bounds", lo=lo, hi=hi)


def _bind_loopvar_placeholders(prog: C.Program) -> None:
    """Replace the ``__loopvar__`` placeholder with each loop's variable."""
    for func in prog.functions:
        for stmt in C.walk(func.body):
            las = [d for d in stmt.directives
                   if isinstance(d, AccLocalAccess)]
            if not las or not isinstance(stmt, C.For):
                continue
            init = stmt.init
            var = init.name if isinstance(init, C.Decl) else \
                init.expr.target.name  # type: ignore[union-attr]
            for d in las:
                for spec in d.entries.values():
                    for bound in (spec.lo, spec.hi, spec.stride, spec.left,
                                  spec.right):
                        if bound is None:
                            continue
                        for e in C.walk_expr(bound):
                            if isinstance(e, C.Ident) and \
                                    e.name == "__loopvar__":
                                e.name = var


def parse_fortran(source: str) -> C.Program:
    """Parse free-form Fortran into the shared C AST."""
    prog = FortranParser(source).parse_program()
    _rebase_directives(prog)
    _bind_loopvar_placeholders(prog)
    prog.source, prog.frontend = source, "fortran"
    return prog
