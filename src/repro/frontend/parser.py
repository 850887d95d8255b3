"""Recursive-descent parser for the C subset + OpenACC pragmas.

The grammar covers the language the paper's benchmark programs need:
scalar and array declarations (1-D/2-D), functions, ``for``/``while``/
``if``/``return``/``break``/``continue``, the full C expression
precedence ladder (assignment through primary, incl. ternary, casts,
calls and multi-dimensional subscripts), and ``#pragma acc`` lines.

Pragmas are attached to the statement that follows them, matching
OpenACC's line-oriented association rules.
"""

from __future__ import annotations

from sys import intern

from . import cast as C
from .lexer import (
    CHAR_ESCAPES,
    CHAR_LIT,
    EOF,
    FLOAT_LIT,
    ID,
    INT_LIT,
    KEYWORD,
    PRAGMA,
    PUNCT,
    STRING_LIT,
    Cursor,
    Token,
    tokenize,
)

_TYPE_KEYWORDS = {"void", "char", "short", "int", "long", "float", "double",
                  "signed", "unsigned", "const", "restrict", "static"}

_ASSIGN_OPS = {"=": "", "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
               "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}

_PREFIX_OPS = frozenset({"-", "+", "!", "~", "*", "&"})

# Binary precedence (higher binds tighter).
BINARY_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class ParseError(SyntaxError):
    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"parse error at {token.line}:{token.col}: {message} "
                         f"(near {token.value!r})")
        self.token = token
        self.line = token.line
        self.col = token.col


class Parser(Cursor):
    def error(self, message: str) -> ParseError:
        return ParseError(message, self.tok)

    # -- top level -------------------------------------------------------------

    def parse_program(self) -> C.Program:
        prog = C.Program()
        while not self.at(EOF):
            if self.accept(PRAGMA):
                # Stray global pragma (e.g. once) -- not meaningful here.
                continue
            if not self._at_type():
                raise self.error("expected declaration or function")
            mark = self.pos
            self._parse_type_specifiers()
            self.expect(ID)
            is_function = self.at(PUNCT, "(")
            self.seek(mark)
            if is_function:
                prog.functions.append(self._parse_function())
            else:
                prog.globals.extend(self._parse_declaration())
        return prog

    def _at_type(self) -> bool:
        tok = self.tok
        return tok.kind == KEYWORD and tok.value in _TYPE_KEYWORDS

    def _parse_type_specifiers(self) -> C.CType:
        """Base type + qualifiers (no declarator part)."""
        const = False
        unsigned = False
        parts: list[str] = []
        while self._at_type():
            w = self.advance().value
            if w == "const":
                const = True
            elif w in ("restrict", "signed", "static"):
                pass
            elif w == "unsigned":
                unsigned = True
            else:
                parts.append(w)
        if not parts and not unsigned:
            raise self.error("expected type name")
        if not parts:
            base = "int"
        elif parts == ["long", "long"]:
            base = "long"
        elif parts == ["short"]:
            base = "int"
        else:
            base = parts[0]
        if unsigned:
            base = {"int": "unsigned int", "long": "unsigned long",
                    "char": "char"}.get(base, base)
        return C.CType(base, const=const)

    def _parse_pointers(self) -> int:
        pointers = 0
        while self.accept(PUNCT, "*"):
            pointers += 1
        return pointers

    def _parse_declarator(self, base: C.CType) -> tuple[str, C.CType, int]:
        """Pointer stars + name + array dims; returns (name, type, line)."""
        pointers = 0
        while self.accept(PUNCT, "*"):
            pointers += 1
            self.accept(KEYWORD, "restrict")
            self.accept(KEYWORD, "const")
        name_tok = self.expect(ID)
        dims: list[C.Expr | None] = []
        while self.accept(PUNCT, "["):
            if self.at(PUNCT, "]"):
                dims.append(None)
            else:
                dims.append(self.parse_expression())
            self.expect(PUNCT, "]")
        ctype = C.CType(base.base, pointers, tuple(dims), base.const)
        return name_tok.value, ctype, name_tok.line

    def _parse_declaration(self) -> list[C.Decl]:
        """``type declarator (= init)? (, declarator (= init)?)* ;``"""
        base = self._parse_type_specifiers()
        decls: list[C.Decl] = []
        while True:
            name, ctype, line = self._parse_declarator(base)
            init = None
            if self.accept(PUNCT, "="):
                init = self.parse_assignment()
            decls.append(C.Decl(name=name, ctype=ctype, init=init, line=line))
            if not self.accept(PUNCT, ","):
                break
        self.expect(PUNCT, ";")
        return decls

    def _parse_function(self) -> C.FunctionDef:
        rtype = self._parse_type_specifiers()
        rtype = C.CType(rtype.base, self._parse_pointers(), (), rtype.const)
        name_tok = self.expect(ID)
        self.expect(PUNCT, "(")
        params: list[C.Param] = []
        if not self.at(PUNCT, ")"):
            if self.at(KEYWORD, "void") and self.peek().value == ")":
                self.advance()
            else:
                while True:
                    pbase = self._parse_type_specifiers()
                    pname, ptype, pline = self._parse_declarator(pbase)
                    params.append(C.Param(pname, ptype, pline))
                    if not self.accept(PUNCT, ","):
                        break
        self.expect(PUNCT, ")")
        body = self.parse_compound()
        return C.FunctionDef(
            name=name_tok.value, return_type=rtype, params=params, body=body,
            line=name_tok.line,
        )

    # -- statements ----------------------------------------------------------------

    def parse_statement(self) -> C.Stmt:
        """One statement, with the ``acc`` pragmas before it attached."""
        if self.tok.kind != PRAGMA:
            return self._parse_statement_inner()
        from .directives import parse_pragma  # late import: avoids cycle

        directives = []
        while self.tok.kind == PRAGMA:
            tok = self.advance()
            d = parse_pragma(tok.value, tok.line)
            if d is not None:
                directives.append(d)
        stmt = self._parse_statement_inner()
        if directives:
            stmt.directives = directives + stmt.directives
        return stmt

    def _parse_statement_inner(self) -> C.Stmt:
        t = self.tok
        if t.kind == KEYWORD:
            word = t.value
            if word in _TYPE_KEYWORDS:
                decls = self._parse_declaration()
                if len(decls) == 1:
                    return decls[0]
                return C.Compound(body=list(decls), line=t.line)
            if word == "if":
                return self._parse_if()
            if word == "for":
                return self._parse_for()
            if word == "while":
                return self._parse_while()
            if word == "return":
                self.advance()
                value = None if self.at(PUNCT, ";") else self.parse_expression()
                self.expect(PUNCT, ";")
                return C.Return(value=value, line=t.line)
            if word == "break" or word == "continue":
                self.advance()
                self.expect(PUNCT, ";")
                return (C.Break if word == "break" else C.Continue)(line=t.line)
        elif t.kind == PUNCT:
            if t.value == "{":
                return self.parse_compound()
            if t.value == ";":
                self.advance()
                return C.ExprStmt(expr=None, line=t.line)
        expr = self.parse_expression()
        self.expect(PUNCT, ";")
        return C.ExprStmt(expr=expr, line=t.line)

    def parse_compound(self) -> C.Compound:
        open_tok = self.expect(PUNCT, "{")
        body: list[C.Stmt] = []
        while not self.at(PUNCT, "}"):
            if self.at(EOF):
                raise self.error("unterminated block")
            body.append(self.parse_statement())
        self.advance()
        return C.Compound(body=body, line=open_tok.line)

    def _parse_if(self) -> C.If:
        tok = self.expect(KEYWORD, "if")
        self.expect(PUNCT, "(")
        cond = self.parse_expression()
        self.expect(PUNCT, ")")
        then = self.parse_statement()
        orelse = None
        if self.accept(KEYWORD, "else"):
            orelse = self.parse_statement()
        return C.If(cond=cond, then=then, orelse=orelse, line=tok.line)

    def _parse_for(self) -> C.For:
        tok = self.expect(KEYWORD, "for")
        self.expect(PUNCT, "(")
        init: C.Stmt | None = None
        if self.accept(PUNCT, ";"):
            pass
        elif self._at_type():
            decls = self._parse_declaration()  # consumes ';'
            init = decls[0] if len(decls) == 1 else C.Compound(body=list(decls))
        else:
            e = self.parse_expression()
            self.expect(PUNCT, ";")
            init = C.ExprStmt(expr=e, line=tok.line)
        cond = None if self.at(PUNCT, ";") else self.parse_expression()
        self.expect(PUNCT, ";")
        step = None if self.at(PUNCT, ")") else self.parse_expression()
        self.expect(PUNCT, ")")
        body = self.parse_statement()
        return C.For(init=init, cond=cond, step=step, body=body, line=tok.line)

    def _parse_while(self) -> C.While:
        tok = self.expect(KEYWORD, "while")
        self.expect(PUNCT, "(")
        cond = self.parse_expression()
        self.expect(PUNCT, ")")
        body = self.parse_statement()
        return C.While(cond=cond, body=body, line=tok.line)

    # -- expressions ------------------------------------------------------------------
    #
    # Three calls per operand -- assignment, the precedence climb, the
    # operand itself with its prefix and postfix forms -- whatever the
    # depth of the precedence ladder.

    def parse_assignment(self) -> C.Expr:
        left = self.parse_binary(1)
        if self.tok.value == "?":
            left = self._parse_ternary_tail(left)
        t = self.tok
        if t.kind == PUNCT and t.value in _ASSIGN_OPS:
            self.advance()
            value = self.parse_assignment()
            return C.Assign(target=left, value=value,
                            op=_ASSIGN_OPS[t.value], line=t.line)
        return left

    #: A full expression.  The subset has no comma operator.
    parse_expression = parse_assignment

    def _parse_ternary_tail(self, cond: C.Expr) -> C.Ternary:
        self.expect(PUNCT, "?")
        then = self.parse_assignment()
        self.expect(PUNCT, ":")
        other = self.parse_binary(1)  # right-associative, below assignment
        if self.tok.value == "?":
            other = self._parse_ternary_tail(other)
        return C.Ternary(cond=cond, then=then, other=other)

    def parse_binary(self, min_prec: int) -> C.Expr:
        """Precedence climb over :data:`BINARY_PREC` (both languages)."""
        left = self.parse_unary()
        while True:
            t = self.tok
            prec = BINARY_PREC.get(t.value) if t.kind == PUNCT else None
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            # Interned: every use of an operator in a tree is one object,
            # which is what the registry's pickle of it costs.
            left = C.BinOp(op=intern(t.value), left=left, right=right,
                           line=t.line)

    def parse_unary(self) -> C.Expr:
        """One operand: prefix operators, a primary, its postfix forms."""
        t = self.tok
        kind = t.kind
        if kind == ID:
            self.advance()
            expr: C.Expr = C.Ident(t.value, t.line)
        elif kind == PUNCT:
            op = t.value
            if op in _PREFIX_OPS:
                self.advance()
                return C.UnOp(op=op, operand=self.parse_unary(), line=t.line)
            if op == "++" or op == "--":
                # Pre-inc/dec desugars to compound assignment.
                self.advance()
                operand = self.parse_unary()
                return C.Assign(target=operand, value=C.IntLit(1, t.line),
                                op=op[0], line=t.line)
            if op != "(":
                raise self.error("expected expression")
            self.advance()
            if self._at_type():  # cast: '(' type ')' unary
                ctype = self._parse_type_specifiers()
                ctype = C.CType(ctype.base, self._parse_pointers())
                self.expect(PUNCT, ")")
                return C.CastExpr(to=ctype, operand=self.parse_unary(),
                                  line=t.line)
            expr = self.parse_expression()
            self.expect(PUNCT, ")")
        elif kind == INT_LIT:
            self.advance()
            text = t.value.rstrip("uUlL")
            expr = C.IntLit(int(text, 16) if text[:2] in ("0x", "0X")
                            else int(text), t.line)
        elif kind == FLOAT_LIT:
            self.advance()
            expr = C.FloatLit(float(t.value.rstrip("fFlL")), t.line)
        elif kind == CHAR_LIT:
            self.advance()
            body = t.value[1:-1]
            expr = C.IntLit(ord(CHAR_ESCAPES.get(body, body)), t.line)
        elif kind == STRING_LIT:
            # Strings only appear as printf-style arguments; keep the text.
            self.advance()
            expr = C.Ident(t.value, t.line)
        elif kind == KEYWORD and t.value == "sizeof":
            return self._parse_sizeof()
        else:
            raise self.error("expected expression")
        while True:
            t = self.tok
            if t.kind != PUNCT:
                return expr
            op = t.value
            if op == "[":
                indices: list[C.Expr] = []
                while self.accept(PUNCT, "["):
                    indices.append(self.parse_expression())
                    self.expect(PUNCT, "]")
                expr = C.Index(array=expr, indices=indices, line=t.line)
            elif op == "(" and isinstance(expr, C.Ident):
                self.advance()
                args: list[C.Expr] = []
                if not self.at(PUNCT, ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(PUNCT, ","):
                            break
                self.expect(PUNCT, ")")
                expr = C.Call(func=expr.name, args=args, line=t.line)
            elif op == "++" or op == "--":
                self.advance()
                # Post-inc in expression statements behaves like pre-inc in
                # the subset (value unused); desugar identically.
                expr = C.Assign(target=expr, value=C.IntLit(1, t.line),
                                op=op[0], line=t.line)
            else:
                return expr

    def _parse_sizeof(self) -> C.Expr:
        t = self.expect(KEYWORD, "sizeof")
        self.expect(PUNCT, "(")
        if self._at_type():
            ctype = self._parse_type_specifiers()
            pointers = self._parse_pointers()
            self.expect(PUNCT, ")")
            return C.IntLit(8 if pointers else ctype.itemsize(), t.line)
        e = self.parse_expression()
        self.expect(PUNCT, ")")
        return C.Call(func="sizeof", args=[e], line=t.line)


def parse(source: str) -> C.Program:
    """Parse a full translation unit."""
    tree = Parser(tokenize(source)).parse_program()
    tree.source, tree.frontend = source, "c"
    return tree


def parse_expr(text: str) -> C.Expr:
    """Parse a standalone expression (used by directive clause parsing)."""
    p = Parser(tokenize(text))
    e = p.parse_expression()
    if not p.at(EOF):
        raise p.error("trailing input after expression")
    return e
