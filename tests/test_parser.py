"""Parser unit tests: declarations, statements, expressions, pragmas."""

import pytest

from repro.frontend import cast as C
from repro.frontend.directives import AccLoop, AccParallel, DirectiveError
from repro.frontend.lexer import LexError
from repro.frontend.parser import ParseError, parse, parse_expr


def first_func(src):
    return parse(src).functions[0]


def body_of(src):
    return first_func(src).body.body


class TestDeclarations:
    def test_global_scalar(self):
        prog = parse("int n = 10;")
        assert prog.globals[0].name == "n"
        assert prog.globals[0].ctype.base == "int"
        assert isinstance(prog.globals[0].init, C.IntLit)

    def test_global_array(self):
        prog = parse("float data[100];")
        d = prog.globals[0]
        assert d.ctype.is_array
        assert d.ctype.array_dims[0].value == 100

    def test_pointer_declaration(self):
        prog = parse("void f(float *x) {}")
        p = prog.functions[0].params[0]
        assert p.ctype.pointers == 1
        assert p.ctype.is_arraylike

    def test_restrict_pointer(self):
        prog = parse("void f(float * restrict x) {}")
        assert prog.functions[0].params[0].ctype.pointers == 1

    def test_const_qualifier(self):
        prog = parse("void f(const float *x) {}")
        assert prog.functions[0].params[0].ctype.const

    def test_unsigned_int(self):
        prog = parse("unsigned int u;")
        assert prog.globals[0].ctype.base == "unsigned int"

    def test_long_long(self):
        prog = parse("long long big;")
        assert prog.globals[0].ctype.base == "long"

    def test_multi_declarator(self):
        prog = parse("int a = 1, b = 2, c;")
        assert [d.name for d in prog.globals] == ["a", "b", "c"]
        assert prog.globals[2].init is None

    def test_local_declaration_in_body(self):
        stmts = body_of("void f() { int x = 5; }")
        assert isinstance(stmts[0], C.Decl)
        assert stmts[0].name == "x"

    def test_2d_array(self):
        prog = parse("float m[4][8];")
        assert len(prog.globals[0].ctype.array_dims) == 2


class TestFunctions:
    def test_void_params(self):
        f = first_func("int main(void) { return 0; }")
        assert f.params == []
        assert f.return_type.base == "int"

    def test_empty_params(self):
        assert first_func("void f() {}").params == []

    def test_multiple_params(self):
        f = first_func("float g(int n, float *x, double d) { return d; }")
        assert [p.name for p in f.params] == ["n", "x", "d"]

    def test_multiple_functions(self):
        prog = parse("void a() {} void b() {}")
        assert [f.name for f in prog.functions] == ["a", "b"]
        assert prog.function("b").name == "b"

    def test_unknown_function_lookup(self):
        with pytest.raises(KeyError):
            parse("void a() {}").function("zzz")


class TestStatements:
    def test_if_else(self):
        s = body_of("void f(int x) { if (x > 0) x = 1; else x = 2; }")[0]
        assert isinstance(s, C.If)
        assert s.orelse is not None

    def test_dangling_else_binds_inner(self):
        s = body_of(
            "void f(int x) { if (x) if (x > 1) x = 1; else x = 2; }")[0]
        assert isinstance(s, C.If)
        assert s.orelse is None
        assert isinstance(s.then, C.If)
        assert s.then.orelse is not None

    def test_for_loop_with_decl(self):
        s = body_of("void f(int n) { for (int i = 0; i < n; i++) { } }")[0]
        assert isinstance(s, C.For)
        assert isinstance(s.init, C.Decl)
        assert s.init.name == "i"

    def test_for_loop_with_assignment_init(self):
        s = body_of("void f(int n) { int i; for (i = 0; i < n; i++) { } }")[1]
        assert isinstance(s, C.For)
        assert isinstance(s.init, C.ExprStmt)

    def test_for_empty_clauses(self):
        s = body_of("void f() { for (;;) break; }")[0]
        assert s.init is None and s.cond is None and s.step is None

    def test_while(self):
        s = body_of("void f(int x) { while (x) x = x - 1; }")[0]
        assert isinstance(s, C.While)

    def test_break_continue(self):
        stmts = body_of("void f() { while (1) { break; continue; } }")
        inner = stmts[0].body.body
        assert isinstance(inner[0], C.Break)
        assert isinstance(inner[1], C.Continue)

    def test_return_value(self):
        s = body_of("int f() { return 41 + 1; }")[0]
        assert isinstance(s, C.Return)
        assert isinstance(s.value, C.BinOp)

    def test_empty_statement(self):
        s = body_of("void f() { ; }")[0]
        assert isinstance(s, C.ExprStmt) and s.expr is None

    def test_nested_blocks(self):
        s = body_of("void f() { { int x = 1; } }")[0]
        assert isinstance(s, C.Compound)

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("void f() { int x = 1;")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, C.BinOp) and e.op == "+"
        assert isinstance(e.right, C.BinOp) and e.right.op == "*"

    def test_precedence_relational_over_logical(self):
        e = parse_expr("a < b && c > d")
        assert e.op == "&&"

    def test_left_associativity(self):
        e = parse_expr("a - b - c")
        assert e.op == "-" and isinstance(e.left, C.BinOp)
        assert e.left.op == "-"

    def test_parentheses_override(self):
        e = parse_expr("(1 + 2) * 3")
        assert e.op == "*" and isinstance(e.left, C.BinOp)

    def test_unary_minus(self):
        e = parse_expr("-x * y")
        assert e.op == "*" and isinstance(e.left, C.UnOp)

    def test_logical_not(self):
        e = parse_expr("!done")
        assert isinstance(e, C.UnOp) and e.op == "!"

    def test_ternary(self):
        e = parse_expr("a ? b : c")
        assert isinstance(e, C.Ternary)

    def test_nested_ternary_right_assoc(self):
        e = parse_expr("a ? b : c ? d : e")
        assert isinstance(e.other, C.Ternary)

    def test_assignment_right_assoc(self):
        e = parse_expr("a = b = c")
        assert isinstance(e, C.Assign) and isinstance(e.value, C.Assign)

    def test_compound_assignment_op(self):
        e = parse_expr("x += 2")
        assert isinstance(e, C.Assign) and e.op == "+"

    def test_subscript(self):
        e = parse_expr("a[i + 1]")
        assert isinstance(e, C.Index)
        assert e.base_name() == "a"

    def test_multi_subscript_collected(self):
        e = parse_expr("m[i][j]")
        assert isinstance(e, C.Index) and len(e.indices) == 2

    def test_call_no_args(self):
        e = parse_expr("f()")
        assert isinstance(e, C.Call) and e.args == []

    def test_call_with_args(self):
        e = parse_expr("pow(x, 2.0)")
        assert e.func == "pow" and len(e.args) == 2

    def test_cast(self):
        e = parse_expr("(float)x")
        assert isinstance(e, C.CastExpr) and e.to.base == "float"

    def test_sizeof_type_folds(self):
        e = parse_expr("sizeof(float)")
        assert isinstance(e, C.IntLit) and e.value == 4
        assert parse_expr("sizeof(double)").value == 8

    def test_preincrement_desugars(self):
        e = parse_expr("++i")
        assert isinstance(e, C.Assign) and e.op == "+"

    def test_postincrement_desugars(self):
        e = parse_expr("i--")
        assert isinstance(e, C.Assign) and e.op == "-"

    def test_char_literal_is_int(self):
        e = parse_expr("'A'")
        assert isinstance(e, C.IntLit) and e.value == 65

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("a + b c")

    def test_modulo(self):
        assert parse_expr("a % 4").op == "%"

    def test_bit_ops_precedence(self):
        e = parse_expr("a | b & c")
        assert e.op == "|"


class TestIntegerLiterals:
    """An integer literal's value and C type come from its spelling (C99
    section 6.4.4.1): a ``0``-prefixed literal is octal, a suffix
    narrows the list of types, and the first type that holds the value
    is the literal's."""

    @pytest.mark.parametrize("text, value, ty", [
        ("7", 7, "int"), ("0", 0, "int"), ("2147483647", 2**31 - 1, "int"),
        ("2147483648", 2**31, "long"),
        ("010", 8, "int"), ("0777", 511, "int"), ("00", 0, "int"),
        ("020000000000", 2**31, "unsigned int"),
        ("0x7fffffff", 2**31 - 1, "int"),
        ("0x80000000", 2**31, "unsigned int"),
        ("0X100000000", 2**32, "long"),
        ("0x8000000000000000", 2**63, "unsigned long"),
        ("2L", 2, "long"), ("2l", 2, "long"), ("2LL", 2, "long"),
        ("2u", 2, "unsigned int"), ("2U", 2, "unsigned int"),
        ("4294967296u", 2**32, "unsigned long"),
        ("2ul", 2, "unsigned long"), ("2LU", 2, "unsigned long"),
        ("0x10L", 16, "long"), ("0xffffffffffffffffL", 2**64 - 1,
                                "unsigned long"),
        ("010u", 8, "unsigned int"),
    ])
    def test_spelling_gives_value_and_type(self, text, value, ty):
        e = parse_expr(text)
        assert isinstance(e, C.IntLit) and (e.value, e.ty) == (value, ty)

    def test_long_literal_widens_the_operation(self):
        body = body_of("void f(int *a, long *b) { b[0] = a[0] * 2L; }")
        assign = body[0].expr
        assert (assign.value.ty, assign.value.left.ty) == ("long", "int")

    @pytest.mark.parametrize("text, col", [("08", 1), ("a + 09", 5),
                                           ("0128u", 1)])
    def test_octal_literal_with_8_or_9_is_a_parse_error(self, text, col):
        with pytest.raises(ParseError, match="octal") as caught:
            parse_expr(text)
        assert (caught.value.line, caught.value.col) == (1, col)

    def test_octal_error_points_at_the_literal_in_a_program(self):
        with pytest.raises(ParseError) as caught:
            parse("void f(int *h) {\n  h[0] = 019 + 0;\n}")
        assert (caught.value.line, caught.value.col) == (2, 10)


class TestMalformedLiterals:
    """Each of these escaped ``parse_expr`` as a bare ValueError /
    TypeError without a location."""

    @pytest.mark.parametrize("text, col", [
        ("0x", 1), ("a + 1.0u", 5), ("1.5fu", 1),
        ("'ab'", 1), ("''", 1), ("f('\\x41')", 3),
    ])
    def test_malformed_literal_is_a_lex_error_with_location(self, text, col):
        with pytest.raises(LexError) as caught:
            parse_expr(text)
        assert (caught.value.line, caught.value.col) == (1, col)

    def test_newline_in_string_does_not_shift_later_lines(self):
        with pytest.raises(LexError, match="1:19: unterminated literal"):
            parse('void f() { printf("s\ns"); }\nint x;')


class TestPragmaAttachment:
    def test_continued_pragma_directive_carries_the_line_of_its_hash(self):
        prog = parse("void f(int n, float *a) {\n"
                     "#pragma acc parallel \\\n loop \\\n gang\n"
                     "for (int i = 0; i < n; i++) a[i] = 0; }")
        loop = prog.functions[0].body.body[0]
        assert loop.line == 5
        assert loop.directives[0].line == 2
        assert loop.directives[0].fused_loop.line == 2

    def test_continued_pragma_error_names_the_line_of_its_hash(self):
        with pytest.raises(DirectiveError) as caught:
            parse("void f() {\n#pragma acc loop \\\n bogus\n;}")
        assert caught.value.line == 2

    SRC = """
    void f(int n, float *x) {
      #pragma acc parallel
      {
        #pragma acc loop gang
        for (int i = 0; i < n; i++) {
          x[i] = 0.0f;
        }
      }
    }
    """

    def test_parallel_attaches_to_compound(self):
        stmts = body_of(self.SRC)
        region = stmts[0]
        assert isinstance(region, C.Compound)
        assert any(isinstance(d, AccParallel) for d in region.directives)

    def test_loop_attaches_to_for(self):
        region = body_of(self.SRC)[0]
        loop = region.body[0]
        assert isinstance(loop, C.For)
        assert any(isinstance(d, AccLoop) for d in loop.directives)

    def test_multiple_pragmas_accumulate(self):
        src = """
        void f(int n, float *x) {
          #pragma acc localaccess x[stride(1)]
          #pragma acc loop gang
          for (int i = 0; i < n; i++) { x[i] = 1.0f; }
        }
        """
        loop = body_of(src)[0]
        assert len(loop.directives) == 2

    def test_non_acc_pragma_ignored(self):
        src = """
        void f(int n) {
          #pragma omp parallel for
          for (int i = 0; i < n; i++) { }
        }
        """
        loop = body_of(src)[0]
        assert loop.directives == []


class TestTraversal:
    def test_walk_visits_nested(self):
        f = first_func("void f() { if (1) { while (0) { int z = 3; } } }")
        kinds = [type(s).__name__ for s in C.walk(f.body)]
        assert "If" in kinds and "While" in kinds and "Decl" in kinds

    def test_all_exprs_reaches_subscripts(self):
        f = first_func("void f(float *a, int i) { a[i * 2] = a[i] + 1.0f; }")
        subs = [e for e in C.all_exprs(f.body) if isinstance(e, C.Index)]
        assert len(subs) == 2
