"""Lexer unit tests."""

import pytest

from repro.frontend.lexer import (
    CHAR_LIT,
    EOF,
    FLOAT_LIT,
    ID,
    INT_LIT,
    KEYWORD,
    LexError,
    PRAGMA,
    PUNCT,
    STRING_LIT,
    tokenize,
)


def kinds(src):
    return [t.kind for t in tokenize(src)]


def values(src):
    return [t.value for t in tokenize(src)][:-1]  # drop EOF


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == EOF

    def test_identifier(self):
        t = tokenize("foo_bar2")[0]
        assert t.kind == ID and t.value == "foo_bar2"

    def test_identifier_with_leading_underscore(self):
        assert tokenize("_x")[0].kind == ID

    def test_keyword_recognized(self):
        t = tokenize("while")[0]
        assert t.kind == KEYWORD and t.value == "while"

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("whilex")[0].kind == ID

    def test_int_literal(self):
        t = tokenize("42")[0]
        assert t.kind == INT_LIT and t.value == "42"

    def test_hex_literal(self):
        t = tokenize("0x1F")[0]
        assert t.kind == INT_LIT and t.value == "0x1F"

    def test_int_with_suffix(self):
        assert tokenize("42u")[0].kind == INT_LIT
        assert tokenize("42UL")[0].kind == INT_LIT

    def test_float_literal(self):
        assert tokenize("3.25")[0].kind == FLOAT_LIT

    def test_float_with_f_suffix(self):
        t = tokenize("1.5f")[0]
        assert t.kind == FLOAT_LIT and t.value == "1.5f"

    def test_float_exponent(self):
        assert tokenize("1e10")[0].kind == FLOAT_LIT
        assert tokenize("2.5e-3")[0].kind == FLOAT_LIT

    def test_int_f_suffix_is_float(self):
        # 1f is a float constant in the subset (as in C with a suffix).
        assert tokenize("1f")[0].kind == FLOAT_LIT

    def test_leading_dot_float(self):
        assert tokenize(".5")[0].kind == FLOAT_LIT

    def test_string_literal(self):
        t = tokenize('"hi there"')[0]
        assert t.kind == STRING_LIT and t.value == '"hi there"'

    def test_string_with_escape(self):
        t = tokenize(r'"a\"b"')[0]
        assert t.kind == STRING_LIT

    def test_char_literal(self):
        assert tokenize("'x'")[0].kind == CHAR_LIT


class TestOperators:
    def test_longest_match(self):
        assert values("a <<= b") == ["a", "<<=", "b"]
        assert values("a << b") == ["a", "<<", "b"]
        assert values("a < b") == ["a", "<", "b"]

    def test_increment_vs_plus(self):
        assert values("i++ + 1") == ["i", "++", "+", "1"]

    def test_arrow(self):
        assert values("p->x") == ["p", "->", "x"]

    def test_all_compound_assignments(self):
        for op in ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]:
            assert op in values(f"a {op} b")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\n y */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers_across_newlines(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:3]] == [1, 2, 4]

    def test_line_numbers_after_block_comment(self):
        toks = tokenize("/* a\nb */ x")
        assert toks[0].line == 2


class TestPragmas:
    def test_pragma_captured(self):
        toks = tokenize("#pragma acc loop gang\nx")
        assert toks[0].kind == PRAGMA
        assert toks[0].value == "acc loop gang"
        assert toks[1].value == "x"

    def test_include_dropped(self):
        assert values("#include <stdio.h>\nx") == ["x"]

    def test_define_dropped(self):
        assert values("#define N 100\nx") == ["x"]

    def test_pragma_line_continuation(self):
        toks = tokenize("#pragma acc data \\\n copy(a)\nx")
        assert toks[0].kind == PRAGMA
        assert "copy(a)" in toks[0].value

    def test_pragma_at_eof(self):
        toks = tokenize("#pragma acc loop")
        assert toks[0].kind == PRAGMA

    def test_non_acc_pragma_still_tokenized(self):
        toks = tokenize("#pragma omp parallel for\nx")
        assert toks[0].kind == PRAGMA and toks[0].value.startswith("omp")


class TestMalformedLiterals:
    """Literals the parser's ``int()`` / ``float()`` / ``ord()`` could not
    read used to escape as bare ValueError / TypeError with no location."""

    def error_at(self, src):
        with pytest.raises(LexError) as caught:
            tokenize(src)
        return caught.value.line, caught.value.col

    def test_hex_prefix_without_digits(self):
        assert self.error_at("x =\n  0x;") == (2, 3)
        assert self.error_at("0xg") == (1, 1)

    def test_integer_suffix_on_float(self):
        assert self.error_at("a = 1.0u;") == (1, 5)
        for src in ("1.5fu", "1e5U", "1uf", "0x1uf"):
            assert self.error_at(src) == (1, 1)

    def test_float_suffix_runs_still_lex(self):
        assert [t.kind for t in tokenize("1.0fl 1lf 1.5L")[:-1]] == [FLOAT_LIT] * 3

    def test_char_literal_not_one_character(self):
        for src in ("'ab'", "''", "'\\x41'", "'\\''"):
            assert self.error_at("c = " + src) == (1, 5)

    def test_char_literal_known_escapes(self):
        for src in ("'\\n'", "'\\t'", "'\\0'", "'\\\\'", "'\"'"):
            assert tokenize(src)[0].kind == CHAR_LIT


class TestNewlineInLiteral:
    """A raw newline in a literal used to be swallowed without advancing
    ``line``: every later token reported one line early."""

    def test_raw_newline_in_string_is_unterminated(self):
        with pytest.raises(LexError, match="unterminated literal") as caught:
            tokenize('x = "s\ns" d')
        assert (caught.value.line, caught.value.col) == (1, 5)

    def test_escaped_newline_in_string_is_unterminated(self):
        with pytest.raises(LexError, match="unterminated literal"):
            tokenize('"s\\\ns" d')

    def test_newline_in_char_literal_is_unterminated(self):
        with pytest.raises(LexError, match="unterminated literal"):
            tokenize("'\n' d")


class TestPragmaLine:
    def test_continued_pragma_carries_the_line_of_its_hash(self):
        toks = tokenize("y\n#pragma acc parallel \\\n loop \\\n gang\nx")
        assert (toks[1].kind, toks[1].line, toks[1].col) == (PRAGMA, 2, 1)
        assert (toks[2].value, toks[2].line) == ("x", 5)

    def test_pragma_text_scans_at_its_source_line(self):
        toks = tokenize("loop  gang", line=7)
        assert [(t.value, t.line, t.col) for t in toks] == [
            ("loop", 7, 1), ("gang", 7, 7), ("", 7, 11)]
