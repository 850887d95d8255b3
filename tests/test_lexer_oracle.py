"""Differential test of the table-driven scanner against the lexers it
replaced (``tests/lexer_oracle.py``, verbatim from ``59bfbe5``).

Hypothesis draws text from a C-token alphabet -- identifiers, keywords,
every punctuator, int/hex/float forms with suffixes, literals with
escapes, both comment kinds, preprocessor lines with and without
continuations, stray characters -- glued with and without blanks, and a
second strategy draws raw characters so token boundaries fall anywhere.
The scanner must produce the oracle's ``(kind, value, line, col)``
stream, EOF included, or the oracle's ``LexError`` message, line and
column.  Exactly three behaviours differ on purpose:

1. **Malformed literals.**  A numeric or character literal the old
   parser's ``int()`` / ``float()`` / ``ord()`` crashed on (``0x``,
   ``1.0u``, ``'ab'``) is a ``LexError`` at the literal.
2. **Pragma line.**  A continued ``#pragma`` carries the line of its
   ``#``; the oracle gave it the line of its last physical line.
3. **Newline in a literal.**  A string or character literal holding a
   newline, raw or after a backslash, is ``unterminated literal`` at the
   opening quote; the oracle swallowed it without advancing ``line``.

The Fortran table is held to ``oracle_tokenize_fortran`` the same way.
Its ``col`` is checked as a relation: the oracle's pointed at the blanks
before a token, the scanner's points at the token.  One more behaviour
differs on purpose there: the oracle dropped a real literal's kind, the
scanner spells a default-kind one with C's ``f`` suffix (``1.0`` ->
``1.0f``, ``1.0d0`` -> ``1.0e0``), so the C type is kept.
"""

import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.frontend.fortran import FortranError
from repro.frontend.lexer import (
    C_TABLE,
    CHAR_LIT,
    FLOAT_LIT,
    FORTRAN_TABLE,
    INT_LIT,
    KEYWORDS,
    PRAGMA,
    STRING_LIT,
    LexError,
    tokenize,
)
from tests.lexer_oracle import (
    _PUNCTUATORS,
    oracle_tokenize,
    oracle_tokenize_fortran,
)
from tests.test_frontend_golden import token_rows as rows
from tests.test_fuzz_programs import _SETTINGS, _case_seed

_LEX_SETTINGS = dict(_SETTINGS, max_examples=1500)

#: Messages of the errors the scanner raises where the oracle did not.
MALFORMED = {C_TABLE.errors[g] for g in ("nodigits", "badsuffix", "badchar")}
NEWLINE_IN_LITERAL = C_TABLE.errors["badliteral"]

ATOMS = st.one_of(
    st.sampled_from(["x", "i", "foo_bar2", "_t", "e", "f", "u", "x1F", "ét"]),
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(_PUNCTUATORS),
    st.sampled_from(["0", "42", "007", "42u", "42UL", "1l", "0x1F", "0Xabcu",
                     "0x", "0xg", "0xu", "0x1uf"]),
    st.sampled_from(["3.25", "1.", ".5", "1e10", "2.5e-3", "1E+4", "1.e5",
                     "1.5f", "1f", "1lf", "1.0L", "1e", "1e+", "1.0u",
                     "1.5fu", "1uf", "1e5U", "1fu"]),
    st.sampled_from(['"hi there"', '"a\\"b"', '"\\\\"', '""', "'x'", "'\\n'",
                     "'\\\\'", "'\\0'", "'ab'", "''", "'\\x41'", "'\\''",
                     '"a\nb"', '"a\\\nb"', "'\n'", '"abc', "'", '"']),
    st.sampled_from(["// c", "//", "/* c */", "/* a\nb */", "/**/", "/*", "*/"]),
    st.sampled_from(["#pragma acc loop gang", "#include <a.h>", "#define N 1",
                     "#pragma acc data \\", "# pragma omp for \\ ",
                     "#pragmatic", "#", "\\", "\\ \\"]),
    st.sampled_from(["$", "@", "`", "\\", "\f", "€"]),
)
BLANKS = st.sampled_from(["", "", " ", "  ", "\t", "\r", "\n", "\n\n", " \n "])


@st.composite
def c_text(draw):
    pieces = draw(st.lists(st.tuples(ATOMS, BLANKS), max_size=14))
    return "".join(atom + blank for atom, blank in pieces)


RAW_C = st.text(alphabet="019xXuUlLfFeE.+-\"'\\\n /*#ab_;<=>&|", max_size=24)


def outcome(scan, text):
    try:
        return rows(scan(text))
    except LexError as exc:
        return (str(exc), exc.line, exc.col)


def old_parser_reads(row) -> bool:
    """Whether ``parse_primary`` at 59bfbe5 could convert this literal."""
    kind, value = row[:2]
    try:
        if kind == INT_LIT:
            text = value.rstrip("uUlL")
            int(text, 16) if text.lower().startswith("0x") else int(text)
        elif kind == FLOAT_LIT:
            float(value.rstrip("fFlL"))
        elif kind == CHAR_LIT:
            body = value[1:-1]
            ord({"\\n": "\n", "\\t": "\t", "\\0": "\0",
                 "\\\\": "\\"}.get(body, body))
    except (ValueError, TypeError):
        return False
    return True


def offset_of(text, line, col) -> int:
    return sum(len(ln) + 1 for ln in text.split("\n")[:line - 1]) + col - 1


def check_c(text):
    new = outcome(tokenize, text)
    if isinstance(new, tuple) and new[0].split(": ", 1)[1] in (
            MALFORMED | {NEWLINE_IN_LITERAL}):
        # Changes 1 and 3: everything before the literal scans as it did,
        # and the oracle read a literal there that the change rejects.
        message = new[0].split(": ", 1)[1]
        offset = offset_of(text, *new[1:])
        check_c(text[:offset])
        rest = text[offset:]
        old = outcome(oracle_tokenize, rest)
        if isinstance(old, tuple) and old[1:] != (1, 1):
            # The oracle stopped further on (where, it may no longer know:
            # change 3).  The longest prefix it reads shows the literal.
            old = next(o for k in range(len(rest) - 1, 0, -1) if isinstance(
                o := outcome(oracle_tokenize, rest[:k]), list))
        if isinstance(old, tuple):  # the oracle rejected it too
            assert message == NEWLINE_IN_LITERAL
            assert old == (f"lex error at 1:1: {message}", 1, 1)
        elif message == NEWLINE_IN_LITERAL:
            assert old[0][0] in (STRING_LIT, CHAR_LIT) and "\n" in old[0][1]
        else:
            assert "\n" not in old[0][1] and not old_parser_reads(old[0])
        return
    old = outcome(oracle_tokenize, text)
    if isinstance(new, list) and isinstance(old, list):
        lines = text.split("\n")
        assert len(new) == len(old)
        for i, (got, want) in enumerate(zip(new, old)):
            if got[0] == PRAGMA and got != want:
                # Change 2: same token, earlier, at the line of a '#'
                # that ends in a continuation.
                assert got[:2] + got[3:] == want[:2] + want[3:]
                assert got[2] < want[2]
                assert lines[got[2] - 1][got[3] - 1] == "#"
                assert lines[got[2] - 1].rstrip().endswith("\\")
                old[i] = got
        # No literal the changes reject slipped through as a token.
        assert all(old_parser_reads(row) and
                   not (row[0] in (STRING_LIT, CHAR_LIT) and "\n" in row[1])
                   for row in new)
    assert new == old


@seed(_case_seed("lexer_oracle_c_atoms"))
@settings(**_LEX_SETTINGS)
@given(c_text())
def test_c_table_matches_oracle_on_token_alphabet(text):
    check_c(text)


@seed(_case_seed("lexer_oracle_c_raw"))
@settings(**_LEX_SETTINGS)
@given(RAW_C)
def test_c_table_matches_oracle_on_raw_characters(text):
    check_c(text)


@pytest.mark.parametrize("text", [
    "x // c", "x #include <a>", "x /* a\nb */", "x  ", "#pragma acc loop",
    "#pragma a \\\n b \\", "#pragma a \\ \\\n\n y", "0x1.5", "1.5.3", "1..2",
    "a+++b", "a<<=b>>=c...d", "x\r\n y", "/* a */ /* b\n */ z //", "0xe+1",
])
def test_c_table_matches_oracle_on_known_corners(text):
    check_c(text)


# -- Fortran -------------------------------------------------------------------

FORTRAN_ATOMS = st.one_of(
    st.sampled_from(["x", "natoms", "_t", "e", "d", "D0", "real"]),
    st.sampled_from(["0", "42", "1_8", "3_dp", "1.0", "1.", ".5", "1.0d0",
                     "2.5E-3", "1d+4", "1.e3_dp", "4e", "1.0_8"]),
    st.sampled_from([".and.", ".OR.", ".not.", ".eq.", ".Ne.", ".lt.", ".le.",
                     ".gt.", ".ge.", ".true.", ".FALSE.", ".", ".and"]),
    st.sampled_from(["**", "==", "/=", "<=", ">=", "<", ">", "-", "+", "*",
                     "/", "(", ")", ",", "=", ":"]),
    st.sampled_from(["$", "%", "!", "&", "'", "[", "é"]),
)
FORTRAN_BLANKS = st.sampled_from(["", "", " ", "  ", "\t", " \t "])


@st.composite
def fortran_text(draw):
    pieces = draw(st.lists(st.tuples(FORTRAN_ATOMS, FORTRAN_BLANKS),
                           max_size=12))
    return draw(FORTRAN_BLANKS) + "".join(a + b for a, b in pieces)


@seed(_case_seed("lexer_oracle_fortran"))
@settings(**_LEX_SETTINGS)
@given(fortran_text(), st.integers(1, 400))
def test_fortran_table_matches_oracle(text, line):
    try:
        old = rows(oracle_tokenize_fortran(text, line))
    except FortranError as exc:
        # The oracle quoted the rest of the text from the blanks on; the
        # scanner points at the character it cannot read.
        with pytest.raises(LexError) as caught:
            tokenize(text, line, FORTRAN_TABLE)
        assert caught.value.line == exc.line == line
        assert not text[caught.value.col - 1].isspace()
        assert str(exc).endswith(repr(text[caught.value.col - 1:])[1:])
        return
    new = rows(tokenize(text, line, FORTRAN_TABLE))
    # The kind: an f suffix marks a default-kind real literal.
    for got in new:
        if got[0] == FLOAT_LIT:
            kind = re.match(r"[\d.]+(?:[edED][+-]?\d+)?(?:_(\w+))?",
                            text[got[3] - 1:])
            default = "d" not in kind[0].lower() and \
                (kind[1] or "4").lower() in ("4", "sp", "real32")
            assert got[1].endswith("f") == default, (got, kind[0])
    new = [(k, v.removesuffix("f") if k == FLOAT_LIT else v, *rest)
           for k, v, *rest in new]
    assert [r[:3] for r in new] == [r[:3] for r in old]
    assert new[-1] == old[-1]  # EOF: one past the text
    for got, want in zip(new[:-1], old[:-1]):
        blanks = text[want[3] - 1:got[3] - 1]
        assert blanks.strip() == "" and not text[got[3] - 1].isspace()
