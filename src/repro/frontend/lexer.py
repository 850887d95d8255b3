"""The token layer of the front end: one scanner, two tables, one cursor.

:func:`tokenize` is the only token loop in ``src/``.  It steps one
compiled master regex per language over the text and dispatches on
``Match.lastgroup``; what a group means is the :class:`Table`'s:

* :data:`C_TABLE` -- the C subset.  Line-aware only where C requires it:
  a ``#pragma`` line becomes one :data:`PRAGMA` token (the text after the
  word ``pragma``, continuations joined, at the line of its ``#``) for
  the directive parser to scan with ``tokenize(text, line)``; other
  preprocessor lines and comments are dropped.  A literal that ``int()``
  / ``float()`` / ``ord()`` could not read is a :class:`LexError` here.
* :data:`FORTRAN_TABLE` -- Fortran expression text, respelled as C
  tokens (``.and.`` is ``&&``, ``/=`` is ``!=``, ``1.0d0`` is ``1.0e0``),
  so one expression parser serves both languages.

Tokens carry ``line``/``col``; every error of the front end points back
at the source.  :class:`Cursor` is the one way the three parsers (C,
directive clauses, Fortran expressions) walk a token list.
"""

from __future__ import annotations

import re
from typing import Callable

# Token kinds.
ID = "id"
KEYWORD = "keyword"
INT_LIT = "int"
FLOAT_LIT = "float"
STRING_LIT = "string"
CHAR_LIT = "char"
PUNCT = "punct"
PRAGMA = "pragma"
EOF = "eof"

KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default", "do",
        "double", "else", "enum", "extern", "float", "for", "goto", "if",
        "inline", "int", "long", "register", "restrict", "return", "short",
        "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while",
    }
)

#: The escapes a character constant may hold, and the character each is.
CHAR_ESCAPES = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\\\": "\\"}


class LexError(SyntaxError):
    """Raised on malformed input, with line/column context."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"lex error at {line}:{col}: {message}")
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self) -> str:  # compact for test failure output
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


class Table:
    """One language's token classes.

    ``pattern`` is an alternation of named groups, tried at each position
    after the blanks.  A group is, in the order :func:`tokenize` asks: a
    key of ``kinds`` (a token of that kind whose value is the matched
    text; an :data:`ID` in ``keywords`` is a :data:`KEYWORD`);
    ``newline`` / ``comment`` / ``linecomment`` / ``directive`` (layout,
    no token); a key of ``respell`` (text -> ``(kind, value)``); or a key
    of ``errors`` (the message of the :class:`LexError` to raise there).
    """

    def __init__(self, pattern: str, *, blanks: str | None, flags: int = 0,
                 kinds: dict[str, str], keywords: frozenset[str] = frozenset(),
                 respell: dict[str, Callable[[str], tuple[str, str]]]
                 | None = None,
                 errors: dict[str, str] | None = None) -> None:
        skip = r"\s*" if blanks is None else f"[{re.escape(blanks)}]*"
        self.match = re.compile(f"{skip}(?:{pattern})", flags).match
        self.blanks = blanks
        self.kinds = kinds
        self.keywords = keywords
        self.respell = respell or {}
        self.errors = errors or {}


# -- the C table -------------------------------------------------------------

# Numeric literals end where the suffix run [uUlLfF]* ends.  A run the
# parser's int()/float() could not drop is malformed: the first two
# alternatives are a float with an integer suffix, the third an integer
# with both, the fourth a hex literal with an f after its suffix.
_FLOAT = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
_BAD_SUFFIX = (rf"(?:{_FLOAT})[fFlL]*[uU][uUlLfF]*"
               r"|\d+[lL]*(?:[uU][uUlL]*[fF]|[fF][fFlL]*[uU])[uUlLfF]*"
               r"|0[xX][0-9a-fA-F]+[uUlL]+[fF][uUlLfF]*")
# A literal holds no newline, raw or escaped: C ends it at the line's end.
_LITERAL = r"{q}(?:[^{q}\\\n]|\\[^\n])*{q}"
_ESCAPE = "|".join(map(re.escape, CHAR_ESCAPES))

C_TABLE = Table(
    r"(?P<id>[^\W\d]\w*)"
    # Before the numbers and comments it could be the start of, hence
    # the lookaheads; singles first, then longest match first.
    r"|(?P<punct>[()\[\]{};,?:~]|\.\.\.|\.(?!\d)|<<=|>>=|->|\+\+|--|&&|\|\|"
    r"|<<|>>|/(?![/*])=?|[-+*%&|^<>=!]=?)"
    r"|(?P<newline>\n)"
    r"|(?P<nodigits>0[xX](?![0-9a-fA-F])[uUlLfF]*)"
    rf"|(?P<badsuffix>{_BAD_SUFFIX})"
    rf"|(?P<float>(?:{_FLOAT})[fFlL]*|\d+[lL]*[fF][fFlL]*)"
    r"|(?P<int>0[xX][0-9a-fA-F]+[uUlL]*|\d+[uUlL]*)"
    r"|(?P<linecomment>//[^\n]*)"
    r"|(?P<comment>/\*[\s\S]*?\*/)"
    r"|(?P<badcomment>/\*)"
    r"|(?P<directive>\#)"
    rf"|(?P<string>{_LITERAL.format(q=chr(34))})"
    rf"|(?P<char>'(?:[^'\\\n]|{_ESCAPE})')"
    rf"|(?P<badchar>{_LITERAL.format(q=chr(39))})"
    r"|(?P<badliteral>[\"'])",
    blanks=" \t\r",
    kinds={"id": ID, "punct": PUNCT, "int": INT_LIT, "float": FLOAT_LIT,
           "string": STRING_LIT, "char": CHAR_LIT},
    keywords=KEYWORDS,
    errors={
        "nodigits": "hexadecimal prefix without digits",
        "badsuffix": "integer suffix on a floating literal",
        "badcomment": "unterminated block comment",
        "badchar": "character literal is not one character or a known "
                   "escape (" + " ".join(CHAR_ESCAPES) + ")",
        "badliteral": "unterminated literal",
    },
)


# -- the Fortran expression table ---------------------------------------------

_DOT_WORDS = {
    ".true.": (INT_LIT, "1"), ".false.": (INT_LIT, "0"), ".not.": (PUNCT, "!"),
    ".and.": (PUNCT, "&&"), ".or.": (PUNCT, "||"),
    ".eq.": (PUNCT, "=="), ".ne.": (PUNCT, "!="), ".lt.": (PUNCT, "<"),
    ".le.": (PUNCT, "<="), ".gt.": (PUNCT, ">"), ".ge.": (PUNCT, ">="),
}

FORTRAN_TABLE = Table(
    r"(?P<dotword>\.(?:and|or|not|eq|ne|lt|le|gt|ge|true|false)\.)"
    r"|(?P<float>(?:\d+\.\d*|\.\d+|\d+)(?:[edED][+-]?\d+)(?:_\w+)?"
    r"|\d+\.\d*(?:_\w+)?|\.\d+(?:_\w+)?)"
    r"|(?P<int>\d+(?:_\w+)?)"
    r"|(?P<id>[A-Za-z_]\w*)"
    r"|(?P<ne>/=)"
    r"|(?P<punct>\*\*|==|<=|>=|<|>|[-+*/(),=:])",
    blanks=None,
    flags=re.IGNORECASE,
    kinds={"id": ID, "punct": PUNCT},
    respell={
        "dotword": lambda text: _DOT_WORDS[text.lower()],
        # Kind suffixes (1.0_8) drop; a d exponent is C's e.
        "float": lambda text: (FLOAT_LIT, text.split("_")[0]
                               .replace("d", "e").replace("D", "e")),
        "int": lambda text: (INT_LIT, text.split("_")[0]),
        "ne": lambda text: (PUNCT, "!="),
    },
)


# -- the scanner ---------------------------------------------------------------


def tokenize(source: str, line: int = 1,
             table: Table = C_TABLE) -> list[Token]:
    """Tokenize ``source``, counting lines from ``line``; returns tokens
    ending with an EOF token."""
    match, kinds, keywords = table.match, table.kinds, table.keywords
    tokens: list[Token] = []
    append = tokens.append
    n = len(source)
    pos = bol = 0  # scan position; offset of the current line's first char
    eof = n        # where the EOF token's column is taken
    while True:
        m = match(source, pos)
        if m is None:
            break
        group = m.lastgroup
        pos = m.end()
        kind = kinds.get(group)
        if kind is not None:
            text = m[group]
            if kind == ID and text in keywords:
                kind = KEYWORD
            append(Token(kind, text, line, pos - len(text) - bol + 1))
            continue
        if group == "newline":
            line += 1
            bol = pos
            continue
        start = m.start(group)
        if group in table.respell:
            kind, text = table.respell[group](m[group])
            append(Token(kind, text, line, start - bol + 1))
        elif group == "comment":
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                bol = source.rfind("\n", start, pos) + 1
        elif group == "linecomment":
            if pos == n:  # its column is never passed: EOF reports it
                eof = start
        elif group == "directive":
            # Preprocessor line: only #pragma is meaningful; #include /
            # #define of the subset's headers are dropped (host headers).
            first = line
            pos = source.find("\n", start)
            if pos < 0:
                pos = n
            text = source[start:pos]
            while text.rstrip().endswith("\\") and pos < n:  # continuation
                end = source.find("\n", pos + 1)
                if end < 0:
                    end = n
                text = text.rstrip().rstrip("\\") + " " + source[pos + 1:end]
                line += 1
                pos = end
            text = text[1:].strip()
            if text.startswith("pragma"):
                append(Token(PRAGMA, text[len("pragma"):].strip(), first,
                             start - bol + 1))
            if pos == n:
                eof = start
        else:
            raise LexError(table.errors[group], line, start - bol + 1)
    rest = source[pos:].lstrip(table.blanks)
    if rest:
        raise LexError(f"unexpected character {rest[0]!r}", line,
                       n - len(rest) - bol + 1)
    tokens.append(Token(EOF, "", line, eof - bol + 1))
    return tokens


# -- the cursor ----------------------------------------------------------------


class Cursor:
    """A position in a token list; ``tok`` is the token under it.

    The list ends with an EOF token, which the cursor never passes.
    Subclasses say what a failed :meth:`expect` raises (:meth:`error`).
    """

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]

    def error(self, message: str) -> Exception:
        raise NotImplementedError

    def seek(self, pos: int) -> None:
        """Move to ``pos`` (a value of ``self.pos`` saved earlier)."""
        self.pos = pos
        self.tok = self.tokens[pos]

    def peek(self) -> Token:
        """The token after the current one (EOF if there is none)."""
        return self.tokens[min(self.pos + 1, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tok
        if tok.kind != EOF:
            self.pos = pos = self.pos + 1
            self.tok = self.tokens[pos]
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.tok
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.tok
        if tok.kind != kind or (value is not None and tok.value != value):
            return None
        if kind != EOF:
            self.pos = pos = self.pos + 1
            self.tok = self.tokens[pos]
        return tok

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.tok
        if tok.kind != kind or (value is not None and tok.value != value):
            raise self.error(f"expected {value if value is not None else kind!r}")
        if kind != EOF:
            self.pos = pos = self.pos + 1
            self.tok = self.tokens[pos]
        return tok
