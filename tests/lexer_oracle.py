"""Reference tokenizers: the character-at-a-time C lexer and the Fortran
expression tokenizer as they stood at ``59bfbe5``, verbatim.

``repro.frontend.lexer`` replaced both by one table-driven scanner;
these stay in the test tree as the differential oracle of
``tests/test_lexer_oracle.py`` (the precedent is ``tests/dirty_oracle.py``
and ``tests/host_oracle.py``).  Do not fix anything here: the three
behaviours the scanner changed on purpose are named in the test.
"""

from __future__ import annotations

import re

from repro.frontend.fortran import FortranError
from repro.frontend.lexer import (
    CHAR_LIT,
    EOF,
    FLOAT_LIT,
    ID,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    PRAGMA,
    PUNCT,
    STRING_LIT,
    LexError,
    Token,
)

# Longest-match-first operator table.
_PUNCTUATORS = sorted(
    [
        "...", "<<=", ">>=",
        "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
        "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
        "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
    ],
    key=len,
    reverse=True,
)



def oracle_tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; returns tokens ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> LexError:
        return LexError(msg, line, col)

    while i < n:
        c = source[i]

        # Newlines / whitespace.
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue

        # Comments.
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise error("unterminated block comment")
            skipped = source[i : j + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = j + 2
            continue

        # Preprocessor lines: only #pragma is meaningful; #include/#define
        # of the subset's headers are ignored.
        if c == "#":
            j = source.find("\n", i)
            if j < 0:
                j = n
            text = source[i:j]
            # Line continuations in pragmas.
            while text.rstrip().endswith("\\") and j < n:
                k = source.find("\n", j + 1)
                if k < 0:
                    k = n
                text = text.rstrip().rstrip("\\") + " " + source[j + 1 : k]
                line += 1
                j = k
            stripped = text[1:].strip()
            if stripped.startswith("pragma"):
                body = stripped[len("pragma") :].strip()
                tokens.append(Token(PRAGMA, body, line, col))
            # #include / #define etc. are silently dropped (host headers).
            i = j
            continue

        # Identifiers / keywords.
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = KEYWORD if word in KEYWORDS else ID
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue

        # Numbers.
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            if source.startswith(("0x", "0X"), i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
            else:
                while j < n and source[j].isdigit():
                    j += 1
                if j < n and source[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and source[j].isdigit():
                        j += 1
                if j < n and source[j] in "eE":
                    k = j + 1
                    if k < n and source[k] in "+-":
                        k += 1
                    if k < n and source[k].isdigit():
                        is_float = True
                        j = k
                        while j < n and source[j].isdigit():
                            j += 1
            # Suffixes.
            while j < n and source[j] in "uUlLfF":
                if source[j] in "fF":
                    is_float = True
                j += 1
            text = source[i:j]
            tokens.append(Token(FLOAT_LIT if is_float else INT_LIT, text, line, col))
            col += j - i
            i = j
            continue

        # String / char literals.
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise error("unterminated literal")
            text = source[i : j + 1]
            kind = STRING_LIT if quote == '"' else CHAR_LIT
            tokens.append(Token(kind, text, line, col))
            col += j + 1 - i
            i = j + 1
            continue

        # Punctuators.
        for p in _PUNCTUATORS:
            if source.startswith(p, i):
                tokens.append(Token(PUNCT, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise error(f"unexpected character {c!r}")

    tokens.append(Token(EOF, "", line, col))
    return tokens


# -- Fortran expression text ------------------------------------------------

_DOT_OPS = {
    ".and.": "&&", ".or.": "||",
    ".eq.": "==", ".ne.": "!=", ".lt.": "<", ".le.": "<=",
    ".gt.": ">", ".ge.": ">=",
}

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<dotop>\.(?:and|or|not|eq|ne|lt|le|gt|ge|true|false)\.)"
    r"|(?P<float>(?:\d+\.\d*|\.\d+|\d+)(?:[edED][+-]?\d+)(?:_\w+)?"
    r"|\d+\.\d*(?:_\w+)?|\.\d+(?:_\w+)?)"
    r"|(?P<int>\d+(?:_\w+)?)"
    r"|(?P<id>[A-Za-z_]\w*)"
    r"|(?P<op>\*\*|==|/=|<=|>=|<|>|[-+*/(),=:])"
    r")", re.IGNORECASE)


def oracle_tokenize_fortran(text: str, line: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise FortranError(f"cannot tokenize {text[pos:]!r}", line)
        pos = m.end()
        if m.group("dotop"):
            word = m.group("dotop").lower()
            if word == ".true.":
                tokens.append(Token(INT_LIT, "1", line, m.start() + 1))
            elif word == ".false.":
                tokens.append(Token(INT_LIT, "0", line, m.start() + 1))
            elif word == ".not.":
                tokens.append(Token(PUNCT, "!", line, m.start() + 1))
            else:
                tokens.append(Token(PUNCT, _DOT_OPS[word], line,
                                    m.start() + 1))
        elif m.group("float"):
            text_f = m.group("float").split("_")[0]
            text_f = text_f.replace("d", "e").replace("D", "e")
            tokens.append(Token(FLOAT_LIT, text_f, line, m.start() + 1))
        elif m.group("int"):
            tokens.append(Token(INT_LIT, m.group("int").split("_")[0],
                                line, m.start() + 1))
        elif m.group("id"):
            tokens.append(Token(ID, m.group("id"), line, m.start() + 1))
        else:
            op = m.group("op")
            if op == "/=":
                op = "!="
            tokens.append(Token(PUNCT, op, line, m.start() + 1))
    tokens.append(Token(EOF, "", line, len(text) + 1))
    return tokens
