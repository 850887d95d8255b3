"""Malformed C input ends in a structured error (ROADMAP item 6, the
front end's malformed-input class, C half).

Hypothesis deletes, duplicates or swaps one lexeme of a bundled source
-- a word, a number, or one punctuation character, inside pragma lines
too -- and ``frontend.parse`` must either return a tree or raise
``LexError`` / ``ParseError`` / ``DirectiveError`` carrying the source
line.  Nothing else may escape: no bare ``ValueError`` from a literal,
no ``IndexError`` from running off the token list.
"""

import re

from hypothesis import given, seed, settings, strategies as st

from repro.frontend import DirectiveError, LexError, ParseError, parse
from tests.test_frontend_golden import C_SOURCES
from tests.test_fuzz_programs import _SETTINGS, _case_seed

LEXEMES = {name: re.findall(r"\w+|\s+|[^\w\s]", source)
           for name, source in C_SOURCES.items()}


@st.composite
def mutated_source(draw):
    lexemes = list(LEXEMES[draw(st.sampled_from(sorted(LEXEMES)))])
    solid = [i for i, text in enumerate(lexemes) if not text.isspace()]
    at = draw(st.integers(0, len(solid) - 2))
    i, j = solid[at], solid[at + 1]
    edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    if edit == "delete":
        del lexemes[i]
    elif edit == "duplicate":
        lexemes.insert(i, lexemes[i] + " ")
    else:
        lexemes[i], lexemes[j] = lexemes[j], lexemes[i]
    return "".join(lexemes)


@seed(_case_seed("frontend_malformed_c"))
@settings(**dict(_SETTINGS, max_examples=600))
@given(mutated_source())
def test_one_token_edit_parses_or_raises_a_located_error(source):
    try:
        parse(source)
    except (LexError, ParseError, DirectiveError) as exc:
        assert exc.line >= 1
