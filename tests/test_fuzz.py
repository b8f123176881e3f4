"""Fuzzing the readers of text: the parsers raise only ParseError, and
the command line ends every term file with an exit code of 0 to 4."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import corpus
from setlam import parse_set_type, parse_term, parse_type, parse_untyped
from setlam.cli import main
from setlam.errors import ParseError

PARSERS = [parse_term, parse_untyped, parse_type, parse_set_type]
# Every character the grammar uses, one letter it refuses, and line breaks.
ALPHABET = "abxyz0_'\\.:,^(){}[]-> \t\r\nA"
FIXTURES = [*corpus.WORKED_TERMS, corpus.IDENT_AAA, "\\x. x x", "(\\x. x) y z",
            "{a, b -> c} -> d"]


@st.composite
def mutated(draw):
    """A fixture text with up to four characters deleted, inserted or swapped."""
    text = list(draw(st.sampled_from(FIXTURES)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "swap"]))
        if edit == "insert" or not text:
            text.insert(at, draw(st.sampled_from(ALPHABET)))
        elif edit == "delete":
            del text[min(at, len(text) - 1)]
        else:
            other = draw(st.integers(0, len(text) - 1))
            at = min(at, len(text) - 1)
            text[at], text[other] = text[other], text[at]
    return "".join(text)


@st.composite
def nested(draw):
    """Brackets nested thousands deep around an atom, possibly unbalanced."""
    depth = draw(st.integers(1, 5_000))
    opening = draw(st.sampled_from(["(", "{", "[", "(\\x:{a}. "]))
    closing = {"(": ")", "{": "}", "[": "]"}.get(opening[0], "")
    atom = draw(st.sampled_from(["x^a", "x", "a", "a -> a", "y^a {x^a}"]))
    return opening * depth + atom + closing * draw(st.sampled_from([depth, depth - 1, 0]))


def _parse_or_refuse(text: str) -> None:
    for parser in PARSERS:
        try:
            parser(text)
        except ParseError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_parsers_raise_only_parse_errors_on_the_alphabet(text):
    _parse_or_refuse(text)


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_parsers_raise_only_parse_errors_on_mutated_fixtures(text):
    _parse_or_refuse(text)


@settings(max_examples=30, deadline=None)
@given(nested())
def test_parsers_raise_only_parse_errors_on_deep_brackets(text):
    _parse_or_refuse(text)


# Every command that reads a term file, with budgets that keep each run short.
COMMANDS = [
    ["check"], ["erase"], ["measure"],
    ["normalize", "--calculus=i", "--fuel=50"], ["normalize", "--fuel=50"],
    ["reduce", "--steps=3"], ["reduce", "--calculus=im", "--strategy=random", "--steps=3"],
    ["chains", "--fuel=50"], ["graph", "--fuel=50"], ["graph", "--calculus=im", "--fuel=50"],
    ["graph", "--calculus=beta", "--fuel=50"], ["infer-sn", "--fuel=200"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv))
def test_cli_exits_0_to_4_on_mutated_fixtures(argv, tmp_path):
    path = tmp_path / "input.txt"

    @settings(max_examples=40, deadline=None)
    @given(mutated())
    def exits_0_to_4(text):
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        assert 0 <= code <= 4, err.getvalue()
        assert "internal error" not in err.getvalue()

    exits_0_to_4()
