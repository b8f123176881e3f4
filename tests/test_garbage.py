"""No public call leaves a reference cycle: with the cyclic collector
off, reference counting frees everything a call made, also when the
call raises.  So pausing the collector inside a call (`explore`, the
graph exports, `cli.main`) leaves it nothing to free later, but for the
cycles the standard library leaves in `cli.main`: its argument parser
and, where a command writes JSON, the indenting encoder."""

import gc
import json
import random

import pytest

from setlam import (
    Fuel, FuelExhausted, InvalidDerivation, NotSNWithinFuel, ParseError, W, check_curry,
    complete_development, decorate, derivation_from_json, derivation_to_json,
    erase_derivation, explore, graph_to_dot, graph_to_json_dict, infer_sn, is_sn,
    longest_chain, measure_report, minimal_context, parse_term, parse_untyped,
    random_parallel_reduct,
)
from setlam import cli
from setlam.derivation import canonical_derivation

import corpus

UNIFORM = parse_term("(\\x:{a -> a}. x^(a -> a) {z^a}) {\\y:{a}. y^a}")
DERIVATION = erase_derivation(UNIFORM, minimal_context(UNIFORM))
GROWING = parse_untyped("(\\x. x x) (\\x. \\x0. x x)")  # an endless beta chain


def _raises(error, call, *args):
    with pytest.raises(error):
        call(*args)


CALLS = {
    "W": lambda: W(parse_term(corpus.FIGURE_START)),
    "measure_report": lambda: measure_report(parse_term(corpus.FIGURE_START)),
    "complete_development": lambda: complete_development(parse_term(corpus.FIGURE_START)),
    "random_parallel_reduct": lambda: random_parallel_reduct(parse_term(corpus.FIGURE_START),
                                                             random.Random(1)),
    "infer_sn": lambda: infer_sn(parse_untyped("(\\x. x x) (\\y. y) z")),
    "infer_sn out of fuel": lambda: _raises(
        NotSNWithinFuel, infer_sn, parse_untyped("(\\x. x x) (\\x. x x)"),
        Fuel(max_nodes=200, max_depth=200)),
    "derivation_from_json": lambda: derivation_from_json(
        json.dumps(derivation_to_json(DERIVATION))),
    "derivation_from_json invalid": lambda: _raises(
        InvalidDerivation, derivation_from_json, '{"rule": "var", "ctx": [], "term": "x"}'),
    "derivation_to_json": lambda: derivation_to_json(DERIVATION),
    "canonical_derivation": lambda: canonical_derivation(DERIVATION),
    "erase_derivation": lambda: erase_derivation(UNIFORM, minimal_context(UNIFORM)),
    "check_curry": lambda: check_curry(DERIVATION),
    "decorate": lambda: decorate(DERIVATION),
    "parse_term": lambda: parse_term("\\x:{a -> a}. x^(a -> a) {y^(a -> a) z^a}"),
    "parse_term invalid": lambda: _raises(ParseError, parse_term, "\\x:{a}. x^(a -> a"),
    "explore beta truncated": lambda: explore(GROWING, "beta", Fuel(max_nodes=50, max_depth=50)),
    "explore i": lambda: explore(parse_term(corpus.FIGURE_START), "i"),
    "explore im": lambda: explore(parse_term(corpus.FIGURE_START), "im"),
    "longest_chain": lambda: longest_chain(parse_term(corpus.FIGURE_START), "im"),
    "longest_chain truncated": lambda: _raises(
        FuelExhausted, longest_chain, GROWING, "beta", Fuel(max_nodes=50, max_depth=50)),
    "is_sn": lambda: is_sn(parse_untyped("(\\x. x x) (\\y. y) z")),
    "graph_to_json_dict": lambda: graph_to_json_dict(explore(parse_term(corpus.FIGURE_START), "i")),
    "graph_to_dot": lambda: graph_to_dot(explore(parse_term(corpus.FIGURE_START), "im")),
}


def _garbage(call) -> int:
    """The objects the cyclic collector finds after call, made with the
    collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", CALLS)
def test_a_public_call_leaves_nothing_for_the_cyclic_collector(name):
    assert _garbage(CALLS[name]) == 0


def test_a_graph_command_leaves_only_its_argument_parser_for_the_collector(tmp_path, capsys):
    # argparse's parsers and the help formatters they build hold
    # reference cycles; the command itself may leave none.
    path = tmp_path / "t.term"
    path.write_text(corpus.FIGURE_START, encoding="utf-8")
    argv = ["graph", str(path), "--calculus=im", "--format=dot"]
    assert cli.main(argv) == 0  # loads the modules the command runs
    parser = _garbage(lambda: cli._build_parser("graph").parse_args(argv))
    assert parser > 0
    assert _garbage(lambda: cli.main(argv)) == parser
    assert capsys.readouterr().out.count("digraph") == 2
