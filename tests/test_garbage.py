"""No public call leaves a reference cycle: with the cyclic collector
off, reference counting frees everything a call made, also when the
call raises."""

import gc
import json
import random

import pytest

from setlam import (
    Fuel, InvalidDerivation, NotSNWithinFuel, ParseError, W, check_curry,
    complete_development, decorate, derivation_from_json, derivation_to_json,
    erase_derivation, infer_sn, measure_report, minimal_context, parse_term,
    parse_untyped, random_parallel_reduct,
)
from setlam.derivation import canonical_derivation

import corpus

UNIFORM = parse_term("(\\x:{a -> a}. x^(a -> a) {z^a}) {\\y:{a}. y^a}")
DERIVATION = erase_derivation(UNIFORM, minimal_context(UNIFORM))


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
}


@pytest.mark.parametrize("name", CALLS)
def test_a_public_call_leaves_nothing_for_the_cyclic_collector(name):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
