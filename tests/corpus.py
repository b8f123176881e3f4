"""Deterministic corpus of typable terms for the property suites.

Random untyped terms of bounded size are generated from fixed seeds,
filtered to the strongly normalizing ones by exhaustive beta-graph
exploration, and decorated by the SN-structure inference.  The worked
fixtures below are always included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from setlam import (
    Fuel, InferredTyping, MemTerm, TypingContext, UApp, UBoundVar, ULam,
    UntypedTerm, UVar, infer_sn, is_sn, minimal_context, parse_term,
    parse_untyped, synthesize_type,
)

SN_FUEL = Fuel(max_nodes=600, max_depth=200)
INFER_FUEL = Fuel(max_nodes=20_000, max_depth=20_000)

FREE_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class Entry:
    untyped: UntypedTerm | None
    term: MemTerm
    context: TypingContext


def random_untyped(rng: random.Random, size: int, depth: int = 0) -> UntypedTerm:
    if size <= 1:
        if depth and rng.random() < 0.6:
            return UBoundVar(rng.randrange(depth))
        return UVar(rng.choice(FREE_NAMES))
    if size >= 5 and rng.random() < 0.2:
        # applied duplicator: decorates into a multi-element argument set
        duplicator = ULam(rng.choice(FREE_NAMES), UApp(UBoundVar(0), UBoundVar(0)))
        return UApp(duplicator, random_untyped(rng, size - 4, depth))
    if size >= 3 and rng.random() < 0.45:
        left = rng.randint(1, size - 2)
        return UApp(random_untyped(rng, left, depth),
                    random_untyped(rng, size - 1 - left, depth))
    return ULam(rng.choice(FREE_NAMES), random_untyped(rng, size - 1, depth + 1))


def generate_sn_samples(count: int, seed: int = 0, max_size: int = 12
                        ) -> list[tuple[UntypedTerm, InferredTyping]]:
    """`count` strongly normalizing untyped terms with their inferred typings."""
    rng = random.Random(seed)
    samples: list[tuple[UntypedTerm, InferredTyping]] = []
    seen: set[UntypedTerm] = set()
    while len(samples) < count:
        m = random_untyped(rng, rng.randint(2, max_size))
        if m in seen:
            continue
        seen.add(m)
        if is_sn(m, SN_FUEL) != "yes":
            continue
        samples.append((m, infer_sn(m, INFER_FUEL)))
    return samples


# Worked fixtures.  The two-step wrapper examples, the figure's
# self-application start term (with A = a -> a and its three
# identities), and the duplicated-argument example (A = b -> b).

GOLDEN_ERASING = "(\\x:{a}.y^b) {(\\x:{b}.z^a) w^b}"
GOLDEN_SWAP = "((\\x:{a}.\\y:{b}.x^a) z^a) w^b"

IDENT_A = "\\x:{a}. x^a"
IDENT_AA = "\\x:{a -> a}. x^(a -> a)"
IDENT_AAA = "\\x:{(a -> a) -> a -> a}. x^((a -> a) -> a -> a)"
FIGURE_START = (
    "(\\x:{(a -> a) -> a -> a, a -> a}. x^((a -> a) -> a -> a) {x^(a -> a)})"
    f" {{({IDENT_AAA}) {{{IDENT_AA}}}, ({IDENT_AA}) {{{IDENT_A}}}}}"
)
FIGURE_NORMAL_FORM = (
    f"({IDENT_A}) [{IDENT_A}] [({IDENT_A}) [{IDENT_A}]] [{IDENT_AA}]"
    f" [({IDENT_AA}) [{IDENT_AA}], ({IDENT_A}) [{IDENT_A}]]"
)

_I_B = "\\u:{b}. u^b"
_I_BB = "\\u:{b -> b}. u^(b -> b)"
_II_B = f"(\\u:{{b -> b}}. u^(b -> b)) {{{_I_B}}}"
_II_BB = f"(\\u:{{(b -> b) -> b -> b}}. u^((b -> b) -> b -> b)) {{{_I_BB}}}"
DUPLICATING = (
    "(\\x:{(b -> b) -> b -> b, b -> b}. x^((b -> b) -> b -> b) {x^(b -> b)})"
    f" {{{_II_BB}, {_II_B}}}"
)
DUPLICATING_AFTER_ARG = (
    "(\\x:{(b -> b) -> b -> b, b -> b}. x^((b -> b) -> b -> b) {x^(b -> b)})"
    f" {{{_I_BB}, {_I_B}}}"
)

SELF_APPLICATION = "\\x:{{a,b}->c, a, b}. x^({a,b}->c) {x^a, x^b}"

WORKED_TERMS = [
    GOLDEN_ERASING,
    GOLDEN_SWAP,
    FIGURE_START,
    DUPLICATING,
    DUPLICATING_AFTER_ARG,
    SELF_APPLICATION,
    f"({SELF_APPLICATION}) {{y^({{a,b}}->c), y^a, y^b}}",
    "(\\x:{a}.x^a) {y^a}",
    "x^({a,b}->c) {x^a, x^b}",
]


def church(k: int) -> str:
    """The text of the untyped Church numeral k."""
    body = "x"
    for i in range(k):
        body = f"f {body}" if i == 0 else f"f ({body})"
    return f"(\\f. \\x. {body})"


def church_application(m: int, n: int) -> UntypedTerm:
    """The untyped Church application ``m n y z``; it reduces to y applied
    n^m times to z."""
    return parse_untyped(f"{church(m)} {church(n)} y z")


def build_corpus(generated: int = 200, seed: int = 1) -> list[Entry]:
    entries = [
        Entry(None, term, minimal_context(term))
        for term in map(parse_term, WORKED_TERMS)
    ]
    for m, inferred in generate_sn_samples(generated, seed=seed):
        entries.append(Entry(m, inferred.term, inferred.context))
    for entry in entries:
        synthesize_type(entry.term)  # corpus terms are typable by construction
    return entries
