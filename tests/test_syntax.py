"""Canonical sets, alpha-equality, positions, parse/print round trips."""

import operator
import os
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from setlam import (
    App, Arrow, Base, BoundVar, InvalidPosition, Lam, ParseError, SetTerm,
    SetType, TypingContext, UApp, UBoundVar, ULam, UVar, Var, Wrap, erase,
    parse, parse_set_type, parse_term, parse_type, parse_untyped, pretty,
    replace_at, subterm_at,
)
from setlam import naming, parsing, syntax
from setlam.binding import locally_closed, shift
from setlam.reduction import reducts
from setlam.syntax import _Node, positions, run, term_size, type_height

from deep import built, shape as deep_shape

a, b, c = Base("a"), Base("b"), Base("c")


# --- canonical sets ---------------------------------------------------------

def test_canonicalize_idempotent_intersection():
    assert SetType.of([a, a]) == SetType.of([a])


def test_canonicalize_commutative():
    assert SetType.of([b, a]) == SetType.of([a, b])


def test_canonicalize_terms_dedup():
    xa, xb = Var("x", a), Var("x", b)
    assert SetTerm.of([xa, xb, xa]) == SetTerm.of([xa, xb])


def test_constructors_insist_on_canonical_input():
    with pytest.raises(ValueError, match="^set-type elements must be strictly sorted$"):
        SetType((b, a))
    with pytest.raises(ValueError, match="^set-type elements must be strictly sorted$"):
        SetType((a, a))
    with pytest.raises(ValueError, match="^set-term elements must be strictly sorted$"):
        SetTerm((Var("y", a), Var("x", a)))
    for entries in [(("y", SetType((a,))), ("x", SetType((a,)))),
                    (("x", SetType((a,))), ("x", SetType((b,))))]:
        with pytest.raises(ValueError, match="^context entries must be sorted and unique$"):
            TypingContext(entries)


def test_wellformedness_invariants():
    with pytest.raises(ValueError, match="^arrow domain must be a non-empty set-type$"):
        Arrow(SetType(()), a)
    with pytest.raises(ValueError, match="^binder set-type must be non-empty$"):
        Lam("x", SetType(()), Var("y", a))
    with pytest.raises(ValueError, match="^application argument must be non-empty$"):
        App(Var("x", a), SetTerm(()))
    with pytest.raises(ValueError, match="^context entries must be non-empty set-types$"):
        TypingContext((("x", SetType(())),))


types_st = st.recursive(
    st.builds(Base, st.sampled_from(["a", "b", "c"])),
    lambda inner: st.builds(
        Arrow,
        st.builds(SetType.of, st.lists(inner, min_size=1, max_size=3)),
        inner,
    ),
    max_leaves=8,
)


@given(st.lists(types_st, min_size=1, max_size=6))
def test_canonicalize_insensitive_to_order_and_repetition(elements):
    once = SetType.of(elements)
    assert SetType.of(once.elements) == once  # idempotent
    assert SetType.of(reversed(elements)) == once
    assert SetType.of(elements + elements) == once


# --- alpha equality ---------------------------------------------------------

def test_alpha_eq_renaming():
    assert parse_term("\\x:{a}.x^a") == parse_term("\\y:{a}.y^a")


def test_alpha_eq_annotations_matter():
    assert parse_term("\\x:{a}.x^a") != parse_term("\\x:{b}.x^b")


def test_alpha_eq_vars():
    assert parse_term("x^a") == parse_term("x^a")
    assert parse_term("x^a") != parse_term("y^a")


def test_untyped_alpha():
    assert parse_untyped("\\x. x") == parse_untyped("\\y. y")
    assert parse_untyped("\\x. x y") != parse_untyped("\\y. y x")


# --- parsing golden ---------------------------------------------------------

def test_parse_simple_lambda():
    assert parse("\\x:{a}. x^a", "annotated") == Lam("x", SetType.of([a]), BoundVar(0, a))


def test_parse_self_application():
    t = parse("\\x:{{a,b}->c, a, b}. x^({a,b}->c) {x^a, x^b}", "annotated")
    arrow = Arrow(SetType.of([a, b]), c)
    expected = Lam(
        "x", SetType.of([arrow, a, b]),
        App(BoundVar(0, arrow), SetTerm.of([BoundVar(0, a), BoundVar(0, b)])))
    assert t == expected


def test_parse_wrappers():
    t = parse("y^b [z^a [w^b]]", "annotated")
    assert t == Wrap(Var("y", b), SetTerm.of([Wrap(Var("z", a), SetTerm.of([Var("w", b)]))]))


def test_parse_type_forms():
    assert parse_type("a -> a") == Arrow(SetType.of([a]), a)
    assert parse_type("a -> a -> a") == Arrow(SetType.of([a]), Arrow(SetType.of([a]), a))
    assert parse_type("(a -> b) -> c") == Arrow(SetType.of([Arrow(SetType.of([a]), b)]), c)
    assert parse_set_type("{a, b}") == SetType.of([a, b])
    assert parse_set_type("a -> b") == SetType.of([Arrow(SetType.of([a]), b)])


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse("\\x:{a}. x^", "annotated")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("x^a y^a)", "annotated")
    with pytest.raises(ParseError):
        parse("{a", "type")


def test_parse_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown parse kind 'bogus'$"):
        parse("x", "bogus")


def test_parse_accepts_noncanonical_sets():
    assert parse_term("x^({b,a,a} -> c)") == parse_term("x^({a,b} -> c)")


# --- printing golden --------------------------------------------------------

def test_print_var():
    assert pretty(Var("x", a)) == "x^a"


def test_print_singleton_application():
    t = App(Var("t", Arrow(SetType.of([a]), b)), SetTerm.of([Var("s", a)]))
    assert pretty(t) == "t^(a -> b) s^a"
    nested = App(Var("t", a), SetTerm.of([App(Var("u", a), SetTerm.of([Var("v", b)]))]))
    assert pretty(nested) == "t^a {u^a v^b}"


def test_print_singleton_arrow():
    assert pretty(Arrow(SetType.of([a]), a)) == "a -> a"


def test_print_lambda_parenthesized_in_function_position():
    t = parse_term("(\\x:{a}.x^a) {y^a}")
    assert pretty(t) == "(\\x:{a}. x^a) y^a"


def test_print_stores_each_types_text_once(monkeypatch):
    t = parse_term("\\x:{a -> b, {a, c} -> b}. x^(a -> b) {x^({a, c} -> b) {y^a, z^c}}")
    text = pretty(t)
    assert t.binder.text == "{a -> b, {a, c} -> b}" and t.body.fun.annot.text == "a -> b"
    domains = []
    monkeypatch.setattr(syntax, "_pretty_domain", lambda s: domains.append(s))
    assert pretty(t) == text and domains == []
    monkeypatch.undo()
    # an arrow's codomains are printed in the loop, not stored one by one
    chain = parse_type("a -> b -> c -> d")
    assert pretty(chain) == "a -> b -> c -> d" and chain.codomain.text is None


def test_print_deep_binder_chain():
    # printing a binder chain is a loop, linear in its depth
    m = UVar("y")
    for _ in range(3_000):
        m = ULam("x", m)
    start = time.perf_counter()
    text = pretty(m)
    assert time.perf_counter() - start < 2
    assert text.startswith("\\x. \\x0. \\x1. ") and text.endswith(". y")
    # compare the text: deep terms compare by nested keys, which recurse
    assert pretty(parse_untyped(text)) == text


def test_print_picks_fresh_names_on_collision():
    # binder hint collides with a free variable of the body
    t = Lam("x", SetType.of([a]), Var("x", a))  # free x, not the binder
    printed = pretty(t)
    assert printed == "\\x0:{a}. x^a"
    assert parse_term(printed) == t


def test_printing_mixed_input_together_prints_each_as_alone():
    # A type, a set-type, a top-level set-term, one term object twice, a
    # term already printed, an untyped and an annotated term, some sharing
    # a subterm that names its binder y0 under a binder y, y elsewhere.
    def inputs():
        inner = parse_term("\\y:{a}. x^a")
        f = Var("f", Arrow(SetType.of([Arrow(SetType.of([a]), a)]), a))
        outer = Lam("y", SetType.of([a]), App(f, SetTerm.of([inner])))
        app = App(outer, SetTerm.of([inner]))
        printed = parse_term("(\\x:{a}. x^a) {y^a}")
        return [parse_type("(a -> b) -> c"), parse_set_type("{a, b -> c}"),
                app, SetTerm.of([inner, parse_term("z^b")]), app, printed,
                parse_untyped("\\x. x (\\x. x x1)"), outer, inner]

    xs = inputs()
    pretty(xs[5])
    alone = [pretty(x) for x in inputs()]
    assert syntax.pretty_all(xs) == alone
    assert alone[2] == "(\\y:{a}. f^((a -> a) -> a) {\\y0:{a}. x^a}) {\\y:{a}. x^a}"
    for x, text in zip(xs, alone):
        if not isinstance(x, SetTerm):
            assert x.text == text


def nested_chains(n: int, typed: bool):
    """Shape H of tests/deep.py, y {\\x. y {\\x. ... z}}, n chains deep."""
    if typed:
        return built("H", n)
    m = UVar("z")
    for _ in range(n):
        m = UApp(UVar("y"), ULam("x", m))
    return m


@pytest.mark.parametrize("typed", [False, True], ids=["untyped", "annotated"])
def test_print_deep_nested_chains(typed):
    # each chain tests its names against its body's free names by bisect,
    # not by walking the body: linear in the depth, not quadratic
    m = nested_chains(20_000, typed)
    start = time.perf_counter()
    text = pretty(m)
    assert time.perf_counter() - start < 2
    if typed:
        assert text.startswith("y^((a -> a) -> a) {\\x:{a}. y^((a -> a) -> a) {\\x0:{a}. ")
        assert text.endswith("\\x19998:{a}. z^a" + "}" * 20_000)
    else:
        assert text.startswith("y (\\x. y (\\x0. y (\\x1. ")
        assert text.endswith("\\x19998. z" + ")" * 20_000)


# The printer before binder names were tested by bisect: each chain
# walked its body for its free names.  It is the reference the printer
# must match byte for byte.

def _reference_pick_name(hint, used, next_suffix):
    base = hint if naming._IDENT.match(hint) else "x"
    if base not in used:
        return base
    n = next_suffix.get(base, 0)
    while f"{base}{n}" in used:
        n += 1
    next_suffix[base] = n
    return f"{base}{n}"


def _reference_name_chain(t, env):
    taken = syntax.free_names(t) | set(env)
    next_suffix = {}
    chain = []
    while isinstance(t, (Lam, ULam)):
        name = _reference_pick_name(t.hint, taken, next_suffix)
        taken.add(name)
        chain.append((t, name))
        t = t.body
    return chain, t


def reference_pretty(t):
    out, env, stack = [], [], [(t, 0)]
    annot, set_type = syntax._pretty_annot, syntax._pretty_set_type
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is int:
            del env[len(env) - item:]
            continue
        t, prec = item
        kind = type(t)
        if kind is Var:
            out.append(f"{t.name}^{annot(t.annot)}")
        elif kind is UVar:
            out.append(t.name)
        elif kind is BoundVar or kind is UBoundVar:
            name = env[-1 - t.index] if t.index < len(env) else f"?{t.index - len(env)}"
            out.append(f"{name}^{annot(t.annot)}" if kind is BoundVar else name)
        elif kind is Lam or kind is ULam:
            chain, body = _reference_name_chain(t, env)
            if prec:
                out.append("(")
                stack.append(")")
            for lam, name in chain:
                out.append(f"\\{name}:{set_type(lam.binder)}. " if kind is Lam
                           else f"\\{name}. ")
                env.append(name)
            stack += [len(chain), (body, 0)]
        elif kind is App and len(t.arg) == 1 and type(t.arg.elements[0]) in (Var, BoundVar):
            stack += [(t.arg.elements[0], 0), " ", (t.fun, 1)]
        elif kind is App or kind is Wrap:
            fun, arg = (t.fun, t.arg) if kind is App else (t.head, t.payload)
            opening, closing = (" {", "}") if kind is App else (" [", "]")
            stack.append(closing)
            for e in reversed(arg.elements[1:]):
                stack += [(e, 0), ", "]
            stack += [(arg.elements[0], 0), opening, (fun, 1)]
        else:
            if prec == 2:
                out.append("(")
                stack.append(")")
            stack += [(t.arg, 2), " ", (t.fun, 1)]
    return "".join(out)


def assert_prints_as_reference(t):
    """Every subterm of t, dangling indices and all, prints as the
    reference prints it."""
    for node in syntax.nodes(t):
        if not isinstance(node, SetTerm):
            assert pretty(node) == reference_pretty(node)


# Hints and free names that collide with each other and with the
# suffixed names the printer makes of them.
COLLIDING = ["x", "x0", "x1", "x00", "y", "y0"]


@st.composite
def colliding_memterms_st(draw, depth=0, size=12):
    if size <= 1:
        annot = draw(st.sampled_from([a, b]))
        if depth and draw(st.booleans()):
            return BoundVar(draw(st.integers(0, depth + 1)), annot)  # may dangle
        return Var(draw(st.sampled_from(COLLIDING)), annot)
    shape = draw(st.sampled_from(["lam", "lam", "app", "wrap", "leaf"]))
    if shape == "lam":
        hint = draw(st.sampled_from(COLLIDING + ["Bad hint"]))
        return Lam(hint, SetType.of([a]), draw(colliding_memterms_st(depth + 1, size - 1)))
    if shape in ("app", "wrap"):
        head = draw(colliding_memterms_st(depth, size // 2))
        elements = draw(st.lists(colliding_memterms_st(depth, size // 3 + 1),
                                 min_size=1, max_size=2))
        return (App if shape == "app" else Wrap)(head, SetTerm.of(elements))
    return draw(colliding_memterms_st(depth, 1))


@st.composite
def colliding_untyped_st(draw, depth=0, size=14):
    if size <= 1:
        if depth and draw(st.booleans()):
            return UBoundVar(draw(st.integers(0, depth + 1)))  # may dangle
        return UVar(draw(st.sampled_from(COLLIDING)))
    if draw(st.integers(0, 2)):
        hint = draw(st.sampled_from(COLLIDING + ["Bad hint"]))
        return ULam(hint, draw(colliding_untyped_st(depth + 1, size - 1)))
    return UApp(draw(colliding_untyped_st(depth, size // 2)),
                draw(colliding_untyped_st(depth, size // 2)))


@given(colliding_memterms_st())
def test_print_matches_the_reference_on_annotated_terms(t):
    assert_prints_as_reference(t)


@given(colliding_untyped_st())
def test_print_matches_the_reference_on_untyped_terms(m):
    assert_prints_as_reference(m)


def test_print_matches_the_reference_on_fixed_collisions():
    texts = [
        # a free x0 under nested \x chains, and a suffix freed deeper in
        "\\x. \\x. x0 (\\x. \\x. x1 (\\x. x x2))",
        "\\x. x0 x1 (\\x. \\x. x (\\x0. \\x. x0))",
        "\\x0. \\x. (\\x. x00 x0) (\\x0. \\x. x1)",
        "\\y. \\y0. y (\\y. y0 (\\y. \\y. y1 y2 y00))",
    ]
    for text in texts:
        assert_prints_as_reference(parse_untyped(text))
    assert_prints_as_reference(parse_term(
        "\\x:{a}. \\x:{a}. x0^(a -> a) {\\x:{a}. x1^(a -> a) {x^a}} [\\x0:{a}. x00^a]"))
    for n in range(6):
        assert_prints_as_reference(nested_chains(n, typed=False))
        assert_prints_as_reference(nested_chains(n, typed=True))


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
def test_print_matches_the_reference_on_church_graphs(m, n):
    from corpus import church_application
    from setlam import Fuel, explore, infer_sn

    term = infer_sn(church_application(m, n), Fuel(20_000, 20_000)).term
    for calculus in ("i", "im"):
        g = explore(term, calculus, Fuel(20_000, 20_000))
        assert not g.truncated
        for node in g.nodes:
            assert pretty(node) == reference_pretty(node)


# --- round trips ------------------------------------------------------------

annots_st = st.builds(Base, st.sampled_from(["a", "b"])) | types_st


@st.composite
def memterms_st(draw, depth=0, size=7):
    # locally closed annotated terms, grammatically valid but not
    # necessarily typable
    if size <= 1:
        if depth and draw(st.booleans()):
            return BoundVar(draw(st.integers(0, depth - 1)), draw(annots_st))
        return Var(draw(st.sampled_from(["x", "y"])), draw(annots_st))
    shape = draw(st.sampled_from(["lam", "app", "wrap", "leaf"]))
    if shape == "lam":
        binder = SetType.of(draw(st.lists(annots_st, min_size=1, max_size=2)))
        return Lam("u", binder, draw(memterms_st(depth + 1, size - 1)))
    if shape in ("app", "wrap"):
        head = draw(memterms_st(depth, size // 2))
        elements = draw(st.lists(memterms_st(depth, size // 3 + 1), min_size=1, max_size=2))
        if shape == "app":
            return App(head, SetTerm.of(elements))
        return Wrap(head, SetTerm.of(elements))
    return draw(memterms_st(depth, 1))


@given(memterms_st())
def test_parse_print_round_trip_annotated(t):
    assert parse_term(pretty(t)) == t


@st.composite
def untyped_st(draw, depth=0, size=8):
    if size <= 1:
        if depth and draw(st.booleans()):
            from setlam import UBoundVar
            return UBoundVar(draw(st.integers(0, depth - 1)))
        return UVar(draw(st.sampled_from(["x", "y"])))
    if draw(st.booleans()):
        return ULam(draw(st.sampled_from(["x", "f"])), draw(untyped_st(depth + 1, size - 1)))
    return UApp(draw(untyped_st(depth, size // 2)), draw(untyped_st(depth, size // 2)))


@given(untyped_st())
def test_parse_print_round_trip_untyped(m):
    assert parse_untyped(pretty(m)) == m


@given(types_st)
def test_parse_print_round_trip_types(ty):
    assert parse_type(pretty(ty)) == ty


# --- the parser against its walker version ----------------------------------

# The parser when it was four walkers on the trampoline `run`, a sub-call
# per bracket and set element, with a method per token.  It is the
# reference the parser must match: the same nodes, the same printed text,
# the same errors at the same line and column.

class _ReferenceTokens:
    def __init__(self, text: str):
        self.text = text
        self.tokens = parsing._TOKEN.findall(text)
        if "" in self.tokens:
            self.index = self.tokens.index("")
            self.error()
        self.tokens.append("")
        self.index = 0
        self.bound: dict[str, list[int]] = {}
        self.depth = 0

    def bind(self, names):
        for name in names:
            self.bound.setdefault(name, []).append(self.depth)
            self.depth += 1

    def unbind(self, names):
        for name in names:
            self.bound[name].pop()
        self.depth -= len(names)

    def de_bruijn(self, name):
        depths = self.bound.get(name)
        return self.depth - 1 - depths[-1] if depths else -1

    def peek(self):
        return self.tokens[self.index]

    def take(self, token):
        if self.tokens[self.index] != token:
            return False
        self.index += 1
        return True

    def expect(self, token):
        if not self.take(token):
            self.error(f"expected {token!r}, found {self.shown()!r}")

    def name(self):
        value = self.tokens[self.index]
        if not value[:1].isalpha():
            self.error(f"expected identifier, found {self.shown()!r}")
        self.index += 1
        return value

    def at_name(self):
        return self.tokens[self.index][:1].isalpha()

    def shown(self):
        return self.tokens[self.index] or "end of input"

    def error(self, message=None):
        text = self.text
        found = next(islice(parsing._TOKEN.finditer(text), self.index, None), None)
        offset = found.start() if found else len(text)
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        raise ParseError(message or f"unexpected character {text[offset]!r}", line, column)


def _reference_elements(toks, walker, closing):
    elements = [(yield walker(toks))]
    while toks.take(","):
        elements.append((yield walker(toks)))
    toks.expect(closing)
    return elements


def _reference_type(toks, as_set=False):
    domains = []
    while True:
        if toks.take("{"):
            atom = SetType.of((yield from _reference_elements(toks, _reference_type, "}")))
        elif toks.take("("):
            atom = SetType.of([(yield _reference_type(toks))])
            toks.expect(")")
        else:
            atom = SetType.of([Base(toks.name())])
        if not toks.take("->"):
            break
        domains.append(atom)
    if as_set and not domains:
        return atom
    if len(atom.elements) != 1:
        toks.error("a braced set of types must be followed by ->")
    result = atom.elements[0]
    for domain in reversed(domains):
        result = Arrow(domain, result)
    return SetType.of([result]) if as_set else result


def _reference_untyped(toks):
    names = []
    while toks.take("\\"):
        names.append(toks.name())
        toks.expect(".")
    toks.bind(names)
    term = None
    while True:
        if toks.take("("):
            atom = yield _reference_untyped(toks)
            toks.expect(")")
        elif term is None or toks.at_name():
            name = toks.name()
            index = toks.de_bruijn(name)
            atom = UBoundVar(index) if index >= 0 else UVar(name)
        else:
            break
        term = atom if term is None else UApp(term, atom)
    toks.unbind(names)
    for name in reversed(names):
        term = ULam(name, term)
    return term


def _reference_term(toks):
    binders = []
    while toks.take("\\"):
        name = toks.name()
        toks.expect(":")
        binders.append((name, (yield from _reference_type(toks, True))))
        toks.expect(".")
    names = [name for name, _ in binders]
    toks.bind(names)
    term = None
    while True:
        if toks.take("("):
            atom = yield _reference_term(toks)
            toks.expect(")")
        elif term is None or toks.at_name():
            name = toks.name()
            toks.expect("^")
            if toks.take("("):
                annot = yield from _reference_type(toks)
                toks.expect(")")
            else:
                annot = Base(toks.name())
            index = toks.de_bruijn(name)
            atom = BoundVar(index, annot) if index >= 0 else Var(name, annot)
        elif toks.take("{"):
            term = App(term, SetTerm.of((yield from _reference_elements(toks, _reference_term, "}"))))
            continue
        elif toks.take("["):
            term = Wrap(term, SetTerm.of((yield from _reference_elements(toks, _reference_term, "]"))))
            continue
        else:
            break
        term = atom if term is None else App(term, SetTerm.of([atom]))
    toks.unbind(names)
    for name, binder in reversed(binders):
        term = Lam(name, binder, term)
    return term


_REFERENCE_WALKERS = {"type": _reference_type, "untyped": _reference_untyped,
                      "annotated": _reference_term,
                      "set-type": lambda toks: _reference_type(toks, True)}


def reference_parse(text: str, kind: str):
    toks = _ReferenceTokens(text)
    result = run(_REFERENCE_WALKERS[kind](toks))
    if toks.peek():
        toks.error(f"trailing input {toks.peek()!r}")
    return result


def _parsed(text: str, kind: str, reference: bool):
    """The repr and text of what text parses to, or the error's message,
    line and column."""
    try:
        if reference:
            result = reference_parse(text, kind)
        else:
            result = parse_set_type(text) if kind == "set-type" else parse(text, kind)
    except ParseError as error:
        return "error", str(error), error.line, error.column
    return "parsed", repr(result), pretty(result)


def assert_parses_as_reference(text: str):
    for kind in _REFERENCE_WALKERS:
        assert _parsed(text, kind, False) == _parsed(text, kind, True), (text, kind)


# Texts of every grammar, printed from generated nodes: a term applied
# to itself repeats each of its annotations and binder set-types.
grammar_texts_st = st.one_of(
    memterms_st().map(pretty),
    memterms_st().map(lambda t: pretty(App(t, SetTerm((t,))))),
    untyped_st().map(pretty),
    types_st.map(pretty),
    st.lists(types_st, min_size=1, max_size=3).map(lambda ts: pretty(SetType.of(ts))),
)
_MUTANT_TOKENS = ["x", "a", "\\", ".", ":", ",", "^", "(", ")", "{", "}", "[", "]", "->", "#"]


@st.composite
def mutated_texts_st(draw):
    """A grammar text with one token deleted, duplicated or replaced."""
    text = draw(grammar_texts_st)
    start, end = draw(st.sampled_from([m.span() for m in parsing._TOKEN.finditer(text)]))
    how = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if how == "delete":
        return text[:start] + text[end:]
    if how == "duplicate":
        return text[:end] + " " + text[start:end] + text[end:]
    spacing = draw(st.sampled_from(["", " ", "\n"]))
    return text[:start] + spacing + draw(st.sampled_from(_MUTANT_TOKENS)) + text[end:]


@given(grammar_texts_st)
def test_the_parser_matches_the_reference_on_printed_texts(text):
    assert_parses_as_reference(text)


@given(mutated_texts_st())
def test_the_parser_matches_the_reference_on_mutated_texts(text):
    assert_parses_as_reference(text)


# Braced sets where a type ends, in brackets and at the top; the same
# tokens as binder and annotation; errors after an annotation was read.
CORNER_TEXTS = [
    "{a, a}", "({a, a})", "{a, b}", "({a, b})", "{{a, b}}", "{{a, b} c}", "{{a, b} -> c}",
    "{a, b} -> {c, d}", "((a)) -> {(a), a}", "\\x:{{a, b}}. x^a", "\\x:({a, b}). x^a",
    "\\x:{a, a}. x^({a, a})", "\\x:a. x^(a)", "\\x:a -> b. x^(a -> b) {y^a}",
    "x^(a -> b) {y^a} x^(a -> b", "x^(a -> b) x^(a -> b))", "x^((a) -> b) {x^((a) -> b}",
    "\\x:{a}. \\y:{a}. y^a \\z:{a}.", "\\x:{a}.\n  x^a [y^a,\n z^(a -> ]",
    "\\x:{a}. x^a {\\y:{a}. y^a, \\y:{a}. y^b}", "x^a [y^a] [z^a {w^a}]", "(x^a)", "((x^a)",
    "x^a)", "\\x. \\y. x y (\\z. z) w", "x \\y. y", "(x", "x)", "x y # z", "",
]


@pytest.mark.parametrize("text", CORNER_TEXTS)
def test_the_parser_matches_the_reference_on_corner_texts(text):
    assert_parses_as_reference(text)


@pytest.mark.parametrize("name", "ABCDEFGHI")
def test_the_parser_matches_the_reference_on_the_deep_shapes(name):
    for n in range(7):
        assert_parses_as_reference(deep_shape(name, n))
    for n in range(7):
        assert_parses_as_reference("(" * n + "y z" + ")" * n)
        assert_parses_as_reference("y (\\x. " * n + "z" + ")" * n)


def test_equal_annotations_in_one_text_are_one_object():
    t = parse_term("\\x:{a -> b}. \\y:{a -> b}. x^(a -> b) {y^(a -> b)} [z^a, w^a]")
    assert t.binder is t.body.binder
    app, payload = t.body.body.head, t.body.body.payload
    assert app.fun.annot is app.arg.elements[0].annot
    assert payload.elements[0].annot is payload.elements[1].annot is app.fun.annot.domain.elements[0]
    # the same tokens as a binder and as an annotation: a set-type and a type
    lam = parse_term("\\x:a -> b. x^(a -> b)")
    assert lam.binder == SetType((lam.body.annot,)) and lam.binder is not lam.body.annot
    # other annotations stay apart
    u = parse_term("x^(a -> b) {y^(b -> a)}")
    assert u.fun.annot != u.arg.elements[0].annot


def test_parsing_deep_shape_h_builds_a_fixed_number_of_types(monkeypatch):
    # Each level repeats the annotation ((a -> a) -> a) and the binder
    # {a}: each is built once.
    counts = {Arrow: 0, SetType: 0}

    def counting(kind):
        init = kind.__init__

        def counted(self, *fields):
            counts[kind] += 1
            init(self, *fields)
        return counted

    monkeypatch.setattr(Arrow, "__init__", counting(Arrow))
    monkeypatch.setattr(SetType, "__init__", counting(SetType))
    t = parse_term(deep_shape("H", 2_000))
    monkeypatch.undo()
    assert counts[Arrow] + counts[SetType] <= 5
    assert t == built("H", 2_000)


# --- positions --------------------------------------------------------------

def test_positions_resolve_and_replace():
    t = parse_term("(\\x:{a}.x^a) {y^a, z^a}")
    assert subterm_at(t, (0,)) == parse_term("\\x:{a}.x^a")
    assert subterm_at(t, (0, 0)) == BoundVar(0, a)
    arg0 = subterm_at(t, (1,))
    assert arg0 in (Var("y", a), Var("z", a))
    replaced = replace_at(t, (1,), Var("w", a))
    assert isinstance(replaced, App)
    with pytest.raises(InvalidPosition):
        subterm_at(t, (5,))
    with pytest.raises(InvalidPosition):
        subterm_at(t, (0, 0, 0))


def test_replace_recanonicalizes_sets():
    t = parse_term("f^({a,b} -> c) {x^a, x^b}")
    swapped = replace_at(t, (1,), Var("z", a))
    assert isinstance(swapped, App)
    assert swapped.arg == SetTerm.of([Var("z", a), Var("x", b)])


def test_positions_enumeration_is_lexicographic():
    t = parse_term("(\\x:{a}.x^a) {y^a}")
    listed = list(positions(t))
    assert listed == sorted(listed)
    assert len(listed) == term_size(t) + 0 if not isinstance(t, SetTerm) else True


def test_replace_at_own_subterm_returns_the_term(corpus):
    for entry in corpus:
        t = entry.term
        for pos in positions(t):
            assert replace_at(t, pos, subterm_at(t, pos)) is t


def test_shift_of_locally_closed_term_returns_the_term(corpus):
    for entry in corpus:
        for t in (entry.term, entry.untyped):
            if t is not None:
                assert locally_closed(t)
                assert shift(t, 3) is t


# --- the trampoline ---------------------------------------------------------

def test_run_returns_from_sub_calls_100_000_deep():
    def depth(n):
        if n == 0:
            return 0
        return 1 + (yield depth(n - 1))
    assert run(depth(100_000)) == 100_000


def test_run_passes_an_exception_in_a_sub_call_to_its_caller():
    def fail_at_the_bottom(n):
        if n == 0:
            raise ValueError("bottom")
        yield fail_at_the_bottom(n - 1)
        raise AssertionError("a failed sub-call does not return")
    with pytest.raises(ValueError, match="bottom"):
        run(fail_at_the_bottom(5_000))


# --- keys deeper than the interpreter compares ------------------------------

def _chain(n: int, leaf):
    for _ in range(n):
        leaf = Lam("x", SetType.of([a]), leaf)
    return leaf


def _arrows(n: int, codomain):
    for _ in range(n):
        codomain = Arrow(SetType.of([a]), codomain)
    return codomain


def test_sets_of_elements_that_agree_down_a_long_path():
    # equal but for their last leaf: their keys agree 3,000 levels deep
    low, high = _chain(3_000, Var("y", a)), _chain(3_000, Var("y", b))
    for s in (SetTerm.of([low, high]), SetTerm.of([high, low])):
        assert s.elements[0] is low and s.elements[1] is high
    assert SetTerm.of([low, _chain(3_000, Var("y", a))]).elements == (low,)
    assert SetTerm((low, high)).elements == (low, high)
    with pytest.raises(ValueError, match="strictly sorted"):
        SetTerm((high, low))
    low_type, high_type = _arrows(3_000, a), _arrows(3_000, b)
    assert SetType.of([high_type, low_type]).elements == (low_type, high_type)
    assert SetType.of([low_type, high_type]) == SetType.of([high_type, low_type])


def test_a_set_of_deep_elements_is_sorted_with_one_walk(monkeypatch):
    # of builds the set it sorted without checking the order again
    low, high = _arrows(100_000, a), _arrows(100_000, b)
    walks = []
    compare = syntax._compare
    monkeypatch.setattr(syntax, "_compare", lambda x, y: walks.append(1) or compare(x, y))
    assert SetType.of([high, low]).elements == (low, high)
    assert len(walks) == 1


def test_type_height_clauses():
    assert type_height(a) == 0
    assert type_height(parse_type("{a} -> a")) == 1
    assert type_height(parse_type("{{a} -> a, a} -> ({a} -> a)")) == 2
    assert type_height(SetType(())) == 0


# --- identity: one structural key per node ---------------------------------

def structure(x):
    """Alpha-equivalence field by field, hints left out: the reference
    that the stored keys must agree with."""
    if isinstance(x, tuple):
        return tuple(map(structure, x))
    if not isinstance(x, _Node):
        return x
    return (type(x).__name__, *(structure(getattr(x, name))
                                for name in type(x).__match_args__ if name != "hint"))


@given(memterms_st(), memterms_st())
def test_term_equality_is_key_equality(s, t):
    assert (s == t) == (s.key == t.key) == (structure(s) == structure(t))
    copy = parse_term(pretty(s))
    assert copy is not s and copy == s and hash(copy) == hash(s)


@given(types_st, types_st)
def test_type_equality_is_key_equality(s, t):
    assert (s == t) == (s.key == t.key) == (structure(s) == structure(t))
    copy = parse_type(pretty(s))
    assert copy is not s and copy == s and hash(copy) == hash(s)


def test_corpus_equality_is_key_equality(corpus):
    terms = [entry.term for entry in corpus]
    for s in terms:
        copy = parse_term(pretty(s))
        assert copy == s and hash(copy) == hash(s)
        assert all((s == t) == (s.key == t.key) for t in terms)


@given(memterms_st(), types_st, st.sampled_from(["u", "x", "f", "Bad hint"]))
def test_binder_hint_is_not_identity(body, annot, hint):
    binder = SetType.of([annot])
    lam, renamed = Lam("u", binder, body), Lam(hint, binder, body)
    assert lam == renamed and hash(lam) == hash(renamed)
    assert {lam: "slot"}[renamed] == "slot"
    assert ULam("u", UVar("y")) == ULam(hint, UVar("y"))


def test_equal_keys_of_different_classes_are_not_equal():
    assert Var("x", a) != UVar("x")
    assert BoundVar(0, a) != UBoundVar(0)
    assert SetType(()).key == SetTerm(()).key and SetType(()) != SetTerm(())


@given(st.lists(memterms_st(), max_size=5))
def test_set_term_of_sorts_by_key(elements):
    assert [e.key for e in SetTerm.of(elements)] == sorted({e.key for e in elements})


@st.composite
def set_type_and_prefix_st(draw):
    # A canonical set-type and one of its proper prefixes, which is
    # canonical too: the keys agree up to the shorter one's length.
    s = SetType.of(draw(st.lists(types_st, min_size=2, max_size=4, unique=True)))
    return s, SetType(s.elements[:draw(st.integers(1, len(s) - 1))])


comparable_pairs_st = st.one_of(
    st.tuples(memterms_st(), memterms_st()),  # Var against BoundVar, Lam, App or Wrap
    memterms_st().map(lambda t: (t, _copy(t))),
    st.tuples(types_st, types_st),
    st.tuples(untyped_st(), untyped_st()),
    st.tuples(*[st.lists(types_st, min_size=1, max_size=4).map(SetType.of)] * 2),
    st.tuples(*[st.lists(memterms_st(), min_size=1, max_size=3).map(SetTerm.of)] * 2),
    set_type_and_prefix_st(),
)


@given(comparable_pairs_st)
def test_the_comparison_walk_orders_as_the_keys_do(pair):
    for x, y in (pair, pair[::-1]):
        order = syntax._compare(x, y)
        assert order == (x.key > y.key) - (x.key < y.key)
        assert (order == 0) is (x == y)
        assert (x < y) is (order < 0)


def _one_of_each_class():
    lam = Lam("x", SetType.of([a]), BoundVar(0, a))
    app = App(lam, SetTerm.of([Var("y", a), Var("y", b)]))
    ulam = ULam("x", UBoundVar(0))
    return [a, Arrow(SetType.of([a]), b), SetType.of([a, b]), Var("y", a),
            BoundVar(0, a), lam, app, Wrap(app, SetTerm.of([Var("z", b)])),
            SetTerm.of([Var("y", a)]), UVar("y"), UBoundVar(0), ulam,
            UApp(ulam, UVar("y"))]


ONE_OF_EACH_CLASS = _one_of_each_class()


def test_str_is_pretty_for_every_node_class():
    classes, stack = set(), [_Node]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            classes.add(sub)
    public = {c for c in classes if not c.__name__.startswith("_")}
    assert {type(x) for x in ONE_OF_EACH_CLASS} == public - {TypingContext}
    for x in ONE_OF_EACH_CLASS:
        assert str(x) == pretty(x)


# --- stored hashes ----------------------------------------------------------

def _copy(x, hint: str = "copy"):
    """x built again from new objects, field by field, with every binder
    hint replaced: equal to x, and identical to none of its nodes."""
    if isinstance(x, tuple):
        return tuple(_copy(e, hint) for e in x)
    if not isinstance(x, _Node):
        return x
    return type(x)(*(hint if name == "hint" else _copy(getattr(x, name), hint)
                     for name in type(x).__match_args__))


def _assert_same_identity(x, y):
    assert x == y and y == x
    assert hash(x) == x.hash == y.hash == hash(y)
    assert {x: "slot"}[y] == "slot" and y in {x}


EVERY_CLASS = ONE_OF_EACH_CLASS + [
    TypingContext.of({"y": SetType.of([a]), "z": SetType.of([a, parse_type("{a} -> b")])})]


@pytest.mark.parametrize("x", EVERY_CLASS, ids=lambda x: type(x).__name__)
def test_equal_nodes_of_every_class_have_equal_stored_hashes(x):
    for hint in ("x", "u", "Bad hint"):
        copy = _copy(x, hint)
        assert copy is not x
        _assert_same_identity(x, copy)


@given(memterms_st(), st.sampled_from(["u", "x", "Bad hint"]))
def test_equal_terms_have_equal_stored_hashes(t, hint):
    _assert_same_identity(t, _copy(t, hint))
    _assert_same_identity(t, parse_term(pretty(t)))


@given(untyped_st(), st.sampled_from(["u", "x", "Bad hint"]))
def test_equal_untyped_terms_have_equal_stored_hashes(m, hint):
    _assert_same_identity(m, _copy(m, hint))
    _assert_same_identity(m, parse_untyped(pretty(m)))


@given(types_st)
def test_equal_types_have_equal_stored_hashes(t):
    _assert_same_identity(t, _copy(t))
    _assert_same_identity(t, parse_type(pretty(t)))
    s = SetType.of([t, a])
    _assert_same_identity(s, parse_set_type(pretty(s)))


@given(st.dictionaries(st.sampled_from(["x", "y", "z"]),
                       st.lists(types_st, min_size=1, max_size=3)))
def test_equal_contexts_have_equal_stored_hashes(items):
    ctx = TypingContext.of((n, SetType.of(ts)) for n, ts in items.items())
    _assert_same_identity(ctx, _copy(ctx))
    _assert_same_identity(ctx, TypingContext.of(
        (n, SetType.of(reversed(ts))) for n, ts in reversed(items.items())))


def test_equal_reducts_of_corpus_terms_have_equal_stored_hashes(corpus):
    for entry in corpus:
        for t, calculi in ((entry.term, ("i", "im")), (erase(entry.term), ("beta",))):
            for calculus in calculi:
                for _, r in reducts(t, calculus, {}):
                    _assert_same_identity(r, _copy(r))
                    _assert_same_identity(r, parse(pretty(r), "untyped" if calculus == "beta"
                                                   else "annotated"))


@pytest.mark.parametrize("name", "BCDH")
def test_built_shapes_are_the_parsed_ones(name):
    for n in (1, 2, 5):
        built_term, parsed = built(name, n), parse_term(deep_shape(name, n))
        assert built_term == parsed and pretty(built_term) == pretty(parsed)


def test_deep_spines_differing_in_the_last_argument_are_told_apart_by_hash(monkeypatch):
    # Both spines nest 200,000 key levels, past what the interpreter
    # compares, and differ only at the top: the hashes decide.
    spine, ill_typed = built("B", 100_000), built("C", 100_000)

    def compare(a, b):
        raise AssertionError("keys compared")

    monkeypatch.setattr(syntax, "_compare", compare)
    assert spine != ill_typed and not ill_typed == spine
    assert spine == spine and spine in {spine}


def _renamed_chain(n: int, hint: str, leaf):
    for _ in range(n):
        leaf = Lam(hint, SetType.of([a]), leaf)
    return leaf


def test_the_deep_equality_walk_agrees_with_the_key_order():
    # Pairs nested past what the interpreter compares, built apart so
    # that no subterm is shared: equal, unequal at the bottom leaf, and
    # equal but for every binder's hint, which is outside the key.  A
    # context's key holds its set-types, which compare as nodes, so the
    # key shown too deep to compare holds theirs.
    deep_type = lambda leaf: _arrows(3_000, leaf)
    context = lambda leaf: TypingContext.of({"y": SetType.of([deep_type(leaf)])})
    pairs = [
        (built("D", 100_000), built("D", 100_000)),
        (built("D", 3_000), built("B", 3_000)),
        (_chain(3_000, Var("y", a)), _chain(3_000, Var("y", a))),
        (_chain(3_000, Var("y", a)), _chain(3_000, Var("y", b))),
        (_chain(3_000, Var("y", a)), _renamed_chain(3_000, "u", Var("y", a))),
        (deep_type(a), deep_type(a)),
        (deep_type(a), deep_type(b)),
        (context(a), context(a)),
        (context(a), context(b)),
    ]
    def key(node):
        if type(node) is TypingContext:
            return tuple((name, s.key) for name, s in node.entries)
        return node.key

    answers = []
    for x, y in pairs:
        with pytest.raises(RecursionError):
            key(x) == key(y)
        order = syntax._compare(x, y)
        assert syntax._compare(y, x) == -order
        assert (x == y) is (order == 0) and (y == x) is (order == 0)
        assert (x < y) is (order < 0) and (y < x) is (order > 0)
        answers.append(order)
    # D's spine ends in an application where B's ends in a variable, and
    # the leaf a sorts before b.
    assert answers == [0, 1, 0, -1, 0, 0, -1, 0, -1]
    # Unequal types whose stored hashes collide at every level: the
    # walk reaches the leaves and their names settle it.
    x, y = deep_type(a), deep_type(b)
    u, v = x, y
    while True:
        vars(v)["hash"] = u.hash
        if type(u) is Base:
            break
        u, v = u.codomain, v.codomain
    assert syntax._compare(x, y) == -1 and x != y


def _child(script: str, *args: str, hash_seed: str = "0", stdin: bytes = b""):
    """Run script in a new interpreter that imports setlam and the test
    helpers, with the given hash seed."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONHASHSEED": hash_seed}
    return subprocess.run([sys.executable, "-c", script, *args], input=stdin,
                          capture_output=True, env=env)


def test_identity_of_terms_a_hundred_thousand_deep():
    # A spine of 100,000 arguments with a redex at its bottom, and
    # 50,000 nested chains: hashing their keys would walk them on the C
    # stack, which overflows (SIGSEGV) at these depths, and the stored
    # hashes walk nothing.  In a child process, so that a crash fails
    # this test alone.
    script = (
        "from deep import built\n"
        "from setlam.oracle import Fuel, explore\n"
        "for name, n in (('D', 100_000), ('H', 50_000)):\n"
        "    t, copy = built(name, n), built(name, n)\n"
        "    assert hash(t) == hash(copy) and t == copy and copy in {t}\n"
        "    graph = explore(t, 'i', Fuel(10, 10))\n"
        "    print(name, graph.node_count, len(graph.edges), graph.truncated)\n")
    done = _child(script)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"D 2 1 False\nH 1 0 False\n"


def test_a_node_unpickled_in_another_process_hashes_there():
    # A string's hash differs from one process to the next, so a stored
    # hash must not travel in a pickle.
    script = (
        "import pickle, sys\n"
        "from setlam import TypingContext, parse_set_type, parse_term\n"
        "t = parse_term('(\\\\x:{a}. f^(a -> b) x^a) {y^a}')\n"
        "ctx = TypingContext.of({'f': parse_set_type('a -> b'), 'y': parse_set_type('a')})\n"
        "if sys.argv[1] == 'dump':\n"
        "    sys.stdout.buffer.write(pickle.dumps((t, ctx)))\n"
        "else:\n"
        "    u, c = pickle.loads(sys.stdin.buffer.read())\n"
        "    assert u == t and hash(u) == hash(t) and u in {t} and u.fun.hint == 'x'\n"
        "    assert c == ctx and hash(c) == hash(ctx) and c in {ctx}\n")
    dumped = _child(script, "dump", hash_seed="1")
    assert dumped.returncode == 0, dumped.stderr
    loaded = _child(script, "load", hash_seed="2", stdin=dumped.stdout)
    assert (loaded.returncode, loaded.stderr) == (0, b"")


# --- plain immutable classes ------------------------------------------------

@pytest.mark.parametrize("x", ONE_OF_EACH_CLASS + [TypingContext.of({"y": SetType.of([a])})],
                         ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(x):
    before = repr(x)
    for name in (*type(x).__match_args__, "key", "hash", "typing", "simplifications",
                 "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == before


def test_repr_is_the_field_by_field_text():
    assert repr(parse_term("(\\x:{a}. x^a) {y^(b -> a)}")) == (
        "App(fun=Lam(hint='x', binder=SetType(elements=(Base(name='a'),)), "
        "body=BoundVar(index=0, annot=Base(name='a'))), "
        "arg=SetTerm(elements=(Var(name='y', annot=Arrow(domain=SetType("
        "elements=(Base(name='b'),)), codomain=Base(name='a'))),)))")
    assert repr(parse_term("x^a [y^b]")) == (
        "Wrap(head=Var(name='x', annot=Base(name='a')), "
        "payload=SetTerm(elements=(Var(name='y', annot=Base(name='b')),)))")
    assert repr(parse_untyped("\\x. x y")) == (
        "ULam(hint='x', body=UApp(fun=UBoundVar(index=0), arg=UVar(name='y')))")
    assert repr(TypingContext.of({"y": SetType.of([a])})) == (
        "TypingContext(entries=(('y', SetType(elements=(Base(name='a'),))),))")


def _recursive_repr(x):
    """The repr as a recursion: a node field by field, a tuple item by item."""
    if isinstance(x, _Node):
        fields = ", ".join(f"{name}={_recursive_repr(getattr(x, name))}"
                           for name in type(x).__match_args__)
        return f"{type(x).__name__}({fields})"
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_recursive_repr, x)) + ("," if len(x) == 1 else "") + ")"
    return repr(x)


contexts_st = st.dictionaries(st.sampled_from(["x", "y", "z"]),
                              st.lists(types_st, min_size=1, max_size=3).map(SetType.of),
                              max_size=3).map(TypingContext.of)


@given(st.one_of(memterms_st(), untyped_st(), types_st, contexts_st))
def test_repr_is_the_recursive_one(x):
    assert repr(x) == _recursive_repr(x)


def test_repr_of_a_term_ten_thousand_deep():
    text = repr(parse_term(deep_shape("H", 10_000)))
    assert text.startswith("App(fun=Var(name='y', annot=Arrow(domain=SetType(elements=(Arrow(")
    assert text.endswith("body=Var(name='z', annot=Base(name='a'))" + "),)))" * 10_000)


def _fields(x):
    """The fields of x, as positional patterns capture them and as named."""
    match x:
        case Base(name):
            return (name,), (x.name,)
        case Arrow(domain, codomain):
            return (domain, codomain), (x.domain, x.codomain)
        case SetType(elements) | SetTerm(elements):
            return (elements,), (x.elements,)
        case Var(name, annot):
            return (name, annot), (x.name, x.annot)
        case BoundVar(index, annot):
            return (index, annot), (x.index, x.annot)
        case Lam(hint, binder, body):
            return (hint, binder, body), (x.hint, x.binder, x.body)
        case App(fun, arg) | UApp(fun, arg):
            return (fun, arg), (x.fun, x.arg)
        case Wrap(head, payload):
            return (head, payload), (x.head, x.payload)
        case UVar(name):
            return (name,), (x.name,)
        case UBoundVar(index):
            return (index,), (x.index,)
        case ULam(hint, body):
            return (hint, body), (x.hint, x.body)
        case TypingContext(entries):
            return (entries,), (x.entries,)
    raise AssertionError(f"no pattern matches {x!r}")


@pytest.mark.parametrize("x", ONE_OF_EACH_CLASS + [TypingContext.of({"y": SetType.of([a])})],
                         ids=lambda x: type(x).__name__)
def test_positional_patterns_match_every_class(x):
    captured, named = _fields(x)
    assert all(map(operator.is_, captured, named))
