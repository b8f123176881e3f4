"""Synthesis, checking, minimal contexts, derivations, refinement."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from setlam import (
    App, Base, BoundVar, InvalidDerivation, Lam, SetLamError, NotTypable, NotUniform,
    SetTerm, SetType, TypingContext, UApp, UBoundVar, ULam, UnboundOrWrongAnnotation,
    UVar, Var, check, check_curry,
    decorate, derivation_from_json, derivation_to_json, erase,
    erase_derivation, is_uniform, minimal_context, parse_set_type,
    parse_term, parse_type, parse_untyped, pretty, refines, set_type_of,
    synthesize_type, step_i,
)
from setlam.derivation import canonical_derivation
from setlam.typecheck import binder_types, subterm_type

import corpus
from deep import shape

SELFAPP = parse_term(corpus.SELF_APPLICATION)

SELFAPP_DERIVATION = {
    "rule": "intro", "ctx": {}, "term": "\\x. x x",
    "type": "{{a,b}->c, a, b} -> c",
    "premises": [{
        "rule": "elim", "ctx": {"x": ["{a,b}->c", "a", "b"]},
        "term": "x x", "type": "c",
        "premises": [
            {"rule": "var", "ctx": {"x": ["{a,b}->c", "a", "b"]},
             "term": "x", "type": "{a,b}->c"},
            {"rule": "many", "ctx": {"x": ["{a,b}->c", "a", "b"]},
             "term": "x", "type": ["a", "b"],
             "premises": [
                 {"rule": "var", "ctx": {"x": ["{a,b}->c", "a", "b"]},
                  "term": "x", "type": "a"},
                 {"rule": "var", "ctx": {"x": ["{a,b}->c", "a", "b"]},
                  "term": "x", "type": "b"},
             ]},
        ],
    }],
}

MANY_ROOT_DERIVATION = {
    "rule": "many", "ctx": {"x": ["a"]}, "term": "x", "type": ["a"],
    "premises": [{"rule": "var", "ctx": {"x": ["a"]}, "term": "x", "type": "a"}],
}


# --- synthesis --------------------------------------------------------------

def test_synthesize_identity():
    assert synthesize_type(parse_term("\\x:{a}. x^a")) == parse_type("{a} -> a")
    assert pretty(synthesize_type(parse_term("\\x:{a}. x^a"))) == "a -> a"


def test_synthesize_self_application():
    assert synthesize_type(SELFAPP) == parse_type("{{a,b}->c, a, b} -> c")


def test_synthesize_non_arrow_application():
    with pytest.raises(NotTypable):
        synthesize_type(parse_term("x^a {y^a}"))


def test_synthesize_rejects_duplicate_element_types():
    with pytest.raises(NotTypable):
        synthesize_type(parse_term("x^({a} -> b) {y^a, z^a}"))
    # a set-term at the root, which the parser does not produce
    both = SetTerm.of([Var("y", Base("a")), Var("z", Base("a"))])
    assert _error(synthesize_type, both) == ((), "set-term elements with equal types")


def test_synthesize_rejects_annotation_outside_binder():
    with pytest.raises(NotTypable):
        synthesize_type(parse_term("\\x:{a}. x^b"))


def test_synthesize_wrapper_payload_checked():
    assert synthesize_type(parse_term("y^a [z^b]")) == Base("a")
    with pytest.raises(NotTypable):
        synthesize_type(parse_term("y^a [z^b w^c]"))


def _error(typed, t) -> tuple:
    with pytest.raises(NotTypable) as error:
        typed(t)
    return error.value.position, error.value.reason


def test_non_arrow_function_reported_before_an_ill_typed_argument():
    assert _error(synthesize_type, parse_term("x^a {w^b {z^a}}")) == (
        (), "applied term has non-arrow type a")


def test_wrapper_payload_reported_before_its_head():
    assert _error(synthesize_type, parse_term("(x^a {y^a}) [w^b {z^a}]")) == (
        (1,), "applied term has non-arrow type b")
    assert _error(synthesize_type, parse_term("(x^a {y^a}) [z^b, w^b]")) == (
        (), "set-term elements with equal types")


def test_bad_occurrence_in_an_earlier_sibling_reported_first():
    # the fold rejects the body for the later sibling and never checks
    # x^b against its binder; x^b comes first, so its error is reported
    t = parse_term("\\x:{a}. y^({b} -> d) {x^b, w^a {z^a}}")
    assert _error(synthesize_type, t) == ((0, 1), "occurrence annotation not in binder set")


def test_dangling_index_rejected_by_synthesis_trusted_by_subterm_type():
    a, b = Base("a"), Base("b")
    fun = BoundVar(1, parse_type("{a} -> b"))
    t = Lam("x", SetType.of([a]), App(fun, SetTerm.of([BoundVar(0, a)])))
    assert _error(synthesize_type, t) == ((0, 0), "dangling bound variable 1")
    assert subterm_type(t) == parse_type("{a} -> b")
    bad = Lam("x", SetType.of([a]), App(fun, SetTerm.of([BoundVar(0, b)])))
    assert _error(synthesize_type, bad) == ((0, 0), "dangling bound variable 1")
    assert _error(subterm_type, bad) == ((0, 1), "occurrence annotation not in binder set")


def test_bad_annotation_at_the_bottom_of_a_deep_binder_chain():
    n = 20_000
    t = BoundVar(n - 1, Base("b"))
    for _ in range(n):
        t = Lam("x", SetType.of([Base("a")]), t)
    assert _error(synthesize_type, t) == ((0,) * n, "occurrence annotation not in binder set")


def test_set_type_of_bijection():
    s = SetTerm.of([parse_term("x^a"), parse_term("x^b")])
    assert set_type_of(s) == parse_set_type("{a, b}")


# --- check ------------------------------------------------------------------

def test_check_var_in_context():
    ctx = TypingContext.of({"x": parse_set_type("{a, b}")})
    assert check(ctx, parse_term("x^a")) == Base("a")


def test_context_of_merges_each_name_like_repeated_union():
    rng = random.Random(1)
    types = [parse_type(t) for t in ("a", "b", "c", "{a} -> b", "{a, b} -> a")]
    pairs = [(rng.choice("xyz"), SetType.of(rng.sample(types, rng.randint(0, 3))))
             for _ in range(300)]
    pairs += [("w", SetType.of([Base(f"b{i}")])) for i in range(1_000)]
    merged = {}
    for name, s in pairs:
        merged[name] = merged[name].union(s) if name in merged else s
    assert TypingContext.of(pairs) == TypingContext(
        tuple(sorted((n, s) for n, s in merged.items() if s.elements)))
    assert len(TypingContext.of(pairs).get("w")) == 1_000


def test_context_get_agrees_with_a_linear_scan():
    rng = random.Random(3)
    types = [parse_type(t) for t in ("a", "b", "{a} -> b", "{a, b} -> a")]
    for _ in range(200):
        names = rng.sample(["a", "b", "m", "x", "x0", "x1", "y", "z", "zz"], rng.randint(0, 9))
        ctx = TypingContext.of(
            (n, SetType.of(rng.sample(types, rng.randint(1, 3)))) for n in names)
        for name in ["", "a", "aa", "m", "x", "x00", "x1", "y", "zz", "zzz", *names]:
            linear = next((s for n, s in ctx.entries if n == name), SetType(()))
            assert ctx.get(name) == linear


def _bind_by_filter(ctx: TypingContext, name: str, s: SetType) -> TypingContext:
    """The reference update: drop every entry of name, then merge the
    new one in with `TypingContext.of`, which re-sorts and drops an empty
    set-type."""
    kept = tuple(e for e in ctx.entries if e[0] != name)
    return TypingContext.of(kept + ((name, s),))


def test_context_bind_agrees_with_filtering_and_resorting():
    rng = random.Random(5)
    types = [parse_type(t) for t in ("a", "b", "{a} -> b", "{a, b} -> a")]
    pool = ["a", "b", "m", "x", "x0", "x1", "y", "z", "zz"]
    for _ in range(200):
        names = rng.sample(pool, rng.randint(0, 9))
        ctx = TypingContext.of(
            (n, SetType.of(rng.sample(types, rng.randint(1, 3)))) for n in names)
        for name in ["", "aa", "x00", "zzz", *pool]:
            s = SetType.of(rng.sample(types, rng.randint(0, 3)))  # empty one time in four
            bound = ctx.bind(name, s)
            assert bound.entries == _bind_by_filter(ctx, name, s).entries
            assert bound.get(name) == s and hash(bound) == bound.hash


def test_check_reports_the_first_failing_occurrence_in_term_order():
    t = parse_term("\\u:{a}. f^(a -> a -> b -> a -> c) {x^a} {u^a} {y^b} {x^a}")
    ctx = TypingContext.of({"f": parse_set_type("{a -> a -> b -> a -> c}")})
    with pytest.raises(UnboundOrWrongAnnotation) as error:
        check(ctx, t)
    assert (error.value.variable, error.value.annotation) == ("x", Base("a"))
    ctx = ctx.bind("x", parse_set_type("{a}")).bind("y", parse_set_type("{a}"))
    with pytest.raises(UnboundOrWrongAnnotation) as error:
        check(ctx, t)
    assert str(error.value) == "occurrence y^b not covered by the context"


def test_typing_a_wide_spine_takes_linear_memory():
    # Shape G of tests/deep.py: n distinct free variables.  A set of free
    # occurrences cached per node would hold O(n^2) pairs (342 MB traced
    # at n = 4,000, against 11 MB without).  A fresh interpreter traces
    # its allocations from before the import; its ru_maxrss would report
    # the test process's high-water mark, which a forked child inherits.
    script = (
        "import sys, tracemalloc\n"
        "tracemalloc.start()\n"
        "from setlam import minimal_context, parse_term, synthesize_type\n"
        "t = parse_term(sys.argv[1])\n"
        "synthesize_type(t)\n"
        "assert len(minimal_context(t).entries) == 4_001\n"
        "print(tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", script, shape("G", 4_000)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 100 * 2**20


def test_check_unbound():
    with pytest.raises(UnboundOrWrongAnnotation):
        check(TypingContext(), parse_term("x^a"))


def test_check_self_application_body():
    ctx = TypingContext.of({"x": parse_set_type("{{a,b}->c, a, b}")})
    assert check(ctx, parse_term("x^({a,b}->c) {x^a, x^b}")) == Base("c")


def test_check_wrong_annotation():
    ctx = TypingContext.of({"x": parse_set_type("{b}")})
    with pytest.raises(UnboundOrWrongAnnotation):
        check(ctx, parse_term("x^a"))


def test_check_refuses_an_open_term():
    # ?1 {?0}: both indices point outside the term
    t = App(BoundVar(1, parse_type("{a} -> b")), SetTerm.of([BoundVar(0, parse_type("a"))]))
    with pytest.raises(NotTypable, match="dangling bound variable"):
        check(TypingContext(), t)


def test_binder_types_reads_the_annotations_of_index_0():
    a, b, arrow = parse_type("a"), parse_type("b"), parse_type("{a} -> b")
    # ?0^({a} -> b) {?0^a}: both annotations of index 0
    t = App(BoundVar(0, arrow), SetTerm.of([BoundVar(0, a)]))
    assert binder_types(t) == SetType.of([a, arrow])
    # ?1^({a} -> b) {?0^a}: index 1 is another binder's and is ignored
    t = App(BoundVar(1, arrow), SetTerm.of([BoundVar(0, a)]))
    assert binder_types(t) == SetType.of([a])
    assert binder_types(BoundVar(2, b)) == SetType(())
    # a vacuous body, closed or open
    assert binder_types(parse_term("y^a")) == SetType(())
    assert binder_types(parse_term("\\x:{a}. x^a")) == SetType(())
    # a bound occurrence under a binder inside the body is that binder's
    inner = Lam("x", SetType.of([a]), App(BoundVar(1, arrow), SetTerm.of([BoundVar(0, a)])))
    assert binder_types(inner) == SetType.of([arrow])


# --- minimal context --------------------------------------------------------

def test_minimal_context_application():
    assert minimal_context(parse_term("x^(a -> a) {y^a}")) == TypingContext.of({
        "x": parse_set_type("{a} -> a"),
        "y": parse_set_type("{a}"),
    })


def test_minimal_context_closed():
    assert minimal_context(parse_term("\\x:{a}. x^a")) == TypingContext()


def test_minimal_context_set_union():
    s = SetTerm.of([parse_term("x^a"), parse_term("x^b")])
    groups = minimal_context(s)
    assert groups == TypingContext.of({"x": parse_set_type("{a, b}")})


def test_minimal_context_is_least(corpus):
    for entry in corpus[:50]:
        mc = minimal_context(entry.term)
        assert check(mc, entry.term) == synthesize_type(entry.term)
        assert mc.subset_of(entry.context)


def test_weakening_by_random_extension(corpus):
    rng = random.Random(7)
    extra = parse_set_type("{z4 -> z5}")
    for entry in corpus[:60]:
        ty = check(entry.context, entry.term)
        name = rng.choice(["q0", "q1", "x", "y"])
        widened = entry.context.bind(name, entry.context.get(name).union(extra))
        assert entry.context.subset_of(widened)
        assert check(widened, entry.term) == ty


def test_type_uniqueness_across_contexts(corpus):
    for entry in corpus[:60]:
        t1 = check(entry.context, entry.term)
        t2 = check(entry.context.bind("fresh", parse_set_type("{a}")), entry.term)
        assert t1 == t2 == synthesize_type(entry.term)


# --- derivations ------------------------------------------------------------

def test_check_curry_self_application():
    d = derivation_from_json(json.dumps(SELFAPP_DERIVATION))
    judgement = check_curry(d)
    assert judgement.subject == parse_untyped("\\x. x x")
    assert judgement.type_ == parse_type("{{a,b}->c, a, b} -> c")


def test_check_curry_rejects_equal_premise_types():
    bad = {
        "rule": "many", "ctx": {"x": ["a"]}, "term": "x", "type": ["a"],
        "premises": [
            {"rule": "var", "ctx": {"x": ["a"]}, "term": "x", "type": "a"},
            {"rule": "var", "ctx": {"x": ["a"]}, "term": "x", "type": "a"},
        ],
    }
    with pytest.raises(InvalidDerivation):
        check_curry(derivation_from_json(json.dumps(bad)))


def test_check_curry_rejects_var_outside_set():
    bad = {"rule": "var", "ctx": {"x": ["b"]}, "term": "x", "type": "a"}
    with pytest.raises(InvalidDerivation):
        check_curry(derivation_from_json(json.dumps(bad)))


def test_check_curry_rejects_empty_many():
    bad = {"rule": "many", "ctx": {}, "term": "x", "type": [], "premises": []}
    with pytest.raises(InvalidDerivation):
        check_curry(derivation_from_json(json.dumps(bad)))


def test_decorate_self_application():
    d = derivation_from_json(json.dumps(SELFAPP_DERIVATION))
    assert decorate(d) == SELFAPP


def test_decorate_var_and_many_nodes():
    var_node = derivation_from_json(json.dumps(
        {"rule": "var", "ctx": {"x": ["a", "b"]}, "term": "x", "type": "b"}))
    assert decorate(var_node) == Var("x", Base("b"))


def test_decorate_many_root_gives_the_set_term():
    d = derivation_from_json(json.dumps(MANY_ROOT_DERIVATION))
    decorated = decorate(d)
    assert decorated == SetTerm.of([Var("x", Base("a"))])
    assert check(d.context, decorated) == d.type_


def test_derivation_json_round_trip():
    d = derivation_from_json(json.dumps(SELFAPP_DERIVATION))
    assert derivation_from_json(json.dumps(derivation_to_json(d))) == d


def test_erase_derivation_round_trip():
    d = derivation_from_json(json.dumps(SELFAPP_DERIVATION))
    t = decorate(d)
    back = erase_derivation(t, d.context)
    assert canonical_derivation(back) == canonical_derivation(d)
    assert decorate(back) == t


# --- erasure and refinement -------------------------------------------------

def test_erase_var():
    assert erase(parse_term("x^a")) == parse_untyped("x")


def test_erase_self_application():
    assert erase(SELFAPP) == parse_untyped("\\x. x x")


def test_erase_non_uniform():
    t = parse_term("(\\x:{a}. x^a) {x^(b -> a) y^b, x^a}")
    with pytest.raises(NotUniform):
        erase(t)
    assert not is_uniform(t)


def test_refines_set_rule():
    assert refines(SetTerm.of([parse_term("x^a"), parse_term("x^b")]), parse_untyped("x"))
    assert not refines(SetTerm.of([parse_term("x^a"), parse_term("y^a")]), parse_untyped("x"))


def test_refines_keeps_the_untyped_term_as_the_erasure():
    t = parse_term(corpus.DUPLICATING)
    m = parse_untyped(pretty(erase(t)))
    assert m is not erase(t) and refines(t, m)
    # the cached erasure is now m itself, so terms built around both
    # compare by identity at m
    assert erase(t) is m
    assert refines(Lam("z", parse_set_type("{a}"), t), ULam("z", m))
    assert not refines(t, parse_untyped("x")) and erase(t) is m


def test_refines_fails_after_inner_step():
    t = parse_term(corpus.DUPLICATING)
    m = erase(t)
    # contracting inside only one element of the argument set breaks uniformity
    from setlam import i_redexes
    inner = next(r.position for r in i_redexes(t) if len(r.position) == 1)
    t1 = step_i(t, inner)
    assert not is_uniform(t1)
    assert not any(refines(t1, n) for n in (m, erase(parse_term(corpus.DUPLICATING_AFTER_ARG))))


def structural_refines(t, m) -> bool:
    """The structural definition of refinement, the reference for the
    comparison with the cached erasure."""
    match t, m:
        case (Var(x, _), UVar(y)):
            return x == y
        case (BoundVar(i, _), UBoundVar(j)):
            return i == j
        case (Lam(_, _, body), ULam(_, ubody)):
            return structural_refines(body, ubody)
        case (App(fun, arg), UApp(ufun, uarg)):
            return structural_refines(fun, ufun) and structural_refines(arg, uarg)
        case (SetTerm(elements), _):
            return len(elements) > 0 and all(structural_refines(e, m) for e in elements)
        case _:
            return False


def test_refines_agrees_with_the_structural_definition(corpus):
    from setlam import redexes, step_im
    terms = []
    for entry in corpus:
        terms.append(entry.term)
        for r in redexes(entry.term)[:2]:
            # a plain step inside one argument element can break uniformity;
            # a memory step leaves a wrapper, which refines nothing
            terms.append(step_im(entry.term, r.position))
            if r.wrapper_count == 0:
                terms.append(step_i(entry.term, r.position))
    terms += [SetTerm.of([parse_term("x^a"), parse_term("x^b")]),
              SetTerm.of([parse_term("x^a"), parse_term("y^a")])]
    untyped = list(dict.fromkeys(erase(t) for t in terms if is_uniform(t)))
    assert any(not is_uniform(t) for t in terms) and len(untyped) > 100
    agreed = 0
    for t in terms:
        for m in untyped:
            assert refines(t, m) == structural_refines(t, m)
            agreed += 1
    assert agreed > 50_000


def test_bijection_between_set_term_and_set_type(corpus):
    from setlam.syntax import App, Lam, Var, Wrap
    from setlam.binding import open_term

    fresh = iter(range(10_000))

    def sets_of(t):
        # binders are opened with fresh free variables so that collected
        # sets stay locally closed
        match t:
            case App(fun, arg):
                yield arg
                yield from sets_of(fun)
                for e in arg.elements:
                    yield from sets_of(e)
            case Wrap(head, payload):
                yield payload
                yield from sets_of(head)
                for e in payload.elements:
                    yield from sets_of(e)
            case Lam(_, binder, body):
                name = f"fv{next(fresh)}"
                yield from sets_of(open_term(body, {ty: Var(name, ty) for ty in binder}))

    for entry in corpus:
        for s in sets_of(entry.term):
            types = [synthesize_type(e) for e in s.elements]
            assert len(set(types)) == len(types)  # element -> type is a bijection


def test_corpus_decorations_round_trip(corpus, sn_samples):
    for m, inferred in sn_samples[:80]:
        d = erase_derivation(inferred.term, inferred.context)
        assert check_curry(d).type_ == synthesize_type(inferred.term)
        assert decorate(d) == inferred.term
        assert erase(inferred.term) == m


# --- derivation JSON schema and deep derivations ----------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["var", "many", "intro", "elim", "x", "a", "a -> b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["rule", "ctx", "term", "type", "premises", "select", "x"]),
        inner, max_size=6),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_only_setlam_errors_escape_derivation_json(value):
    try:
        check_curry(derivation_from_json(json.dumps(value)))
    except SetLamError:
        pass


@pytest.mark.parametrize("value, message", [
    ({}, 'invalid derivation JSON at $.rule: expected one of "var", "many", "intro", "elim"'),
    ([], "invalid derivation JSON at $: expected an object, found array"),
    ("str", "invalid derivation JSON at $: expected an object, found string"),
    ({"rule": "var", "ctx": {"x": "a"}, "term": "x", "type": "a"},
     "invalid derivation JSON at $.ctx.x: expected a list of type strings, found string"),
    ({**SELFAPP_DERIVATION, "premises": [{**SELFAPP_DERIVATION["premises"][0], "premises": [
        SELFAPP_DERIVATION["premises"][0]["premises"][0],
        {**SELFAPP_DERIVATION["premises"][0]["premises"][1], "ctx": {"x": ["a", 3]}}]}]},
     "invalid derivation JSON at $.premises[0].premises[1].ctx.x[1]:"
     " expected a type string, found number"),
    ({"rule": "var", "term": "x", "type": {"a": 1}},
     "invalid derivation JSON at $.type: expected a type string or a list of them, found object"),
    ({"rule": "var", "term": 7, "type": "a"},
     "invalid derivation JSON at $.term: expected an untyped term string, found number"),
    ({"rule": "var", "term": "x", "type": "a", "premises": {}},
     "invalid derivation JSON at $.premises: expected a list of derivation nodes, found object"),
    ({"rule": "var", "term": "x", "type": "a", "select": None},
     "invalid derivation JSON at $.select: expected a type string, found null"),
], ids=["no-rule", "array", "string", "ctx-string", "nested-ctx-number", "type-object",
        "term-number", "premises-object", "select-null"])
def test_derivation_json_schema_errors_name_the_path(value, message):
    with pytest.raises(InvalidDerivation) as error:
        derivation_from_json(json.dumps(value))
    assert str(error.value) == message


def _binder_chain(n):
    return parse_term("".join(f"\\x{i}:{{a}}. " for i in range(n)) + "x0^a")


def test_erase_derivation_of_a_deep_binder_chain_round_trips():
    t = _binder_chain(1_000)
    d = erase_derivation(t, TypingContext())
    assert check_curry(d).type_ == synthesize_type(t)
    assert decorate(d) == t
    assert pretty(d.subject) == "".join(f"\\x{i}. " for i in range(1_000)) + "x0"
