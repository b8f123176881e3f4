"""Heights, weights, simplification passes, and the decreasing measure."""

import gc
import itertools
import json
import pickle
import weakref

import pytest

from setlam import measure
from setlam import (
    Fuel, IllTyped, SetTerm, W, degree_profile, i_redexes,
    max_degree, measure_report, normal_form, parse_set_type, parse_term,
    parse_type, pretty, redexes, simp_d, simp_full, step_i, step_im,
    substitute, type_height, weight,
)
from setlam.binding import open_term
from setlam.syntax import Lam, SetType, Var, free_names, subterm_at
from setlam.typecheck import subterm_type

import corpus

SIMPLE = parse_term("(\\x:{a}.x^a) {y^a}")
FIGURE = parse_term(corpus.FIGURE_START)
BIG_FUEL = Fuel(max_nodes=50_000, max_depth=50_000)


# --- height -----------------------------------------------------------------

def test_height_base():
    assert type_height(parse_type("a")) == 0


def test_height_arrow():
    assert type_height(parse_type("{a} -> a")) == 1


def test_height_nested():
    assert type_height(parse_type("{{a} -> a, a} -> ({a} -> a)")) == 2


def test_height_set_and_empty():
    assert type_height(parse_set_type("{a, {a} -> a}")) == 1
    assert type_height(SetType(())) == 0


# --- weight -----------------------------------------------------------------

def test_weight_plain():
    assert weight(parse_term("x^a")) == 0


def test_weight_nested_wrappers():
    assert weight(parse_term("y^b [z^a [w^b]]")) == 2


def test_weight_wrapper_chain():
    assert weight(parse_term("z^a [w^b] [z^a]")) == 2


# --- max degree -------------------------------------------------------------

def test_max_degree_normal_form():
    assert max_degree(parse_term("x^a")) == 0


def test_max_degree_simple():
    assert max_degree(SIMPLE) == 1


def test_max_degree_figure():
    # outer redex degree 3, argument redexes of degrees 3 and 2
    assert max_degree(FIGURE) == 3
    assert degree_profile(FIGURE).per_degree == ((2, 1), (3, 2))


def test_max_degree_matches_redex_enumeration(corpus):
    for entry in corpus[:80]:
        degrees = [r.degree for r in redexes(entry.term)]
        assert max_degree(entry.term) == max([d for d in degrees if d is not None], default=0)


# --- simp_d -----------------------------------------------------------------

def test_simp_contracts_matching_degree():
    assert simp_d(SIMPLE, 1) == parse_term("y^a [y^a]")


def test_simp_skips_other_degrees():
    assert simp_d(SIMPLE, 2) == SIMPLE


def test_simp_on_normal_form():
    nf = parse_term("x^a")
    for d in (1, 2, 3):
        assert simp_d(nf, d) == nf


def test_simp_rejects_degree_zero():
    with pytest.raises(ValueError):
        simp_d(SIMPLE, 0)


def test_simp_soundness_reaches_same_normal_form(corpus):
    # t ->im* simp_d(t): both sides share the im normal form, and the
    # simplified term is reachable by contracting degree-d redexes
    fuel = Fuel(max_nodes=20_000, max_depth=20_000)
    for entry in corpus[:50]:
        top = max_degree(entry.term)
        if top == 0:
            continue
        for d in range(1, top + 1):
            simplified = simp_d(entry.term, d)
            assert normal_form(simplified, "im", fuel) == normal_form(entry.term, "im", fuel)
            assert _reaches_by_degree_steps(entry.term, simplified, d)


def _reaches_by_degree_steps(t, target, d, limit=400):
    # innermost-first contraction of degree-d redexes only
    current = t
    for _ in range(limit):
        if current == target:
            return True
        candidates = [r for r in redexes(current) if r.degree == d]
        innermost = [r for r in candidates
                     if not any(q.position != r.position
                                and q.position[:len(r.position)] == r.position
                                for q in candidates)]
        if not innermost:
            return current == target
        current = step_im(current, innermost[-1].position)
    return False


def test_simp_decreases_max_degree(corpus):
    # maxdeg(t) <= d implies maxdeg(simp_d(t)) < d
    for entry in corpus[:80]:
        top = max_degree(entry.term)
        stage = entry.term
        for d in range(top, 0, -1):
            assert max_degree(stage) <= d
            stage = simp_d(stage, d)
            assert max_degree(stage) < d


def test_substitution_degree_bound(corpus):
    # maxdeg(arg) < d, type_height(binder) < d, maxdeg(body) < d imply
    # maxdeg(body{x := arg}) < d
    instances = 0
    for entry in corpus:
        for r in redexes(entry.term):
            node = subterm_at(entry.term, r.position)
            core = node.fun
            while not isinstance(core, Lam):
                core = core.head
            opened = open_term(core.body, {ty: Var("zz", ty) for ty in core.binder})
            if "zz" in free_names(node.arg):
                continue
            d = 1 + max(max_degree(node.arg), type_height(core.binder), max_degree(opened))
            result = substitute(opened, "zz", core.binder, node.arg)
            assert max_degree(result) < d
            instances += 1
            # when the redex degree itself satisfies the hypotheses, use it too
            if r.degree is not None and max(
                    max_degree(node.arg), type_height(core.binder), max_degree(opened)) < r.degree:
                assert max_degree(result) < r.degree
                instances += 1
    assert instances >= 200


def test_no_abstraction_creation(corpus):
    # a non-w-abstraction of high enough type stays a non-w-abstraction
    # after the pass of its own max degree
    from setlam.syntax import App, SetTerm as SetTermNode, Wrap, Lam as LamNode

    def is_wabs(t):
        while isinstance(t, Wrap):
            t = t.head
        return isinstance(t, LamNode)

    def subterms(t):
        yield t
        match t:
            case LamNode(_, _, body):
                yield from subterms(body)
            case App(fun, arg):
                yield from subterms(fun)
                for e in arg.elements:
                    yield from subterms(e)
            case Wrap(head, payload):
                yield from subterms(head)
                for e in payload.elements:
                    yield from subterms(e)

    handcrafted = parse_term(
        "z^({a -> a} -> ((a -> a) -> a -> a))"
        " {(\\w:{a -> a}. w^(a -> a)) {\\v:{a}. v^a}}")
    assert max_degree(handcrafted) == 2 and not is_wabs(handcrafted)
    assert type_height(subterm_type(handcrafted)) == 2

    checked = 0
    pool = [handcrafted] + [e.term for e in corpus]
    for t in pool:
        for sub in subterms(t):
            if is_wabs(sub) or isinstance(sub, SetTermNode):
                continue
            d = max_degree(sub)
            if d >= 1 and type_height(subterm_type(sub)) >= d:
                assert not is_wabs(simp_d(sub, d))
                checked += 1
    assert checked >= 3


# --- simp_full and W --------------------------------------------------------

def test_simp_full_normal_form_is_identity():
    nf = parse_term("x^a")
    assert simp_full(nf) == nf


def test_simp_full_simple():
    assert simp_full(SIMPLE) == parse_term("y^a [y^a]")


def test_simp_full_figure_matches_oracle():
    expected = normal_form(FIGURE, "im", BIG_FUEL)
    assert simp_full(FIGURE) == expected
    assert expected == parse_term(corpus.FIGURE_NORMAL_FORM)


def test_W_normal_form():
    assert W(parse_term("x^a")) == 0


def test_W_erasing_example():
    assert W(parse_term(corpus.GOLDEN_ERASING)) == 2


def test_W_figure():
    assert W(FIGURE) == 7  # weight of the converged normal form


def test_W_rejects_wrappers():
    with pytest.raises(IllTyped):
        W(parse_term("y^a [z^b]"))


def test_W_decreases_on_simple_chain():
    t = parse_term(corpus.DUPLICATING)
    seen = [W(t)]
    while True:
        rs = i_redexes(t)
        if not rs:
            break
        t = step_i(t, rs[0].position)
        seen.append(W(t))
    assert all(x > y for x, y in zip(seen, seen[1:]))
    assert seen[-1] == 0


def test_simp_full_stable_under_memory_steps(corpus):
    # t ->im s implies simp_full(t) == simp_full(s)
    checked = 0
    for entry in corpus[:80]:
        for r in redexes(entry.term)[:3]:
            stepped = step_im(entry.term, r.position)
            assert simp_full(stepped) == simp_full(entry.term)
            checked += 1
    assert checked >= 60


def test_simp_full_tracks_forgetting(corpus):
    # t |> s implies simp_full(t) |>+ simp_full(s)
    from setlam import forgetful_reducts

    def forget_closure(t):
        seen, frontier = set(), {t}
        while frontier:
            nxt = set()
            for u in frontier:
                for _, v in forgetful_reducts(u):
                    if v not in seen:
                        seen.add(v)
                        nxt.add(v)
            frontier = nxt
        return seen

    pool = [step_im(e.term, redexes(e.term)[0].position)
            for e in corpus if redexes(e.term)][:25]
    checked = 0
    for t in pool:
        full_t = simp_full(t)
        for _, s in forgetful_reducts(t):
            assert simp_full(s) in forget_closure(full_t)
            checked += 1
    assert checked >= 25


# --- reports ----------------------------------------------------------------

def test_report_normal_form():
    report = measure_report(parse_term("x^a"))
    assert report.stages == () and report.measure == 0


def test_report_simple():
    report = measure_report(SIMPLE)
    assert len(report.stages) == 1 and report.measure == 1
    assert report.normal_form == parse_term("y^a [y^a]")


def test_report_stage_degrees_bounded(corpus):
    for entry in corpus[:60]:
        report = measure_report(entry.term)
        for after_degree, _, stage_max in report.stages:
            assert stage_max < after_degree
        # a fresh copy and the oracle, not simp_full(entry.term), which
        # would read the transcript the report itself was built from
        assert report.normal_form == simp_full(parse_term(pretty(entry.term)))
        assert report.normal_form == normal_form(entry.term, "im", BIG_FUEL)
        assert redexes(report.normal_form) == []


def test_report_refuses_wrapped_terms():
    with pytest.raises(IllTyped, match="^the measure is defined on wrapper-free terms$"):
        measure_report(parse_term("y^a [z^b]"))


def test_a_redex_that_does_not_synthesize_has_no_degree():
    t = parse_term("(\\x:{a}. x^b) {y^a}")
    assert [r.degree for r in redexes(t)] == [None]
    with pytest.raises(IllTyped, match=r"^redex at \[\] does not synthesize$"):
        degree_profile(t)


def test_report_json_shape():
    data = measure_report(SIMPLE).to_json_dict()
    assert data["formatVersion"] == 1
    assert data["W"] == 1
    assert data["maxDegree"] == 1
    assert [s["afterDegree"] for s in data["stages"]] == [1]


# --- the transcript stored on a term ----------------------------------------

CALLS = {"W": W, "simp_full": simp_full, "measure_report": measure_report}


@pytest.mark.parametrize("order", list(itertools.permutations(CALLS)), ids="-".join)
def test_one_term_object_is_simplified_once(order, monkeypatch):
    t = parse_term(corpus.FIGURE_START)
    passes = []
    simplify = measure.simp_d
    monkeypatch.setattr(measure, "simp_d", lambda s, d: passes.append(d) or simplify(s, d))
    results = {name: CALLS[name](t) for name in order}
    assert passes == list(range(max_degree(FIGURE), 0, -1)) and len(passes) > 1
    assert results["W"] == 7 == results["measure_report"].measure
    assert results["simp_full"] is results["measure_report"].normal_form


def test_stored_transcript_matches_a_fresh_copy(corpus):
    # Each fresh copy is unpickled, so it is rebuilt through the
    # constructors with t's binder hints and no stored transcript.
    for entry in corpus:
        t, dumped = entry.term, pickle.dumps(entry.term)
        for _ in range(2):  # the second round reads what the first stored
            assert W(t) == W(pickle.loads(dumped))
            full, fresh = simp_full(t), simp_full(pickle.loads(dumped))
            assert full == fresh and pretty(full) == pretty(fresh)
            assert (json.dumps(measure_report(t).to_json_dict())
                    == json.dumps(measure_report(pickle.loads(dumped)).to_json_dict()))


def test_a_term_that_does_not_synthesize_stores_no_transcript():
    t = parse_term("(\\x:{a}. x^b) {y^a}")
    for call in CALLS.values():
        raised = []
        for _ in range(2):
            with pytest.raises(IllTyped) as error:
                call(t)
            raised.append((type(error.value), str(error.value)))
        assert raised[0] == raised[1]
        assert t.simplifications is None


def test_the_transcript_is_not_part_of_identity():
    t, u = parse_term(corpus.FIGURE_START), parse_term(corpus.FIGURE_START)
    text, dumped = repr(t), pickle.dumps(t)
    W(t)
    assert t.simplifications and u.simplifications is None
    assert t == u and hash(t) == hash(u) and repr(t) == text == repr(u)
    assert pickle.dumps(t) == dumped == pickle.dumps(u)
    loaded = pickle.loads(dumped)
    assert loaded == t and loaded.simplifications is None


def test_the_transcript_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = parse_term(corpus.FIGURE_START)
        W(t)
        measure_report(t)
        term, normal = weakref.ref(t), weakref.ref(simp_full(t))
        del t
        assert term() is None and normal() is None
    finally:
        if enabled:
            gc.enable()
