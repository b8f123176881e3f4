"""Steps, substitution, developments, parallel reduction, simulation."""

import random
from collections import deque
from itertools import islice
from operator import itemgetter

import pytest

from setlam import (
    FuelExhausted, IllTyped, MissingSubstituent, NotARedex, NotTypable, NotUniform,
    SetLamError, SetTerm,
    Step, beta_redexes, beta_step, check, complete_development,
    corresponding_step, erase, erased_position, forgetful_reducts,
    i_redexes, infer_sn, is_uniform, minimal_context, par_reduces, parallel_reducts,
    parse_set_type, parse_term, parse_untyped, project_step,
    random_parallel_reduct, redexes, refines, simulate_beta, step_i,
    step_im, substitute, synthesize_type, weight,
)
from setlam.binding import open_term
from setlam.measure import W, measure_report, simp_d, simp_full
from setlam.oracle import explore, longest_chain, normal_form
from setlam import reduction
from setlam.reduction import (
    normalize, reducts, reduction_sequence, redex_positions, require_plain,
    step,
)
from setlam.syntax import (
    Var, free_names, is_wrapper_free, pretty, replace_at, subterm_at, term_size,
)

import corpus
from corpus import INFER_FUEL, church_application, generate_sn_samples, random_untyped
from deep import shape

SIMPLE = parse_term("(\\x:{a}.x^a) {y^a}")
DUP = parse_term(corpus.DUPLICATING)
# A plain redex under a wrapped argument, and an argument whose set-type
# differs from the binder (ill-typed, but every element has a type).
WRAPPED = parse_term("(\\x:{a}. y^b) {z^a [w^b]}")
MISMATCHED = parse_term("(\\x:{a}. z^c) {y^b}")


# --- substitution -----------------------------------------------------------

def test_substitute_single():
    out = substitute(parse_term("x^a"), "x", parse_set_type("{a}"),
                     SetTerm.of([parse_term("y^a")]))
    assert out == parse_term("y^a")


def test_substitute_not_free():
    out = substitute(parse_term("z^c"), "x", parse_set_type("{a}"),
                     SetTerm.of([parse_term("y^a")]))
    assert out == parse_term("z^c")


def test_substitute_selects_by_type():
    body = parse_term("x^({b} -> b) {x^b}")
    arg = SetTerm.of([parse_term("u^(b -> b)"), parse_term("v^b")])
    out = substitute(body, "x", parse_set_type("{{b} -> b, b}"), arg)
    assert out == parse_term("u^(b -> b) {v^b}")


def test_substitute_missing_substituent():
    # occurrence annotation outside the substituted set
    with pytest.raises(MissingSubstituent):
        substitute(parse_term("x^b"), "x", parse_set_type("{a}"),
                   SetTerm.of([parse_term("y^a")]))


def test_substitute_rejects_mismatched_argument():
    with pytest.raises(IllTyped):
        substitute(parse_term("x^b"), "x", parse_set_type("{b}"),
                   SetTerm.of([parse_term("y^a")]))
    with pytest.raises(IllTyped, match="^set-term elements share the type a$"):
        substitute(parse_term("x^a"), "x", parse_set_type("{a}"),
                   SetTerm.of([parse_term("y^a"), parse_term("z^a")]))


def test_substitute_checks_substituents_under_context():
    from setlam import TypingContext, UnboundOrWrongAnnotation
    with pytest.raises(UnboundOrWrongAnnotation):
        substitute(parse_term("x^a"), "x", parse_set_type("{a}"),
                   SetTerm.of([parse_term("y^a")]), TypingContext())


def test_substitution_commutation(corpus):
    # t{y := s}{x := r} = t{x := r}{y := s{x := r}} when y not free in r
    count = 0
    for entry in corpus:
        if count >= 40:
            break
        rs = [r for r in i_redexes(entry.term)]
        if not rs:
            continue
        # build an instance from the first redex: t = opened body
        from setlam.syntax import App, Lam, subterm_at
        node = subterm_at(entry.term, rs[0].position)
        lam = node.fun
        if not isinstance(lam, Lam):
            continue
        opened = open_term(lam.body, {ty: Var("yy", ty) for ty in lam.binder})
        r_arg = node.arg
        if "yy" in free_names(r_arg):
            continue
        s_arg = SetTerm.of([Var("xx", ty) for ty in lam.binder])
        lhs = substitute(
            substitute(opened, "yy", lam.binder, s_arg), "xx", lam.binder, r_arg)
        rhs_inner = substitute(s_arg, "xx", lam.binder, r_arg)
        assert isinstance(rhs_inner, SetTerm)
        rhs = substitute(
            substitute(opened, "xx", lam.binder, r_arg), "yy", lam.binder, rhs_inner)
        assert lhs == rhs
        count += 1
    assert count >= 10


# --- redex enumeration ------------------------------------------------------

def test_redexes_simple():
    rs = redexes(SIMPLE)
    assert len(rs) == 1 and rs[0].position == () and rs[0].degree == 1


def test_redexes_normal_form():
    assert redexes(parse_term("x^a")) == []


def test_redexes_wrapped():
    t = parse_term("((\\x:{a}.x^a)[w^b]) {y^a}")
    rs = redexes(t)
    assert len(rs) == 1 and rs[0].wrapper_count == 1
    assert i_redexes(t) == []


def test_redex_enumeration_is_position_ordered(corpus):
    for entry in corpus[:50]:
        ps = [r.position for r in redexes(entry.term)]
        assert ps == sorted(ps)


def test_redex_positions_match_redex_enumeration(corpus):
    for entry in corpus:
        t = entry.term
        assert redex_positions(t, "im") == [r.position for r in redexes(t)]
        assert redex_positions(t, "i") == [r.position for r in i_redexes(t)]


# --- single steps -----------------------------------------------------------

def test_step_i_simple():
    assert step_i(SIMPLE, ()) == parse_term("y^a")


def test_step_i_outer_duplicating():
    # contracting the outer redex splits the argument set over the body
    out = step_i(DUP, ())
    expected = parse_term(
        "((\\u:{(b -> b) -> b -> b}. u^((b -> b) -> b -> b)) {\\u:{b -> b}. u^(b -> b)})"
        " {(\\u:{b -> b}. u^(b -> b)) {\\u:{b}. u^b}}")
    assert out == expected
    assert refines(out, parse_untyped("((\\u. u) (\\u. u)) ((\\u. u) (\\u. u))"))


def test_step_i_erasing():
    assert step_i(parse_term("(\\x:{a}.z^b) {y^a}"), ()) == parse_term("z^b")


def test_step_i_rejects_wrappers():
    t = parse_term("((\\x:{a}.x^a)[w^b]) {y^a}")
    with pytest.raises(IllTyped):
        step_i(t, ())


def test_step_i_not_a_redex():
    with pytest.raises(NotARedex):
        step_i(parse_term("x^(a -> b) {y^a}"), ())


def test_step_im_records_wrapper():
    assert step_im(parse_term("(\\x:{a}.z^b) {y^a}"), ()) == parse_term("z^b [y^a]")


def test_step_im_two_step_swap():
    t = parse_term(corpus.GOLDEN_SWAP)
    u1 = step_im(t, (0,))
    assert u1 == parse_term("((\\y:{b}.z^a) [z^a]) w^b")
    u2 = step_im(u1, ())
    assert u2 == parse_term("z^a [w^b] [z^a]")
    assert weight(u2) == 2


def test_step_im_wrapped_redex():
    t = parse_term("((\\x:{a}.x^a)[u^c]) {y^a}")
    assert step_im(t, ()) == parse_term("y^a [y^a] [u^c]")


def test_corresponding_step():
    assert corresponding_step(SIMPLE, ()) == parse_term("y^a [y^a]")
    with pytest.raises(NotARedex):
        corresponding_step(parse_term("x^a"), ())


def test_corresponding_step_non_erasing():
    # the plain step erases the argument, the memory step keeps it
    t = parse_term("(\\x:{a}. z^(a -> a -> b) x^a x^a) {\\w:{c}.u^a}")
    # x occurs twice; annotate a fresh different shape: typed version of (\x. z x x) I
    t = parse_term("(\\x:{c -> a}. z^((c -> a) -> (c -> a) -> b) x^(c -> a) x^(c -> a))"
                   " {\\w:{c}.u^a}")
    i_result = step_i(t, ())
    im_result = corresponding_step(t, ())
    assert i_result == parse_term(
        "z^((c -> a) -> (c -> a) -> b) (\\w:{c}.u^a) (\\w:{c}.u^a)")
    assert im_result == parse_term(
        "(z^((c -> a) -> (c -> a) -> b) (\\w:{c}.u^a) (\\w:{c}.u^a)) [\\w:{c}.u^a]")


def test_step_under_binder_lifts_bound_arguments():
    # the argument refers to an enclosing binder and lands under a new one
    t = parse_term("\\y:{a}. (\\x:{a}. \\z:{c}. x^a) {y^a}")
    assert step_i(t, (0,)) == parse_term("\\y:{a}. \\z:{c}. y^a")
    assert step_im(t, (0,)) == parse_term("\\y:{a}. (\\z:{c}. y^a) [y^a]")
    assert synthesize_type(step_i(t, (0,))) == synthesize_type(t)


def test_step_under_binder_deep_lift():
    t = parse_term("\\y:{a}. (\\x:{a}. \\z:{c}. \\w:{c}. x^a) {y^a}")
    out = step_i(t, (0,))
    assert out == parse_term("\\y:{a}. \\z:{c}. \\w:{c}. y^a")
    assert synthesize_type(out) == synthesize_type(t)


def test_beta_under_binder_lifts():
    m = parse_untyped("\\y. (\\x. \\z. x) y")
    assert beta_step(m, (0,)) == parse_untyped("\\y. \\z. y")


# --- forgetful reduction ----------------------------------------------------

def test_forgetful_single():
    out = forgetful_reducts(parse_term("y^a [w^b]"))
    assert [(p, pretty(r)) for p, r in out] == [((), "y^a")]


def test_forgetful_nested():
    out = forgetful_reducts(parse_term("y^b [z^a [w^b]]"))
    results = {pretty(r) for _, r in out}
    assert results == {"y^b", "y^b [z^a]"}


def test_forgetful_none():
    assert forgetful_reducts(parse_term("x^a")) == []


def test_forgetful_strictly_decreases_weight(corpus):
    rng = random.Random(3)
    pool = [parse_term("y^b [z^a [w^b]]"), parse_term("z^a [w^b] [z^a]")]
    pool += [step_im(e.term, redexes(e.term)[0].position)
             for e in corpus if redexes(e.term)][:40]
    for t in pool:
        for _, reduct in forgetful_reducts(t):
            assert weight(reduct) < weight(t)


def test_reduce_forget(corpus):
    # the corresponding step forgetful-reduces to the plain step in one hop
    checked = 0
    for entry in corpus:
        for r in i_redexes(entry.term):
            plain = step_i(entry.term, r.position)
            memory = corresponding_step(entry.term, r.position)
            assert any(reduct == plain for _, reduct in forgetful_reducts(memory))
            checked += 1
    assert checked >= 100


def test_forgetful_commutes_with_reduction(corpus):
    # local commutation: from t1 with t1 ->im t2 and t1 |> t3 there is t4
    # with t3 ->im (at most one step) t4 and t2 |>+ t4
    pool = [step_im(e.term, redexes(e.term)[0].position)
            for e in corpus if redexes(e.term)][:60]
    pool += [step_im(t, redexes(t)[0].position) for t in pool if redexes(t)][:30]
    checked = 0
    for t1 in pool:
        steps = [(r.position, step_im(t1, r.position)) for r in redexes(t1)]
        forgets = forgetful_reducts(t1)
        for _, t2 in steps:
            for _, t3 in forgets:
                t4_candidates = {t3} | {step_im(t3, r.position) for r in redexes(t3)}
                reachable = _forget_closure(t2)
                assert t4_candidates & reachable, "commutation diagram does not close"
                checked += 1
    assert checked >= 50


def _forget_closure(t):
    seen = set()
    frontier = {t}
    while frontier:
        nxt = set()
        for u in frontier:
            for _, v in forgetful_reducts(u):
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return seen  # proper (one or more forget steps) closure


# --- subject reduction and set invariants ------------------------------------

def test_subject_reduction_on_corpus(corpus):
    for entry in corpus:
        ty = synthesize_type(entry.term)
        for r in redexes(entry.term):
            stepped = step_im(entry.term, r.position)
            assert synthesize_type(stepped) == ty
            assert check(entry.context, stepped) == ty
        for r in i_redexes(entry.term):
            stepped = step_i(entry.term, r.position)
            assert synthesize_type(stepped) == ty
            assert check(entry.context, stepped) == ty


# --- developments and parallel reduction -------------------------------------

def test_complete_development_single_redex():
    assert complete_development(SIMPLE, "i") == parse_term("y^a")
    assert complete_development(SIMPLE, "im") == parse_term("y^a [y^a]")


def test_complete_development_normal_form():
    nf = parse_term("x^a")
    assert complete_development(nf, "i") == nf
    assert complete_development(nf, "im") == nf


def test_par_reflexive(corpus):
    for entry in corpus[:30]:
        assert par_reduces(entry.term, entry.term, "im")


def test_par_single_steps(corpus):
    for entry in corpus[:30]:
        for r in redexes(entry.term)[:3]:
            assert par_reduces(entry.term, step_im(entry.term, r.position), "im")
        for r in i_redexes(entry.term)[:3]:
            assert par_reduces(entry.term, step_i(entry.term, r.position), "i")


def test_par_reaches_complete_development(corpus):
    for entry in corpus[:30]:
        assert par_reduces(entry.term, complete_development(entry.term, "im"), "im")
        assert par_reduces(entry.term, complete_development(entry.term, "i"), "i")


def test_diamond_property(corpus):
    # both one-step reducts parallel-reduce to the complete development
    for entry in corpus[:40]:
        dev = complete_development(entry.term, "im")
        for r in redexes(entry.term)[:4]:
            assert par_reduces(step_im(entry.term, r.position), dev, "im")


def test_random_parallel_reducts_are_parallel_steps(corpus):
    rng = random.Random(11)
    for entry in corpus[:25]:
        for _ in range(3):
            t_prime = random_parallel_reduct(entry.term, rng, "im")
            assert par_reduces(entry.term, t_prime, "im")
            assert par_reduces(t_prime, complete_development(entry.term, "im"), "im")


# --- untyped beta -----------------------------------------------------------

def test_beta_machinery():
    m = parse_untyped("(\\x. x x) ((\\y. y) z)")
    assert beta_redexes(m) == [(), (1,)]
    assert beta_step(m, (1,)) == parse_untyped("(\\x. x x) z")
    assert beta_step(m, ()) == parse_untyped("((\\y. y) z) ((\\y. y) z)")


def test_beta_capture_avoiding():
    m = parse_untyped("(\\x. \\y. x) y")
    stepped = beta_step(m, ())
    # the free y is not captured by the inner binder
    assert stepped == parse_untyped("\\w. y")
    assert pretty(stepped) != "\\y. y"


# --- simulation -------------------------------------------------------------

def test_simulate_argument_redex_runs_through_both_copies():
    m = erase(DUP)
    n, final, steps = simulate_beta(DUP, m, (1,))
    assert len(steps) == 2
    assert final == parse_term(corpus.DUPLICATING_AFTER_ARG)
    assert refines(final, n)


def test_simulate_head_redex_single_step():
    t = parse_term("(\\x:{a}.x^a) {y^a}")
    n, final, steps = simulate_beta(t, parse_untyped("(\\x. x) y"), ())
    assert n == parse_untyped("y")
    assert final == parse_term("y^a")
    assert len(steps) == 1


def test_simulate_outer_redex_of_duplicating_term():
    m = erase(DUP)
    n, final, steps = simulate_beta(DUP, m, ())
    assert len(steps) == 1
    assert refines(final, n)
    assert final == step_i(DUP, ())


def test_simulate_refuses_a_set_term():
    t = parse_term("(\\x:{a}. x^a) {y^a}")
    with pytest.raises(ValueError, match="not a term that refines m"):
        simulate_beta(SetTerm.of([t]), parse_untyped("(\\x. x) y"), ())


def test_simulate_refuses_an_ill_typed_term():
    # it refines Omega, but applies x^a, whose type is no arrow
    t = parse_term("(\\x:{a}. x^a {x^a}) {\\x:{a}. x^a {x^a}}")
    with pytest.raises(NotTypable):
        simulate_beta(t, parse_untyped("(\\x. x x) (\\x. x x)"), ())


def test_simulate_refuses_a_term_that_does_not_refine():
    with pytest.raises(ValueError, match="not a term that refines m"):
        simulate_beta(parse_term("(\\x:{a}. x^a) {y^a}"), parse_untyped("(\\x. x) z"), ())


def test_simulate_on_corpus(corpus):
    done = 0
    for entry in corpus:
        if done >= 60 or entry.untyped is None:
            continue
        m = entry.untyped
        bs = beta_redexes(m)
        if not bs:
            continue
        n, final, steps = simulate_beta(entry.term, m, bs[0])
        assert steps and refines(final, n)
        done += 1
    assert done >= 30


def test_project_step_uniform_single_copy():
    t = parse_term("(\\x:{a}.x^a) {y^a}")
    s = step_i(t, ())
    n, s_prime, steps = project_step(t, s, ())
    assert n == parse_untyped("y") and s_prime == s and steps == []


def test_project_step_completes_non_uniform():
    inner = next(r.position for r in i_redexes(DUP) if len(r.position) == 1)
    s = step_i(DUP, inner)
    assert not is_uniform(s)
    n, s_prime, steps = project_step(DUP, s, inner)
    assert s_prime == parse_term(corpus.DUPLICATING_AFTER_ARG)
    assert len(steps) == 1
    assert refines(s_prime, n)


def reference_project_step(t, s, pos):
    """project_step with its completion found by a plain breadth-first
    search: each term's redexes by position, each stepped on its own."""
    n = beta_step(erase(t), erased_position(t, pos))
    copies = 0
    for q in redex_positions(s, "i"):
        try:
            copies += erased_position(s, q) == erased_position(t, pos)
        except ValueError:
            pass
    budget = (1 + copies) * term_size(s) + term_size(s)
    explored, seen, queue = 0, {s}, deque([(s, ())])
    while queue:
        current, steps = queue.popleft()
        explored += 1
        if refines(current, n):
            return n, current, list(steps)
        if explored >= budget:
            break
        for q in redex_positions(current, "i"):
            nxt = step(current, q, "i")
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, steps + (Step("i", q, current, nxt),)))
    raise AssertionError(f"no completion within {budget} explored terms")


def test_project_step_matches_the_reference_search(corpus):
    def printed(result):
        n, completed, steps = result
        return n, pretty(completed), [
            (st.kind, st.position, pretty(st.source), pretty(st.target)) for st in steps]

    completed = 0
    for entry in corpus:
        for r in i_redexes(entry.term):
            s = step_i(entry.term, r.position)
            result = project_step(entry.term, s, r.position)
            assert printed(result) == printed(reference_project_step(entry.term, s, r.position))
            completed += bool(result[2])
    assert completed > 20  # searches that take steps


def test_project_step_requires_the_step():
    inner = next(r.position for r in i_redexes(DUP) if len(r.position) == 1)
    with pytest.raises(ValueError, match="^s is not the step of t at pos$"):
        project_step(DUP, DUP, inner)


def test_project_step_refuses_an_ill_typed_term():
    # y is applied at domain {b} to a set of type {a}; contracting the
    # redex at the root types only the redex, so `step_i` builds s
    t = parse_term("(\\x:{a}. y^(b -> c) {x^a}) {z^a}")
    with pytest.raises(NotTypable) as error:
        project_step(t, step_i(t, ()), ())
    assert str(error.value) == "not typable at [0, 0]: argument set-type {a} != domain {b}"
    assert error.value.position == (0, 0)


def test_project_step_refuses_a_set_term():
    # before any position is read: at [0] of a one-element set-term the
    # step is the element's own, at [] there is no redex
    t = SetTerm.of([SIMPLE])
    for pos, s in (((0,), SetTerm.of([step_i(SIMPLE, ())])), ((), t)):
        with pytest.raises(ValueError, match="^t is not a term$"):
            project_step(t, s, pos)


# --- the wrapper-free guard and the binder check ----------------------------

def test_plain_stepping_refuses_wrapped_terms():
    for run in (lambda: step_i(WRAPPED, ()), lambda: normalize(WRAPPED, "i", 5),
                lambda: complete_development(WRAPPED, "i"),
                lambda: parallel_reducts(WRAPPED, "i")):
        with pytest.raises(IllTyped, match="plain reduction is defined on wrapper-free terms"):
            run()
    # project_step erases its source first, which refuses the wrapper
    with pytest.raises(NotUniform):
        project_step(WRAPPED, step_im(WRAPPED, ()), ())


def test_developments_take_an_annotated_calculus():
    with pytest.raises(ValueError, match="^calculus must be 'i' or 'im', not 'beta'$"):
        complete_development(SIMPLE, "beta")


def test_plain_guard_is_checked_at_the_first_step_only():
    with pytest.raises(FuelExhausted):
        normalize(WRAPPED, "i", 0)
    no_plain_redex = parse_term("y^b [z^a]")
    assert normalize(no_plain_redex, "i", 5) == (no_plain_redex, 0)
    assert normalize(WRAPPED, "im", 5) == (parse_term("y^b [z^a [w^b]]"), 1)


def test_not_a_redex_names_the_calculus():
    with pytest.raises(NotARedex, match=r"no i redex at \[\]"):
        step_i(parse_term("x^(a -> b) {y^a}"), ())
    with pytest.raises(NotARedex, match=r"no im redex at \[0\]"):
        step_im(SIMPLE, (0,))
    with pytest.raises(NotARedex, match=r"no beta redex at \[0\]"):
        beta_step(parse_untyped("(\\x. x) y"), (0,))


def test_developments_check_the_binder():
    heads = random.Random()
    heads.random = lambda: 0.0  # every coin contracts
    for run in (lambda: step_i(MISMATCHED, ()), lambda: step_im(MISMATCHED, ()),
                lambda: complete_development(MISMATCHED, "i"),
                lambda: complete_development(MISMATCHED, "im"),
                lambda: random_parallel_reduct(MISMATCHED, heads, "im"),
                lambda: parallel_reducts(MISMATCHED, "im"),
                lambda: simp_d(MISMATCHED, 1)):
        with pytest.raises(NotTypable) as error:
            run()
        assert str(error.value) == "not typable at []: argument set-type {b} != domain {a}"
    # A contraction with no entry check names the binder itself.
    with pytest.raises(IllTyped, match=r"^argument set-type \{b\} != binder \{a\}$"):
        list(reducts(MISMATCHED, "i", {}))


# The argument's element f^a {g^a} applies a non-arrow.  Contracting the
# redex types that element alone, where the failure is at its root.
APPLIES_A_BASE = parse_term("(\\u:{a}. u^a) {f^a {g^a}}")


@pytest.mark.parametrize("run", [
    lambda t: synthesize_type(t), lambda t: W(t), lambda t: measure_report(t),
    lambda t: explore(t, "i"), lambda t: explore(t, "im"),
    lambda t: normal_form(t, "i"), lambda t: normal_form(t, "im"),
    lambda t: longest_chain(t, "i"), lambda t: longest_chain(t, "im"),
    lambda t: normalize(t, "i", 10), lambda t: normalize(t, "im", 10),
    lambda t: list(reduction_sequence(t, "im", next)),
    lambda t: step_i(t, ()), lambda t: step_im(t, ()), lambda t: corresponding_step(t, ()),
    lambda t: complete_development(t, "i"), lambda t: complete_development(t, "im"),
    lambda t: parallel_reducts(t, "im"), lambda t: parallel_reducts(t, "i"),
    lambda t: random_parallel_reduct(t, random.Random(0)),
    lambda t: simp_full(t), lambda t: simp_d(t, 1),
], ids=["synthesize_type", "W", "measure_report", "explore-i", "explore-im",
        "normal_form-i", "normal_form-im", "longest_chain-i", "longest_chain-im",
        "normalize-i", "normalize-im", "reduction_sequence", "step_i", "step_im",
        "corresponding_step", "complete_development-i", "complete_development-im",
        "parallel_reducts-im", "parallel_reducts-i", "random_parallel_reduct",
        "simp_full", "simp_d"])
def test_an_ill_typed_term_fails_at_its_own_position(run):
    with pytest.raises(NotTypable) as error:
        run(APPLIES_A_BASE)
    assert str(error.value) == "not typable at [1]: applied term has non-arrow type a"


def test_erased_position():
    assert erased_position(DUP, ()) == ()
    inner = next(r.position for r in i_redexes(DUP) if len(r.position) == 1)
    assert erased_position(DUP, inner) == (1,)
    assert erased_position(DUP, inner + (0, 0)) == (1, 0, 0)


@pytest.mark.parametrize("t, pos", [
    (parse_term("\\x:{a}. y^a [x^a]"), (0, 0)),  # through a wrapper
    (SetTerm.of([SIMPLE]), (0,)),  # from a set-term root
    (parse_untyped("(\\x. x) y"), (0,)),  # an untyped term
    (SIMPLE, (2,)), (SIMPLE, (-1,)), (SIMPLE, (0, 1)),  # out of range
], ids=["wrapper", "set-term", "untyped", "past-argument", "negative", "past-body"])
def test_erased_position_refuses_a_position_that_does_not_erase(t, pos):
    with pytest.raises(ValueError) as error:
        erased_position(t, pos)
    assert str(error.value) == f"position {list(pos)} does not erase"


# --- the stepping loop: one redex search per step ----------------------------

def reference_sequence(t, calculus, choose):
    """reduction_sequence as a listing loop: every redex position of each
    term listed, one chosen by position, and that step made by `step`."""
    found = redex_positions(t, calculus)
    if found:
        require_plain(t, calculus)
    while found:
        pos = choose(found)
        t = step(t, pos, calculus)
        yield pos, t
        found = redex_positions(t, calculus)


def reference_normalize(t, calculus, max_steps):
    steps = 0
    for _, t in islice(reference_sequence(t, calculus, itemgetter(0)), max_steps):
        steps += 1
    if steps == max_steps and redex_positions(t, calculus):
        raise FuelExhausted(f"no normal form within {max_steps} steps")
    return t, steps


def reference_simulate_beta(t, m, pos):
    """simulate_beta with each copy found by position and stepped by `step`."""
    n = beta_step(m, pos)
    target = subterm_at(n, pos)
    current, steps = t, []
    while not refines(current, n):
        q = next(q for q in redex_positions(current, "i")
                 if erased_position(current, q) == pos
                 and not refines(subterm_at(current, q), target))
        nxt = step(current, q, "i")
        steps.append(Step("i", q, current, nxt))
        current = nxt
    return n, current, steps


def outcome(run):
    """What run() returns, or the type and text of the error it raises."""
    try:
        return run()
    except SetLamError as error:
        return type(error), str(error)


CHURCH_PAIRS = ((2, 2), (2, 3), (3, 2), (1, 8), (2, 4))


@pytest.fixture(scope="module")
def sequence_inputs(corpus):
    """(term, calculus) for the differential tests: the corpus, Church
    applications and the deep-input shapes at a small size, each typed
    term in both annotated calculi and each untyped one in beta."""
    churches = [church_application(m, n) for m, n in CHURCH_PAIRS]
    typed = [entry.term for entry in corpus]
    typed += [infer_sn(m, INFER_FUEL).term for m in churches]
    typed += [parse_term(shape(name, 6)) for name in "ABCDFG"]
    untyped = [entry.untyped for entry in corpus if entry.untyped is not None]
    untyped += churches + [parse_untyped(shape("E", 6))]
    return ([(t, calculus) for t in typed for calculus in ("i", "im")]
            + [(m, "beta") for m in untyped])


def test_reduction_sequence_matches_the_listing_loop(sequence_inputs):
    stepped = 0
    for t, calculus in sequence_inputs:
        expected = outcome(lambda: list(reference_sequence(t, calculus, itemgetter(0))))
        assert outcome(lambda: list(reduction_sequence(t, calculus, next))) == expected
        stepped += len(expected)
        for seed in range(3):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            random_sites = lambda sites: rng.choice(list(sites))
            assert outcome(lambda: list(reduction_sequence(t, calculus, random_sites))) == (
                outcome(lambda: list(reference_sequence(t, calculus, reference_rng.choice))))
    assert stepped > 1_000


def test_normalize_matches_the_listing_loop(sequence_inputs):
    for t, calculus in sequence_inputs:
        steps = reference_normalize(t, calculus, 100_000)[1]
        for fuel in {0, 1, steps}:
            assert (outcome(lambda: normalize(t, calculus, fuel))
                    == outcome(lambda: reference_normalize(t, calculus, fuel)))


def test_plain_stepping_loops_refuse_wrapped_terms_alike():
    expected = (IllTyped, "plain reduction is defined on wrapper-free terms")
    assert outcome(lambda: list(reference_sequence(WRAPPED, "i", itemgetter(0)))) == expected
    assert outcome(lambda: list(reduction_sequence(WRAPPED, "i", next))) == expected


def test_simulate_beta_matches_the_listing_loop(corpus):
    simulated = 0
    for entry in corpus:
        if entry.untyped is None:
            continue
        for pos in beta_redexes(entry.untyped):
            assert (simulate_beta(entry.term, entry.untyped, pos)
                    == reference_simulate_beta(entry.term, entry.untyped, pos))
            simulated += 1
    assert simulated > 100


def test_normalize_searches_once_per_step(monkeypatch):
    """Each step's search stops at its leftmost-outermost redex: it tests
    the nodes on the path to it and nothing else, so a sequence costs
    the sum of its paths, not a listing of every redex of every term."""
    t = infer_sn(church_application(2, 3), INFER_FUEL).term
    paths = {calculus: sum(len(pos) + 1 for pos, _ in
                           reference_sequence(t, calculus, itemgetter(0)))
             for calculus in ("i", "im")}
    calls = []
    redex = reduction._redex

    def counted(node, calculus):
        calls.append(node)
        return redex(node, calculus)

    monkeypatch.setattr(reduction, "_redex", counted)
    for calculus, pinned in (("i", 35), ("im", 169)):
        calls.clear()
        normalize(t, calculus, 10_000)
        assert len(calls) == paths[calculus] == pinned


# --- one-step reducts: each node's built once, from its children's ----------

def reference_reducts(t, calculus):
    """reducts as a walk from the root for each term: every redex site
    found by the search, and its contractum put in place by position."""
    return [(pos, replace_at(t, pos, reduction._contract(core, core.body, wrappers, arg,
                                                         calculus)))
            for pos, _, (core, wrappers, arg) in reduction._redex_sites(t, calculus)]


def printed_reducts(found):
    return [(pos, pretty(r)) for pos, r in found]


@pytest.fixture(scope="module")
def reducts_inputs(corpus):
    """(term, calculus) for the differential test of `reducts`: the
    corpus, Church applications, the deep-input shapes at a small size
    and random terms whose binder hints collide with each other and with
    their free names, each typed term in both annotated calculi and each
    untyped one in beta."""
    churches = [church_application(m, n) for m, n in ((2, 2), (2, 3), (3, 2))]
    rng = random.Random(17)
    collided = [random_untyped(rng, rng.randint(4, 16)) for _ in range(60)]
    typed = [entry.term for entry in corpus]
    typed += [infer_sn(m, INFER_FUEL).term for m in churches]
    typed += [parse_term(shape(name, 6)) for name in "ABCDFG"]
    typed += [typing.term for _, typing in generate_sn_samples(30, seed=17, max_size=16)]
    untyped = [entry.untyped for entry in corpus if entry.untyped is not None]
    untyped += churches + [parse_untyped(shape("E", 6))] + collided
    return ([(t, calculus) for t in typed for calculus in ("i", "im")]
            + [(m, "beta") for m in untyped])


def test_reducts_match_the_walk_from_the_root(reducts_inputs):
    """A breadth-first search from each input with one dict, as `explore`
    shares it: the input is stepped with a fresh dict, every later term
    with entries that other terms made, and each must still list its own
    reducts, hints included."""
    stepped = 0
    for t, calculus in reducts_inputs:
        memo, seen, queue = {}, {t}, deque([t])
        for _ in range(60):
            if not queue:
                break
            current = queue.popleft()
            found = list(reducts(current, calculus, memo))
            assert (printed_reducts(found)
                    == printed_reducts(reference_reducts(current, calculus))), (
                pretty(current), calculus)
            stepped += 1
            for _, nxt in found:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    assert stepped > 3_000
