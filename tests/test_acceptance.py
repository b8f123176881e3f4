"""Acceptance criteria: goldens, measure decrease, lemma sweeps, round trips.

One test per criterion; each prints a single PASS line with its
statistics when it succeeds (run pytest with -s or -rP to see them).
"""

import random
import time

import pytest

from setlam import (
    App, Fuel, Lam, SetTerm, W, Wrap, beta_redexes, check, check_curry,
    complete_development, decorate, erase, erase_derivation, explore,
    i_redexes, infer_sn, is_sn, longest_chain, max_degree, normal_form,
    par_reduces, parse_term, parse_untyped, project_step,
    random_parallel_reduct, redexes, refines, simp_d, simp_full,
    simulate_beta, step_i, step_im, substitute, subterm_at,
    synthesize_type, type_height, weight,
)
from setlam.binding import open_term
from setlam.errors import NotSNWithinFuel
from setlam.reduction import reduction_sequence
from setlam.syntax import Var, free_names
from setlam.derivation import canonical_derivation

import corpus

BIG_FUEL = Fuel(max_nodes=50_000, max_depth=50_000)


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


# --- 1. golden wrapper examples ----------------------------------------------

def test_criterion_1_wrapper_goldens():
    started = time.monotonic()

    t = parse_term(corpus.GOLDEN_ERASING)
    nf = normal_form(t, "im")
    assert nf == parse_term("y^b [z^a [w^b]]")
    assert weight(nf) == 2

    t2 = parse_term(corpus.GOLDEN_SWAP)
    nf2 = normal_form(t2, "im")
    assert nf2 == parse_term("z^a [w^b] [z^a]")
    assert weight(nf2) == 2

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(1, f"both wrapper goldens normalize as displayed (weight 2) in {elapsed:.3f}s")


# --- 2. the figure's two reduction paths --------------------------------------

def _figure_terms():
    ia = parse_term(corpus.IDENT_A)
    iA = parse_term(corpus.IDENT_AA)
    iAA = parse_term(corpus.IDENT_AAA)
    ii_a = App(iA, SetTerm.of([ia]))      # the degree-2 argument redex
    ii_A = App(iAA, SetTerm.of([iA]))     # the degree-3 argument redex
    w_a = Wrap(ia, SetTerm.of([ia]))
    w_A = Wrap(iA, SetTerm.of([iA]))
    start = parse_term(corpus.FIGURE_START)
    assert isinstance(start, App)
    lam = start.fun

    left = [
        (start, start),
        (Wrap(App(ii_A, SetTerm.of([ii_a])), SetTerm.of([ii_A, ii_a])), ii_a),
        (Wrap(App(ii_A, SetTerm.of([ii_a])), SetTerm.of([ii_A, w_a])), ii_A),
        (Wrap(App(ii_A, SetTerm.of([ii_a])), SetTerm.of([w_A, w_a])), ii_a),
        (Wrap(App(ii_A, SetTerm.of([w_a])), SetTerm.of([w_A, w_a])), ii_A),
        (Wrap(App(w_A, SetTerm.of([w_a])), SetTerm.of([w_A, w_a])),
         App(w_A, SetTerm.of([w_a]))),
        (Wrap(Wrap(Wrap(Wrap(ia, SetTerm.of([ia])), SetTerm.of([w_a])),
                   SetTerm.of([iA])), SetTerm.of([w_A, w_a])), None),
    ]
    right = [
        (start, ii_a),
        (App(lam, SetTerm.of([ii_A, w_a])), ii_A),
        (App(lam, SetTerm.of([w_A, w_a])), App(lam, SetTerm.of([w_A, w_a]))),
        (Wrap(App(w_A, SetTerm.of([w_a])), SetTerm.of([w_A, w_a])),
         App(w_A, SetTerm.of([w_a]))),
        (Wrap(Wrap(Wrap(Wrap(ia, SetTerm.of([ia])), SetTerm.of([w_a])),
                   SetTerm.of([iA])), SetTerm.of([w_A, w_a])), None),
    ]
    return start, left, right


def _replay(path):
    for (term, underlined), (target, _) in zip(path, path[1:]):
        matches = [
            r.position for r in redexes(term)
            if subterm_at(term, r.position) == underlined
            and step_im(term, r.position) == target
        ]
        assert matches, "underlined redex does not step to the displayed term"
    return path[-1][0]


def test_criterion_2_figure_paths_converge():
    started = time.monotonic()
    start, left, right = _figure_terms()

    final_left = _replay(left)
    final_right = _replay(right)
    assert final_left == final_right == parse_term(corpus.FIGURE_NORMAL_FORM)

    assert simp_full(start) == final_left
    oracle_nf = normal_form(start, "im", BIG_FUEL)
    assert oracle_nf == final_left
    assert W(start) == weight(oracle_nf) == 7

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(2, f"both displayed paths replay and converge; W(start) = 7; {elapsed:.3f}s")


# --- 3. the measure decreases -------------------------------------------------

def test_criterion_3_measure_decrease(corpus):
    started = time.monotonic()
    assert len(corpus) >= 200
    checked = 0
    for entry in corpus:
        before = W(entry.term)
        for r in i_redexes(entry.term):
            after = W(step_i(entry.term, r.position))
            assert before > after, (entry.term, r.position)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(3, f"W strictly decreases on {checked} (term, redex) pairs "
               f"over {len(corpus)} terms in {elapsed:.1f}s")


def test_criterion_3_measure_decreases_along_church_sequences():
    # W is checked at every step of whole plain sequences, leftmost and
    # seeded random, on terms whose reducts are far larger than the source
    started = time.monotonic()
    checked = 0
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        t = infer_sn(corpus.church_application(m, n), corpus.INFER_FUEL).term
        ty = synthesize_type(t)
        strategies = [next]
        if m * n <= 6:  # seeded random sequences on the smaller pairs
            strategies += [lambda sites, rng=random.Random(seed): rng.choice(list(sites))
                           for seed in range(3)]
        for choose in strategies:
            before = W(t)
            for _, stepped in reduction_sequence(t, "i", choose):
                assert synthesize_type(stepped) == ty
                after = W(stepped)
                assert before > after, (m, n, stepped)
                before = after
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(3, f"W strictly decreases and the type is kept along {checked} steps "
               f"of Church sequences in {elapsed:.1f}s")


# --- 4. full simplification yields the normal form -----------------------------

def test_criterion_4_normal_form_agreement(corpus):
    for entry in corpus:
        simplified = simp_full(entry.term)
        assert redexes(simplified) == []
        assert simplified == normal_form(entry.term, "im", BIG_FUEL)
    _passed(4, f"simp_full is redex-free and matches the oracle on {len(corpus)} terms")


# --- 5. degree lemmas ----------------------------------------------------------

def test_criterion_5_degree_lemmas(corpus):
    staged = 0
    for entry in corpus:
        stage = entry.term
        for d in range(max_degree(entry.term), 0, -1):
            assert max_degree(stage) <= d
            stage = simp_d(stage, d)
            assert max_degree(stage) < d
            staged += 1

    instances = 0
    for entry in corpus:
        for r in redexes(entry.term):
            node = subterm_at(entry.term, r.position)
            core = node.fun
            while isinstance(core, Wrap):
                core = core.head
            assert isinstance(core, Lam)
            opened = open_term(core.body, {ty: Var("zz", ty) for ty in core.binder})
            if "zz" in free_names(node.arg):
                continue
            bound = max(max_degree(node.arg), type_height(core.binder), max_degree(opened))
            result = substitute(opened, "zz", core.binder, node.arg)
            for d in (bound + 1, bound + 2):
                assert max_degree(result) < d
                instances += 1
            if r.degree is not None and bound < r.degree:
                assert max_degree(result) < r.degree
                instances += 1
    assert instances >= 500
    _passed(5, f"degree decrease on {staged} passes; "
               f"substitution bound on {instances} instances")


# --- 6. chain bound -------------------------------------------------------------

def test_criterion_6_chain_bound(corpus):
    fuel = Fuel(max_nodes=10_000, max_depth=10_000)
    checked = skipped = 0
    for entry in corpus:
        graph = explore(entry.term, "i", fuel)
        if graph.truncated:
            skipped += 1
            continue
        assert longest_chain(entry.term, "i", fuel) <= W(entry.term)
        checked += 1
    assert checked >= 200
    _passed(6, f"longest chain <= W on {checked} graphs (skipped {skipped} over 10^4 nodes)")


# --- 7. subject reduction and set invariants ------------------------------------

def test_criterion_7_subject_reduction(corpus):
    steps = 0
    for entry in corpus:
        ty = synthesize_type(entry.term)
        for r in redexes(entry.term):
            stepped = step_im(entry.term, r.position)
            assert synthesize_type(stepped) == ty  # also re-validates set invariants
            assert check(entry.context, stepped) == ty
            steps += 1
        for r in i_redexes(entry.term):
            stepped = step_i(entry.term, r.position)
            assert synthesize_type(stepped) == ty
            assert check(entry.context, stepped) == ty
            steps += 1
    _passed(7, f"type and set invariants preserved across {steps} single steps")


# --- 8. confluence and the diamond ----------------------------------------------

def test_criterion_8_confluence_and_diamond(corpus):
    pairs = 0
    for entry in corpus:
        im_reducts = [step_im(entry.term, r.position) for r in redexes(entry.term)]
        im_nfs = {normal_form(t, "im", BIG_FUEL) for t in im_reducts}
        assert len(im_nfs) <= 1
        i_reducts = [step_i(entry.term, r.position) for r in i_redexes(entry.term)]
        i_nfs = {normal_form(t, "i", BIG_FUEL) for t in i_reducts}
        assert len(i_nfs) <= 1
        pairs += len(im_reducts) * (len(im_reducts) - 1) // 2
        pairs += len(i_reducts) * (len(i_reducts) - 1) // 2

    rng = random.Random(13)
    sampled = 0
    candidates = [e.term for e in corpus if redexes(e.term)]
    while sampled < 100:
        term = candidates[sampled % len(candidates)]
        calculus = "im" if sampled % 2 else "i"
        reduct = random_parallel_reduct(term, rng, calculus)
        assert par_reduces(reduct, complete_development(term, calculus), calculus)
        sampled += 1
    _passed(8, f"single-step pairs join ({pairs} pairs); "
               f"{sampled} parallel reducts reach the complete development")


# --- 9. correspondence round trip ------------------------------------------------

def test_criterion_9_correspondence(corpus):
    uniform_entries = [e for e in corpus if refines(e.term, erase(e.term))]
    assert len(uniform_entries) >= 100
    done = 0
    for entry in uniform_entries[:100]:
        derivation = erase_derivation(entry.term, entry.context)
        judgement = check_curry(derivation)
        decorated = decorate(derivation)
        assert check(judgement.context, decorated) == judgement.type_
        assert decorated == entry.term
        assert erase(decorated) == judgement.subject
        back = erase_derivation(decorated, entry.context)
        assert canonical_derivation(back) == canonical_derivation(derivation)
        done += 1
    _passed(9, f"derivation/decoration round trip on {done} derivations")


# --- 10. simulation ---------------------------------------------------------------

def test_criterion_10_simulation(corpus):
    simulated = 0
    for entry in corpus:
        if simulated >= 100:
            break
        m = erase(entry.term)
        positions = beta_redexes(m)
        if not positions:
            continue
        n, final, steps = simulate_beta(entry.term, m, positions[0])
        assert steps, "a simulated beta step takes at least one plain step"
        assert refines(final, n)
        simulated += 1
    assert simulated >= 100 or simulated == sum(
        1 for e in corpus if beta_redexes(erase(e.term)))

    projected = 0
    for entry in corpus:
        if projected >= 100:
            break
        for r in i_redexes(entry.term):
            stepped = step_i(entry.term, r.position)
            n, completed, _ = project_step(entry.term, stepped, r.position)
            assert refines(completed, n)
            projected += 1
            if projected >= 100:
                break
    assert projected >= 100
    _passed(10, f"{simulated} beta steps simulated; {projected} steps projected back")


def test_criterion_10_simulation_along_whole_sequences(sn_samples):
    # SN carries over from the annotated terms to the Curry system: each
    # beta step of m is replayed inside a term refining it, so W of that
    # term falls at every beta step and bounds the number of beta steps
    started = time.monotonic()
    runs = [(m, inferred.term, [next]) for m, inferred in sn_samples[:60]]
    for m, n in ((2, 2), (2, 3), (3, 2)):
        church = corpus.church_application(m, n)
        shuffled = random.Random(10 * m + n)
        runs.append((church, infer_sn(church, corpus.INFER_FUEL).term,
                     [next, lambda sites, rng=shuffled: rng.choice(list(sites))]))
    sequences = steps = 0
    for m, t, strategies in runs:
        bound = W(t)
        for choose in strategies:
            source, refining, before, count = m, t, bound, 0
            for pos, reduct in reduction_sequence(m, "beta", choose):
                n, refining, _ = simulate_beta(refining, source, pos)
                assert n == reduct
                after = W(refining)
                assert before > after, (m, pos)
                source, before, count = reduct, after, count + 1
            assert count <= bound, (m, count, bound)
            sequences += 1
            steps += count
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(10, f"W of the refining term falls at each of {steps} simulated beta steps "
                f"along {sequences} sequences, each at most W long, in {elapsed:.1f}s")


# --- 11. strong normalization characterization --------------------------------------

def test_criterion_11_sn_characterization(sn_samples):
    verified = 0
    for m, inferred in sn_samples[:100]:
        assert is_sn(m, corpus.SN_FUEL) == "yes"
        assert refines(inferred.term, m)
        assert erase(inferred.term) == m
        assert check(inferred.context, inferred.term) == inferred.type_
        verified += 1
    assert verified == 100

    failing = [
        "(\\x. x x) (\\x. x x)",
        "(\\x. x x) (\\x. x x) y",
        "(\\x. y) ((\\x. x x) (\\x. x x))",
    ]
    for text in failing:
        with pytest.raises(NotSNWithinFuel):
            infer_sn(parse_untyped(text), Fuel(max_nodes=2_000, max_depth=2_000))
    _passed(11, f"inference succeeds and re-checks on {verified} SN terms; "
                f"fails on all {len(failing)} non-SN inputs")
