"""Graph exploration, normal forms, SN checking, SN-structure inference."""

import cProfile
import gc
import pstats
from collections import deque

import pytest

from setlam import (
    CycleDetected, Fuel, FuelExhausted, IllTyped, NotSNWithinFuel, UnboundOrWrongAnnotation,
    Base, SetTerm, SetType, TypingContext, UApp, UBoundVar, ULam, UVar, W, check, erase, explore, graph_to_dot,
    graph_to_json_dict, head_subject_expansion, infer_sn, is_sn,
    longest_chain, minimal_context, normal_form, parse_set_type, parse_term, parse_type,
    parse_untyped, pretty, refines, synthesize_type,
)

import corpus
from deep import shape
from setlam import reduction, syntax, typecheck
from setlam.reduction import redex_positions, step
from test_infer_sn_golden import CHURCH_PAIRS

OMEGA = parse_untyped("(\\x. x x) (\\x. x x)")
WRAPPED = parse_term("(\\x:{a}. y^b) {z^a [w^b]}")  # a plain redex, a wrapper
SMALL = Fuel(max_nodes=300, max_depth=300)


# --- explore ----------------------------------------------------------------

def test_explore_normal_form_single_node():
    g = explore(parse_term("x^a"), "i")
    assert g.node_count == 1 and g.edges == () and not g.truncated


def test_explore_single_step():
    g = explore(parse_term("(\\x:{a}.x^a) {y^a}"), "i")
    assert g.node_count == 2 and len(g.edges) == 1


def test_explore_omega_truncates_and_loops():
    # Omega y steps, at its head, to itself: one node with a self loop
    g = explore(parse_untyped("(\\x. x x) (\\x. x x) y"), "beta", SMALL)
    assert g.node_count == 1 and g.edges == ((0, (0,), 0),) and not g.truncated
    # the plain Omega graph is a single node with a self loop
    g2 = explore(OMEGA, "beta", SMALL)
    assert g2.node_count == 1 and g2.edges == ((0, (), 0),)


def test_explore_collapses_alpha_variants():
    t = parse_term("(\\x:{a}.x^a) {(\\y:{a}.y^a) {z^a}}")
    g = explore(t, "i")
    assert g.node_count == len(set(g.nodes))


def test_explore_plain_refuses_wrapped_terms():
    with pytest.raises(IllTyped, match="plain reduction is defined on wrapper-free terms"):
        explore(WRAPPED, "i")
    with pytest.raises(IllTyped, match="plain reduction is defined on wrapper-free terms"):
        normal_form(WRAPPED, "i")
    # the guard is checked at the first step, which no fuel allows here
    g = explore(WRAPPED, "i", Fuel(max_nodes=10, max_depth=0))
    assert g.nodes == (WRAPPED,) and g.edges == () and g.truncated
    assert explore(WRAPPED, "im").node_count == 2


def test_explore_normal_form_at_the_depth_limit_is_not_truncated():
    # Nothing is left to expand at the depth limit: the graph is whole.
    t = parse_term("(\\x:{a}.x^a) {y^a}")
    g = explore(t, "i", Fuel(10, 1))
    assert g.node_count == 2 and g.edges == ((0, (), 1),) and not g.truncated
    assert longest_chain(t, "i", Fuel(10, 1)) == 1
    assert is_sn(parse_untyped("(\\x. x) y"), Fuel(10, 1)) == "yes"
    assert not explore(parse_term("x^a"), "i", Fuel(10, 0)).truncated
    # a node with a redex at the limit is not expanded, and truncates
    g = explore(parse_term("(\\x:{a}.x^a) {(\\y:{a}.y^a) {z^a}}"), "i", Fuel(10, 1))
    assert g.node_count == 2 and g.truncated
    with pytest.raises(FuelExhausted):
        longest_chain(t, "i", Fuel(10, 0))
    assert is_sn(parse_untyped("(\\x. x) y"), Fuel(10, 0)) == "unknown"


def reference_explore(t, calculus, fuel):
    """explore as a plain breadth-first search: each node's redexes by
    position, each stepped on its own, nothing shared between nodes."""
    index, nodes, edges, truncated = {t: 0}, [t], [], False
    queue = deque([(0, 0)])
    while queue:
        i, depth = queue.popleft()
        found = redex_positions(nodes[i], calculus)
        if found and depth >= fuel.max_depth:
            truncated = True
            continue
        for pos in found:
            nxt = step(nodes[i], pos, calculus)
            j = index.get(nxt)
            if j is None:
                if len(nodes) >= fuel.max_nodes:
                    truncated = True
                    continue
                j = index[nxt] = len(nodes)
                nodes.append(nxt)
                queue.append((j, depth + 1))
            edges.append((i, pos, j))
    return [pretty(n) for n in nodes], tuple(edges), truncated


def printed(g):
    return [pretty(n) for n in g.nodes], g.edges, g.truncated


def church_2_2():
    two = "(\\f. \\x. f (f x))"
    return parse_untyped(f"{two} {two} y z")


# Whole graphs, graphs cut by depth and graphs cut by node count.
DIFFERENTIAL_FUELS = (Fuel(400, 400), Fuel(400, 2), Fuel(7, 400))


def test_explore_matches_the_reference_search(corpus):
    church = church_2_2()
    typed = infer_sn(church).term
    cases = [(entry.term, calculus) for entry in corpus for calculus in ("i", "im")]
    cases += [(erase(entry.term), "beta") for entry in corpus]
    cases += [(typed, "i"), (typed, "im"), (church, "beta")]
    cut = [0] * len(DIFFERENTIAL_FUELS)
    for t, calculus in cases:
        for k, fuel in enumerate(DIFFERENTIAL_FUELS):
            g = explore(t, calculus, fuel)
            assert printed(g) == reference_explore(t, calculus, fuel), (pretty(t), calculus)
            cut[k] += g.truncated
    assert cut[1] > 80 and cut[2] > 40  # each small fuel truncates graphs


def test_explore_keeps_the_hints_of_each_alpha_equal_redex():
    # Two alpha-equal redexes, the one's inner binder hinted u, the
    # other's v: each contractum keeps its own hint.
    t = parse_term("g^((a -> a) -> (a -> a) -> c)"
                   " {(\\x:{a}. \\u:{a}. u^a) {y^a}} {(\\x:{a}. \\v:{a}. v^a) {y^a}}")
    first, second = t.fun.arg.elements[0], t.arg.elements[0]
    assert first == second and first is not second
    g = explore(t, "i")
    assert printed(g) == reference_explore(t, "i", Fuel())
    assert g.node_count == 4
    assert "{\\v:{a}. v^a}" in pretty(g.nodes[2]) and "{\\u:{a}. u^a}" in pretty(g.nodes[3])


@pytest.mark.parametrize("calculus", ["i", "im"])
def test_explore_contracts_each_distinct_redex_once(calculus, monkeypatch):
    t = infer_sn(church_2_2()).term
    calls = []
    contract = reduction._contract
    monkeypatch.setattr(reduction, "_contract", lambda *a: calls.append(a) or contract(*a))
    g = explore(t, calculus, Fuel(20_000, 20_000))
    monkeypatch.undo()
    assert not g.truncated
    met = {id(node) for n in g.nodes for _, node, _ in reduction._redex_sites(n, calculus)}
    assert len(calls) == len(met) < len(g.edges)


@pytest.mark.parametrize("calculus", ["i", "im"])
def test_explore_steps_each_shared_subterm_once(calculus, monkeypatch):
    """A subterm shared by many graph nodes, as the same object, is
    walked once per call: the children of a node are listed at most once
    for every distinct node that holds a redex of the calculus.
    Contracting walks a redex's body in `binding`, which is not a search
    and is not counted."""
    t = infer_sn(church_2_2()).term
    calls = []
    listed = syntax.children

    def counted(node):
        calls.append(node)
        return listed(node)

    monkeypatch.setattr(syntax, "children", counted)
    monkeypatch.setattr(reduction, "children", counted)
    g = explore(t, calculus, Fuel(20_000, 20_000))
    monkeypatch.undo()
    assert not g.truncated
    flagged = {id(node) for n in g.nodes
               for node in syntax.nodes(n, reduction._redex_flag(calculus))}
    assert len(calls) <= len(flagged)


def test_graph_exports():
    g = explore(parse_term("(\\x:{a}.x^a) {y^a}"), "i")
    dot = graph_to_dot(g)
    assert dot.startswith("digraph") and "n0 -> n1" in dot
    data = graph_to_json_dict(g)
    assert data["formatVersion"] == 1 and data["nodeCount"] == 2
    cut = explore(parse_term("(\\x:{a}.x^a) {(\\x:{a}.x^a) {y^a}}"), "i", Fuel(1, 1))
    assert cut.truncated and graph_to_json_dict(cut)["truncated"]
    assert graph_to_dot(cut).endswith('  truncated [shape=plaintext, label="(truncated)"];\n}\n')


def test_graph_exports_print_each_node_once(monkeypatch):
    g = explore(infer_sn(church_2_2()).term, "i", Fuel(20_000, 20_000))
    calls = []
    printer = syntax._pretty_term
    monkeypatch.setattr(syntax, "_pretty_term", lambda t: calls.append(t) or printer(t))
    data = graph_to_json_dict(g)
    graph_to_dot(g)
    assert len(calls) == g.node_count > 1
    calls.clear()
    assert [pretty(n) for n in g.nodes] == data["nodes"] and calls == []
    # the text is stored on the node, not looked up by alpha-equality
    u, v = parse_term("\\u:{a}. u^a"), parse_term("\\v:{a}. v^a")
    assert u == v
    for _ in range(2):
        assert (pretty(u), pretty(v)) == ("\\u:{a}. u^a", "\\v:{a}. v^a")
    assert len(calls) == 2


# --- normal_form ------------------------------------------------------------

def test_normal_form_figure():
    nf = normal_form(parse_term(corpus.FIGURE_START), "im",
                     Fuel(max_nodes=50_000, max_depth=50_000))
    assert nf == parse_term(corpus.FIGURE_NORMAL_FORM)


def test_normal_form_erasing_example():
    nf = normal_form(parse_term(corpus.GOLDEN_ERASING), "im")
    assert nf == parse_term("y^b [z^a [w^b]]")


def test_normal_form_identity_on_normal_forms():
    nf = parse_term("y^b [z^a [w^b]]")
    assert normal_form(nf, "im") == nf


def test_normal_form_fuel_exhausted():
    with pytest.raises(FuelExhausted):
        normal_form(OMEGA, "beta", Fuel(max_nodes=10, max_depth=10))


def test_normal_form_fuel_bounds_the_steps():
    t = parse_term("(\\x:{a}. x^a) y^a")
    assert normal_form(t, "i", Fuel(10, 1)) == parse_term("y^a")
    with pytest.raises(FuelExhausted):
        normal_form(t, "i", Fuel(10, 0))


def test_normal_form_agrees_with_graph_sink(corpus):
    fuel = Fuel(max_nodes=5_000, max_depth=5_000)
    for entry in corpus[:40]:
        g = explore(entry.term, "im", fuel)
        if g.truncated:
            continue
        sinks = {i for i in range(g.node_count)} - {i for i, _, _ in g.edges}
        assert len(sinks) == 1
        assert g.nodes[sinks.pop()] == normal_form(entry.term, "im", fuel)


# --- longest chain ----------------------------------------------------------

def test_longest_chain_values():
    assert longest_chain(parse_term("x^a"), "i") == 0
    assert longest_chain(parse_term("(\\x:{a}.x^a) {y^a}"), "i") == 1


def test_longest_chain_duplicating_term_bounded_by_W():
    t = parse_term(corpus.DUPLICATING)
    assert longest_chain(t, "i") <= W(t)


def test_longest_chain_cycle_detected():
    with pytest.raises(CycleDetected):
        longest_chain(OMEGA, "beta", SMALL)


# --- is_sn ------------------------------------------------------------------

def test_is_sn_normal_form():
    assert is_sn(parse_untyped("\\x. x x")) == "yes"


def test_is_sn_omega():
    assert is_sn(OMEGA, SMALL) == "no"


def test_is_sn_erasing_to_omega():
    assert is_sn(parse_untyped("(\\x. y) ((\\x. x x) (\\x. x x))"), SMALL) == "no"


def test_is_sn_deep_binder_chain():
    # a normal form nested deeper than the interpreter stack
    m = UVar("y")
    for _ in range(3_000):
        m = ULam("x", m)
    assert is_sn(m, Fuel(max_nodes=50, max_depth=50)) == "yes"


def test_is_sn_unknown_on_truncation():
    # a growing non-looping term exhausts fuel without a cycle
    grower = parse_untyped("(\\x. x x x) (\\x. x x x)")
    assert is_sn(grower, Fuel(max_nodes=5, max_depth=5)) == "unknown"


# --- head subject expansion ---------------------------------------------------

def test_head_subject_expansion_base():
    ctx = TypingContext.of({"z": parse_set_type("{a}")})
    out = head_subject_expansion(
        parse_term("x^a"), "x", parse_set_type("{a}"),
        SetTerm.of([parse_term("z^a")]), [], ctx)
    assert out == parse_term("(\\x:{a}. x^a) {z^a}")
    assert check(ctx, out) == parse_type("a")


def test_head_subject_expansion_vacuous():
    ctx = TypingContext.of({"t": parse_set_type("{c}"), "s": parse_set_type("{b}")})
    out = head_subject_expansion(
        parse_term("t^c"), "x", parse_set_type("{b}"),
        SetTerm.of([parse_term("s^b")]), [], ctx)
    assert check(ctx, out) == parse_type("c")


def test_head_subject_expansion_with_trailing_args():
    ctx = TypingContext.of({
        "f": parse_set_type("{a} -> b -> c"),
        "u": parse_set_type("{a}"),
        "v": parse_set_type("{b}"),
    })
    out = head_subject_expansion(
        parse_term("x^({a} -> b -> c) u^a"), "x",
        parse_set_type("{{a} -> b -> c}"),
        SetTerm.of([parse_term("f^({a} -> b -> c)")]),
        [SetTerm.of([parse_term("v^b")])], ctx)
    assert check(ctx, out) == parse_type("c")
    assert out == parse_term(
        "(\\x:{{a} -> b -> c}. x^({a} -> b -> c) u^a) f^({a} -> b -> c) v^b")


def test_head_subject_expansion_audits_the_argument_against_the_context():
    # s^b occurs only in the argument, which the vacuous body drops
    with pytest.raises(UnboundOrWrongAnnotation, match="occurrence s"):
        head_subject_expansion(
            parse_term("t^c"), "x", parse_set_type("{b}"),
            SetTerm.of([parse_term("s^b")]), [],
            TypingContext.of({"t": parse_set_type("{c}"), "s": parse_set_type("{a}")}))


def test_head_subject_expansion_ill_typed():
    with pytest.raises(IllTyped):
        head_subject_expansion(
            parse_term("x^a"), "x", parse_set_type("{a}"),
            SetTerm.of([parse_term("z^b")]), [], TypingContext.of({"z": parse_set_type("{b}")}))


# --- infer_sn ---------------------------------------------------------------

def test_infer_self_application_deterministic():
    result = infer_sn(parse_untyped("\\x. x x"))
    assert pretty(result.term) == "\\x:{b0, b0 -> b1}. x^(b0 -> b1) x^b0"
    assert result.context == TypingContext()
    assert result.type_ == parse_type("{b0, b0 -> b1} -> b1")
    assert erase(result.term) == parse_untyped("\\x. x x")


def test_infer_omega_fails():
    with pytest.raises(NotSNWithinFuel):
        infer_sn(OMEGA, Fuel(max_nodes=2_000, max_depth=2_000))


def test_infer_deep_binder_chain_runs_out_of_fuel():
    m = UVar("y")
    for _ in range(3_000):
        m = ULam("x", m)
    with pytest.raises(NotSNWithinFuel):
        infer_sn(m, Fuel(max_nodes=50, max_depth=50))


def test_infer_rejects_an_open_input_before_any_work():
    with pytest.raises(ValueError, match="locally closed"):
        infer_sn(ULam("x", UBoundVar(1)), Fuel(max_nodes=0, max_depth=0))


@pytest.mark.parametrize("n", [100, 200])
def test_infer_binder_chain_types_each_node_once(n, monkeypatch):
    # \x0. ... \x{n-1}. y x0 ... x{n-1}: every sub-result is wrapped as
    # it is, so the typing fold runs once per node it builds (4n + 1).
    m = UVar("y")
    for i in range(n):
        m = UApp(m, UBoundVar(n - 1 - i))
    for _ in range(n):
        m = ULam("x", m)
    calls = []
    node_typing = typecheck._node_typing
    monkeypatch.setattr(typecheck, "_node_typing", lambda t: calls.append(t) or node_typing(t))
    result = infer_sn(m, Fuel(max_nodes=10 * n, max_depth=10 * n))
    assert erase(result.term) == m and check(result.context, result.term) == result.type_
    assert len(calls) <= 5 * n


@pytest.mark.parametrize("n", [100, 200])
def test_infer_visits_each_node_a_bounded_number_of_times(n, monkeypatch):
    # \x0. ... \x{n-1}. y, then the same chain over y x0 ... x{n-1}:
    # re-verifying every return walks no path from the root again.
    chain = UVar("y")
    spine = UVar("y")
    for i in range(n):
        spine = UApp(spine, UBoundVar(n - 1 - i))
    for _ in range(n):
        chain, spine = ULam("x", chain), ULam("x", spine)
    fuel = Fuel(max_nodes=10 * n, max_depth=10 * n)
    for m, limit in [(chain, 3 * n + 1), (spine, 5 * n + 1)]:
        calls = []
        children = syntax.children
        monkeypatch.setattr(syntax, "children", lambda t: calls.append(t) or children(t))
        result = infer_sn(m, fuel)
        monkeypatch.undo()
        assert erase(result.term) == m and check(result.context, result.term) == result.type_
        assert len(calls) <= limit


def test_infer_vacuous_head_redex():
    # The argument occurs nowhere in the contractum, so it is typed on
    # its own, after the contractum.
    result = infer_sn(parse_untyped("(\\x. y) z"))
    assert erase(result.term) == parse_untyped("(\\x. y) z")
    assert refines(result.term, parse_untyped("(\\x. y) z"))
    assert check(result.context, result.term) == result.type_
    assert result.term == parse_term("(\\x:{b1}. y^b0) z^b1")
    assert result.context == TypingContext.of({"y": parse_set_type("{b0}"),
                                               "z": parse_set_type("{b1}")})


# Inference calls each Church input `m n y z` needs: a head redex's
# argument is typed through its copies in the contractum, not again on
# its own (before that, 36, 69, 27, 69, 201 and 142 calls).
CHURCH_CALLS = {(2, 2): 13, (4, 1): 12, (1, 8): 13, (2, 3): 20, (3, 2): 25, (2, 4): 29}


@pytest.mark.parametrize("pair", CHURCH_PAIRS)
def test_infer_church_calls(pair):
    m = parse_untyped(f"{corpus.church(pair[0])} {corpus.church(pair[1])} y z")
    calls = CHURCH_CALLS[pair]
    result = infer_sn(m, Fuel(max_nodes=calls, max_depth=calls))
    assert erase(result.term) == m
    with pytest.raises(NotSNWithinFuel):
        infer_sn(m, Fuel(max_nodes=calls - 1, max_depth=calls))


def test_infer_argument_used_only_under_an_erasing_redex_fails():
    # x occurs in the contractum, but only as the argument of a vacuous
    # binder, where the argument is inferred on its own: Omega is met.
    m = parse_untyped("(\\x. (\\z. w) x) ((\\x. x x) (\\x. x x))")
    assert is_sn(m, SMALL) == "no"
    with pytest.raises(NotSNWithinFuel):
        infer_sn(m, Fuel(max_nodes=2_000, max_depth=2_000))


def _oracle_calls(collect: bool) -> int:
    """Calls into oracle.py while profiling infer_sn on Church 2 2 y z,
    then, when `collect`, a collection of the garbage it left."""
    m = parse_untyped(f"{corpus.church(2)} {corpus.church(2)} y z")
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    infer_sn(m)
    if collect:
        gc.collect()
    profile.disable()
    return sum(calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if path.endswith("oracle.py"))


def test_infer_leaves_no_oracle_code_for_the_collector():
    # infer and head_redex close over each other, so what they close
    # over lives until the cyclic collector runs; none of it may run
    # oracle.py code then, or a profile's call count would depend on
    # when collections fall.
    assert _oracle_calls(collect=True) == _oracle_calls(collect=False)


def test_infer_duplicating_argument_builds_multi_element_set():
    result = infer_sn(parse_untyped("(\\x. x x) (\\y. y)"))
    term = result.term
    assert erase(term) == parse_untyped("(\\x. x x) (\\y. y)")
    from setlam.syntax import App
    assert isinstance(term, App) and len(term.arg.elements) == 2


def test_infer_head_variable_spine_of_3000_arguments():
    # Shape E of tests/deep.py: every argument adds a type to z's set.
    n = 3_000
    result = infer_sn(parse_untyped(shape("E", n)))
    head = " -> ".join(f"b{i}" for i in range(n + 1))
    assert result.term == parse_term(f"y^({head})" + "".join(f" z^b{i}" for i in range(n)))
    assert result.context == TypingContext.of({
        "y": SetType.of([parse_type(head)]),
        "z": SetType.of(Base(f"b{i}") for i in range(n))})
    assert result.type_ == Base(f"b{n}")


def test_infer_results_recheck(sn_samples):
    for m, inferred in sn_samples:
        assert refines(inferred.term, m)
        assert erase(inferred.term) == m
        assert check(inferred.context, inferred.term) == inferred.type_
        assert synthesize_type(inferred.term) == inferred.type_
        assert inferred.context == minimal_context(inferred.term)


def test_infer_agrees_with_is_sn(sn_samples):
    # anything verified SN infers; anything with a reachable cycle does not
    for m, _ in sn_samples[:50]:
        assert is_sn(m, corpus.SN_FUEL) == "yes"
    for text in ["(\\x. x x) (\\x. x x)",
                 "(\\x. x x) (\\x. x x) y",
                 "(\\x. y) ((\\x. x x) (\\x. x x))"]:
        m = parse_untyped(text)
        assert is_sn(m, SMALL) == "no"
        with pytest.raises(NotSNWithinFuel):
            infer_sn(m, Fuel(max_nodes=2_000, max_depth=2_000))
