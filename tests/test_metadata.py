"""Per-node metadata: the cached typing fold, `loose` and the flag bits.

Each stored value is compared with a recomputation from scratch: the
fold, and the first error `typecheck` reads off it, with the positional
walk `_synth` kept here as the reference, `loose` and the flags with a
walk over every subterm, the pruned redex search and the pruned walks
over free occurrences with the unpruned filters.  The index operations
of `binding`, and those on free names, must visit only the nodes they
rebuild and hand back the others as the same objects, and a second
typing of a node must visit no node.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from setlam import (
    App, Arrow, Base, BoundVar, Lam, NotTypable, SetTerm, SetType, UBoundVar,
    ULam, UVar, Var, Wrap, erase, parse_term, step_im, synthesize_type,
)
from setlam import binding, syntax, typecheck
from setlam.typecheck import subterm_type
from setlam.binding import close_term, open_term, shift, subst_free, uopen
from setlam.reduction import _redex, _substituents, redex_positions
from setlam.syntax import (
    BETA_REDEX, FREE_VAR, I_REDEX, IM_REDEX, WRAPPER, children, free_names,
    free_occurrences, nodes, replace_at, subterms,
)

from test_syntax import memterms_st, types_st

CALCULI = {"beta": BETA_REDEX, "i": I_REDEX, "im": IM_REDEX}
CONTAINS = BETA_REDEX | I_REDEX | IM_REDEX | WRAPPER | FREE_VAR
CORPUS_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _synth(t, binders: list[SetType], pos: list[int], strict: bool):
    """The reference positional walk, run on `run`: raises the first
    error of t in position order, with its position.  `binders` and `pos`
    are shared lists that each sub-call extends and restores.  It derives
    every type itself and reads no cached typing."""
    match t:
        case Var(_, annot):
            return annot
        case BoundVar(index, annot):
            if index >= len(binders):
                if strict:
                    raise NotTypable(tuple(pos), f"dangling bound variable {index}")
            elif annot not in binders[-1 - index]:
                raise NotTypable(tuple(pos), "occurrence annotation not in binder set")
            return annot
        case Lam(_, binder, body):
            binders.append(binder)
            pos.append(0)
            body_type = yield _synth(body, binders, pos, strict)
            binders.pop()
            pos.pop()
            return Arrow(binder, body_type)
        case App(fun, arg):
            pos.append(0)
            fun_type = yield _synth(fun, binders, pos, strict)
            pos.pop()
            if not isinstance(fun_type, Arrow):
                raise NotTypable(tuple(pos), f"applied term has non-arrow type {fun_type}")
            arg_type = yield _synth_set(arg, binders, pos, 1, strict)
            if arg_type != fun_type.domain:
                raise NotTypable(
                    tuple(pos), f"argument set-type {arg_type} != domain {fun_type.domain}")
            return fun_type.codomain
        case Wrap(head, payload):
            yield _synth_set(payload, binders, pos, 1, strict)
            pos.append(0)
            head_type = yield _synth(head, binders, pos, strict)
            pos.pop()
            return head_type
        case SetTerm():
            return (yield _synth_set(t, binders, pos, 0, strict))
    raise TypeError(f"not a term: {t!r}")


def _synth_set(s: SetTerm, binders: list[SetType], pos: list[int], offset: int,
               strict: bool):
    types = []
    for i, e in enumerate(s.elements):
        pos.append(offset + i)
        types.append((yield _synth(e, binders, pos, strict)))
        pos.pop()
    if len(set(types)) != len(types):
        raise NotTypable(tuple(pos), "set-term elements with equal types")
    return SetType.of(types)


def _outcome(f, t):
    try:
        return "ok", f(t)
    except NotTypable as error:
        return "error", error.position, str(error)


def _assert_fold_matches_walk(t):
    for strict, typed in ((True, synthesize_type), (False, subterm_type)):
        walked = _outcome(lambda u: syntax.run(_synth(u, [], [], strict)), t)
        assert _outcome(typed, t) == walked
    rejected = typecheck._cached(t, "typing", typecheck._node_typing) is typecheck._ILL_FORMED
    assert rejected == (_outcome(subterm_type, t)[0] == "error")


# --- the typing fold --------------------------------------------------------

@given(memterms_st())
def test_fold_agrees_with_positional_walk_on_random_terms(t):
    _assert_fold_matches_walk(t)


@given(memterms_st(depth=2))
def test_fold_agrees_with_positional_walk_on_open_terms(t):
    _assert_fold_matches_walk(t)


def _annotation_sites(t):
    """Positions of occurrences and abstractions: where a mutant swaps
    an annotation or a binder."""
    return [pos for pos, s in subterms(t) if isinstance(s, (Var, BoundVar, Lam))]


def _swap(node, new_type):
    match node:
        case Var(name, _):
            return Var(name, new_type)
        case BoundVar(index, _):
            return BoundVar(index, new_type)
        case Lam(hint, _, body):
            return Lam(hint, SetType.of([new_type]), body)


@CORPUS_SETTINGS
@given(data=st.data())
def test_fold_agrees_with_positional_walk_on_mutants(corpus, data):
    t = data.draw(st.sampled_from(corpus)).term
    _assert_fold_matches_walk(t)
    pos = data.draw(st.sampled_from(_annotation_sites(t)))
    new_type = data.draw(types_st | st.sampled_from([Base("a"), Base("b")]))
    mutant = replace_at(t, pos, _swap(syntax.subterm_at(t, pos), new_type))
    _assert_fold_matches_walk(mutant)


def test_fold_keeps_error_texts():
    cases = {
        "x^a {y^a}": "not typable at []: applied term has non-arrow type a",
        "(\\x:{a}. x^b) {y^a}": "not typable at [0, 0]: occurrence annotation not in binder set",
        "(\\x:{a}. x^a) {y^b}": "not typable at []: argument set-type {b} != domain {a}",
        "(\\x:{a, b}. x^a) {y^a, z^a}": "not typable at []: set-term elements with equal types",
    }
    for text, message in cases.items():
        with pytest.raises(NotTypable) as error:
            synthesize_type(parse_term(text))
        assert str(error.value) == message
    with pytest.raises(NotTypable) as error:
        synthesize_type(BoundVar(0, Base("a")))
    assert str(error.value) == "not typable at []: dangling bound variable 0"
    assert subterm_type(BoundVar(0, Base("a"))) == Base("a")


def test_second_typing_walks_no_node(monkeypatch):
    t = parse_term("\\f:{a -> b}. \\x:{a}. f^(a -> b) {x^a} [y^c, (\\z:{c}. v^d) w^c]")
    calls = []
    counted = typecheck.children

    def counting(node):
        calls.append(node)
        return counted(node)
    monkeypatch.setattr(typecheck, "children", counting)
    monkeypatch.setattr(syntax, "children", counting)
    first = subterm_type(t)
    assert len(calls) == sum(1 for _ in nodes(t))
    calls.clear()
    assert subterm_type(t) == first
    assert synthesize_type(t) == first
    assert calls == []
    around = Lam("g", SetType.of([Base("d")]), t)
    synthesize_type(around)
    assert calls == [around]


def test_second_erasure_walks_no_node(monkeypatch):
    t = parse_term("\\f:{a -> b}. \\x:{a}. f^(a -> b) {x^a} {(\\z:{c}. v^a) w^c}")
    calls = []
    counted = typecheck.children

    def counting(node):
        calls.append(node)
        return counted(node)
    monkeypatch.setattr(typecheck, "children", counting)
    monkeypatch.setattr(syntax, "children", counting)
    first = erase(t)
    assert len(calls) == sum(1 for _ in nodes(t))
    calls.clear()
    assert erase(t) is first
    assert typecheck.refines(t, first)
    assert calls == []


# --- loose and flags --------------------------------------------------------

def _loose_from_scratch(t) -> int:
    best = -1
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (BoundVar, UBoundVar)):
            best = max(best, node.index - depth)
        inner = depth + isinstance(node, (Lam, ULam))
        stack.extend((k, inner) for k in children(node))
    return best


def _flags_from_scratch(t) -> int:
    flags = 0
    for s in nodes(t):
        for calculus, bit in CALCULI.items():
            if _redex(s, calculus) is not None:
                flags |= bit
        if isinstance(s, Wrap):
            flags |= WRAPPER
        if isinstance(s, (Var, UVar)):
            flags |= FREE_VAR
    return flags


def _terms_with_reducts(corpus):
    """Corpus terms, their erasures and one memory step of each (so that
    wrappers and wrapped redexes occur)."""
    out = []
    for entry in corpus:
        t = entry.term
        out += [t, erase(t)]
        for pos in redex_positions(t, "im")[:2]:
            out.append(step_im(t, pos))
    return out


def test_loose_and_flags_match_recomputation(corpus):
    for t in _terms_with_reducts(corpus):
        for _, s in subterms(t):
            assert s.loose == _loose_from_scratch(s)
            assert s.flags & CONTAINS == _flags_from_scratch(s)


@given(memterms_st(depth=2))
def test_loose_and_flags_match_recomputation_on_random_terms(t):
    t = Wrap(t, SetTerm.of([t])) if isinstance(t, Lam) else App(t, SetTerm.of([t]))
    for _, s in subterms(t):
        assert s.loose == _loose_from_scratch(s)
        assert s.flags & CONTAINS == _flags_from_scratch(s)


def test_pruned_redex_search_matches_unpruned_filter(corpus):
    for t in _terms_with_reducts(corpus):
        for calculus in CALCULI:
            unpruned = [pos for pos, s in subterms(t) if _redex(s, calculus) is not None]
            assert redex_positions(t, calculus) == unpruned


def _assert_free_walks_match_unpruned_filter(t):
    every = list(nodes(t))
    assert list(free_occurrences(t)) == [(s.name, s.annot) for s in every if isinstance(s, Var)]
    assert free_names(t) == {s.name for s in every if isinstance(s, (Var, UVar))}


def test_free_walks_match_unpruned_filter(corpus):
    for t in _terms_with_reducts(corpus):
        _assert_free_walks_match_unpruned_filter(t)


@given(memterms_st(depth=2))
def test_free_walks_match_unpruned_filter_on_random_terms(t):
    _assert_free_walks_match_unpruned_filter(t)


def test_unknown_calculus_is_rejected():
    with pytest.raises(ValueError):
        redex_positions(parse_term("x^a"), "eta")


# --- binding keeps untouched subtrees ---------------------------------------

def _touched(body):
    """The inner nodes of body whose subtree an index of the opened
    binder reaches (the only ones an index operation must rebuild), and
    the maximal subtrees no such index reaches."""
    touched, untouched = [], []
    stack = [(body, 0)]
    while stack:
        node, depth = stack.pop()
        if node.loose < depth:
            untouched.append(node)
        elif not isinstance(node, (BoundVar, UBoundVar)):
            touched.append(node)
            inner = depth + isinstance(node, (Lam, ULam))
            stack.extend((k, inner) for k in children(node))
    return touched, untouched


def test_index_operations_visit_only_what_they_change(corpus, monkeypatch):
    visited = []
    counted = binding.children

    def counting(node):
        visited.append(node)
        return counted(node)
    monkeypatch.setattr(binding, "children", counting)
    opened = 0
    for entry in corpus:
        for t in (entry.term, erase(entry.term)):
            visited.clear()
            assert shift(t, 3) is t and visited == []
        for pos in redex_positions(entry.term, "i"):
            redex = syntax.subterm_at(entry.term, pos)
            m = erase(redex)
            for body, opened_body in (
                    (redex.fun.body, lambda b: open_term(b, _substituents(redex.fun.binder,
                                                                          redex.arg))),
                    (m.fun.body, lambda b: uopen(b, m.arg))):
                touched, untouched = _touched(body)
                visited.clear()
                kept = {id(s) for s in nodes(opened_body(body))}
                assert sorted(map(id, visited)) == sorted(map(id, touched))
                assert all(id(s) in kept for s in untouched)
            opened += 1
    assert opened > 50


def _free_paths(t):
    """The nodes above a free occurrence in t (the only ones `close_term`
    and `subst_free` must rebuild), and the maximal subtrees without one."""
    touched, untouched = [], []
    stack = [t]
    while stack:
        node = stack.pop()
        if not node.flags & FREE_VAR:
            untouched.append(node)
        elif not isinstance(node, (Var, UVar)):
            touched.append(node)
            stack.extend(children(node))
    return touched, untouched


def _close_reference(t, names: list, depth: int = 0):
    """close_term(t, *names) by a plain recursion into every node."""
    if isinstance(t, (Var, UVar)) and t.name in names:
        index = depth + len(names) - 1 - names.index(t.name)
        return BoundVar(index, t.annot) if isinstance(t, Var) else UBoundVar(index)
    inner = depth + isinstance(t, (Lam, ULam))
    return syntax.rebuild(t, [_close_reference(k, names, inner) for k in children(t)])


def test_free_operations_visit_only_the_paths_to_free_occurrences(corpus, monkeypatch):
    visited = []
    counted = binding.children

    def counting(node):
        visited.append(node)
        return counted(node)
    monkeypatch.setattr(binding, "children", counting)
    pruned = 0
    for entry in corpus:
        for t in (entry.term, erase(entry.term)):
            names = sorted(free_names(t))
            touched, untouched = _free_paths(t)
            for operate in (lambda: close_term(t, *names),
                            lambda: subst_free(t, "q", {})):  # no occurrence of q
                visited.clear()
                kept = {id(s) for s in nodes(operate())}
                assert sorted(map(id, visited)) == sorted(map(id, touched))
                assert all(id(s) in kept for s in untouched)
            assert repr(close_term(t, *names)) == repr(_close_reference(t, names))
            pruned += bool(touched and untouched)
    assert pruned > 50


def test_close_term_skips_a_closed_subterm(monkeypatch):
    t = parse_term("f^({{a} -> {a} -> a} -> {a} -> b)"
                   " {\\u:{a}. \\v:{a}. (\\w:{a}. w^a) {u^a}} {y^a}")
    visited = []
    counted = binding.children
    monkeypatch.setattr(binding, "children", lambda node: visited.append(node) or counted(node))
    closed = close_term(t, "y")
    assert visited == [t, t.fun]
    assert closed == App(t.fun, SetTerm((BoundVar(0, Base("a")),))) and closed.fun is t.fun
