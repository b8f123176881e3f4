"""The per-node folds dispatch on the node's class through tables.

`children`, `rebuild`, `type_height`, `typecheck._node_typing` and
`typecheck._node_erasure` once asked what a node is with class patterns;
those versions are kept here as the reference, and each table-driven
version must give the same result on the corpus, its one-step reducts
and erasures, two Church applications, the deep shapes and hypothesis
terms.  A value that is not a term (or not a type) must still be
rejected with the same `TypeError` text.
"""

import operator

import pytest
from hypothesis import given

from setlam import (
    App, Arrow, Base, BoundVar, Fuel, Lam, SetTerm, SetType, TypingContext,
    UApp, UBoundVar, ULam, UVar, Var, Wrap, infer_sn, parse_term,
    parse_untyped, pretty,
)
from setlam import syntax, typecheck
from setlam.reduction import reducts
from setlam.syntax import children, nodes, rebuild, type_height
from setlam.typecheck import _ILL_FORMED, _NOT_UNIFORM, _cached, _node_erasure, _node_typing

from corpus import church_application
from deep import shape
from test_syntax import (
    colliding_memterms_st, colliding_untyped_st, memterms_st, types_st, untyped_st,
)

a = Base("a")
ANNOTATED = {Var, BoundVar, Lam, App, Wrap, SetTerm}
UNTYPED = {UVar, UBoundVar, ULam, UApp}


# --- the class-pattern versions ---------------------------------------------

def reference_children(t) -> list:
    match t:
        case Var() | BoundVar() | UVar() | UBoundVar():
            return []
        case Lam(_, _, body) | ULam(_, body):
            return [body]
        case App(fun, arg):
            return [fun, *arg.elements]
        case UApp(fun, arg):
            return [fun, arg]
        case Wrap(head, payload):
            return [head, *payload.elements]
        case SetTerm(elements):
            return list(elements)
    raise TypeError(f"not a term: {t!r}")


def _reference_rebuild_set(s, kids):
    if all(map(operator.is_, kids, s.elements)):
        return s
    return SetTerm.of(kids)


def reference_rebuild(t, kids: list):
    match t:
        case Var() | BoundVar() | UVar() | UBoundVar():
            return t
        case Lam(hint, binder, body):
            return t if kids[0] is body else Lam(hint, binder, kids[0])
        case ULam(hint, body):
            return t if kids[0] is body else ULam(hint, kids[0])
        case App(fun, arg):
            new_arg = _reference_rebuild_set(arg, kids[1:])
            return t if kids[0] is fun and new_arg is arg else App(kids[0], new_arg)
        case UApp(fun, arg):
            return t if kids[0] is fun and kids[1] is arg else UApp(kids[0], kids[1])
        case Wrap(head, payload):
            new_payload = _reference_rebuild_set(payload, kids[1:])
            if kids[0] is head and new_payload is payload:
                return t
            return Wrap(kids[0], new_payload)
        case SetTerm():
            return _reference_rebuild_set(t, kids)
    raise TypeError(f"not a term: {t!r}")


def reference_type_height(t) -> int:
    height = 0
    stack = [(t, 0)]
    while stack:
        t, arrows = stack.pop()
        match t:
            case Base():
                height = max(height, arrows)
            case Arrow(domain, codomain):
                stack += [(domain, arrows + 1), (codomain, arrows + 1)]
            case SetType(elements):
                stack += [(e, arrows) for e in elements]
            case _:
                raise TypeError(f"not a type: {t!r}")
    return height


def reference_node_typing(t):
    match t:
        case Var(_, annot):
            return annot, ()
        case BoundVar(index, annot):
            return annot, ((index, frozenset([annot])),)
        case Lam(_, binder, body):
            if body.typing is _ILL_FORMED:
                return _ILL_FORMED
            body_type, loose = body.typing
            if loose and loose[0][0] == 0:
                if not all(a in binder.elements for a in loose[0][1]):
                    return _ILL_FORMED
                loose = loose[1:]
            return Arrow(binder, body_type), tuple((i - 1, a) for i, a in loose)
        case App(fun, arg):
            arg_typing = typecheck._set_value(arg, "typing", reference_node_typing)
            if fun.typing is _ILL_FORMED or arg_typing is _ILL_FORMED:
                return _ILL_FORMED
            fun_type = fun.typing[0]
            if not isinstance(fun_type, Arrow) or arg_typing[0] != fun_type.domain:
                return _ILL_FORMED
            return fun_type.codomain, typecheck._merge([fun.typing, arg_typing])
        case Wrap(head, payload):
            payload_typing = typecheck._set_value(payload, "typing", reference_node_typing)
            if head.typing is _ILL_FORMED or payload_typing is _ILL_FORMED:
                return _ILL_FORMED
            return head.typing[0], typecheck._merge([head.typing, payload_typing])
        case SetTerm(elements):
            typings = [e.typing for e in elements]
            if _ILL_FORMED in typings:
                return _ILL_FORMED
            result = SetType.of(typing[0] for typing in typings)
            if len(result.elements) != len(typings):
                return _ILL_FORMED
            return result, typecheck._merge(typings)
    raise TypeError(f"not a term: {t!r}")


def reference_node_erasure(t):
    match t:
        case Var(name, _):
            return UVar(name)
        case BoundVar(index, _):
            return UBoundVar(index)
        case Lam(hint, _, body):
            return _NOT_UNIFORM if body.erasure is _NOT_UNIFORM else ULam(hint, body.erasure)
        case App(fun, arg):
            arg_erasure = typecheck._set_value(arg, "erasure", reference_node_erasure)
            if fun.erasure is _NOT_UNIFORM or arg_erasure is _NOT_UNIFORM:
                return _NOT_UNIFORM
            return UApp(fun.erasure, arg_erasure)
        case Wrap():
            return _NOT_UNIFORM
        case SetTerm(elements):
            if not elements or any(e.erasure != elements[0].erasure for e in elements[1:]):
                return _NOT_UNIFORM
            return elements[0].erasure
    raise TypeError(f"not a term: {t!r}")


# --- comparison -------------------------------------------------------------

def _parts(t):
    """Every node of t, with the argument and payload sets below it."""
    for node in nodes(t):
        yield node
        if type(node) is App:
            yield node.arg
        elif type(node) is Wrap:
            yield node.payload


def _same_value(new, old) -> bool:
    return new is old if isinstance(old, str) else type(new) is type(old) and new == old


def _stand_in(t):
    """A child for t that is none of its own children."""
    return UVar("fresh") if type(t) in UNTYPED else Var("fresh", a)


def assert_children_and_rebuild_match(t):
    fresh = _stand_in(t)
    for node in nodes(t):
        kids = children(node)
        old_kids = reference_children(node)
        assert len(kids) == len(old_kids) and all(map(operator.is_, kids, old_kids))
        assert rebuild(node, kids) is node and reference_rebuild(node, list(kids)) is node
        for i in range(len(kids)):
            changed = kids[:i] + [fresh] + kids[i + 1:]
            new, old = rebuild(node, changed), reference_rebuild(node, list(changed))
            assert type(new) is type(old) and new == old and new is not node
            if type(node) is App and i == 0:
                assert new.arg is node.arg and old.arg is node.arg
            if type(node) is Wrap and i == 0:
                assert new.payload is node.payload and old.payload is node.payload


def assert_folds_match(t):
    """Typing and erasure of an annotated t, node by node, cached and
    computed again; both folds read the children's cached values, so
    comparing at every node compares the whole fold."""
    _cached(t, "typing", _node_typing)
    _cached(t, "erasure", _node_erasure)
    for part in _parts(t):
        assert _same_value(part.typing, reference_node_typing(part))
        assert _same_value(_node_typing(part), reference_node_typing(part))
        if part.erasure is not None:  # a wrapper's payload set is never erased
            assert _same_value(part.erasure, reference_node_erasure(part))
        assert _same_value(_node_erasure(part), reference_node_erasure(part))
        typing = part.typing
        if typing is not _ILL_FORMED:
            assert type_height(typing[0]) == reference_type_height(typing[0])
        if type(part) in (Var, BoundVar):
            assert type_height(part.annot) == reference_type_height(part.annot)
        elif type(part) is Lam:
            assert type_height(part.binder) == reference_type_height(part.binder)


def assert_matches_reference(t):
    assert_children_and_rebuild_match(t)
    if type(t) in UNTYPED:
        return
    assert_folds_match(t)
    erasure = t.erasure
    if erasure is not _NOT_UNIFORM:
        assert_children_and_rebuild_match(erasure)


def _one_step_reducts(t):
    for calculus in ("i", "im"):
        if calculus == "i" and not syntax.is_wrapper_free(t):
            continue
        for _, reduct in reducts(t, calculus, {}):
            yield reduct


def test_corpus_reducts_and_erasures_match_the_reference(corpus):
    for entry in corpus:
        assert_matches_reference(entry.term)
        if entry.untyped is not None:
            assert_children_and_rebuild_match(entry.untyped)
        for reduct in _one_step_reducts(entry.term):
            assert_matches_reference(reduct)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
def test_church_applications_match_the_reference(m, n):
    untyped = church_application(m, n)
    term = infer_sn(untyped, Fuel(20_000, 20_000)).term
    assert_children_and_rebuild_match(untyped)
    assert_matches_reference(term)
    for reduct in _one_step_reducts(term):
        assert_matches_reference(reduct)


@pytest.mark.parametrize("name", "ABCDEFGH")
def test_deep_shapes_match_the_reference(name):
    text = shape(name, 6)
    t = parse_untyped(text) if name == "E" else parse_term(text)
    assert_matches_reference(t)
    if name != "E":
        for reduct in _one_step_reducts(t):
            assert_matches_reference(reduct)


@given(memterms_st())
def test_annotated_terms_match_the_reference(t):
    assert_matches_reference(t)


@given(colliding_memterms_st())
def test_open_terms_with_wrappers_match_the_reference(t):
    # dangling indices, wrappers and ill-typed applications
    assert_matches_reference(t)


@given(untyped_st())
def test_untyped_terms_match_the_reference(m):
    assert_matches_reference(m)


@given(colliding_untyped_st())
def test_open_untyped_terms_match_the_reference(m):
    assert_matches_reference(m)


@given(types_st)
def test_type_height_matches_the_reference(ty):
    assert type_height(ty) == reference_type_height(ty)
    assert type_height(SetType.of([ty, a])) == reference_type_height(SetType.of([ty, a]))


# --- the tables and the errors ----------------------------------------------

def test_every_term_class_has_an_entry_in_each_table():
    assert set(syntax._CHILDREN) == ANNOTATED | UNTYPED
    assert set(syntax._REBUILD) == ANNOTATED | UNTYPED
    assert set(syntax._PRINTERS) == ANNOTATED | UNTYPED | {Base, Arrow, SetType}
    # typing and erasure are folds over annotated terms only
    assert set(typecheck._TYPINGS) == ANNOTATED
    assert set(typecheck._ERASURES) == ANNOTATED


NOT_TERMS = [a, Arrow(SetType.of([a]), a), SetType.of([a]),
             TypingContext.of({"y": SetType.of([a])}), None]


@pytest.mark.parametrize("x", NOT_TERMS, ids=lambda x: type(x).__name__)
def test_children_and_rebuild_reject_what_is_not_a_term(x):
    with pytest.raises(TypeError) as raised:
        children(x)
    assert str(raised.value) == f"not a term: {x!r}"
    with pytest.raises(TypeError) as raised:
        rebuild(x, [])
    assert str(raised.value) == f"not a term: {x!r}"


@pytest.mark.parametrize("x", NOT_TERMS[:4] + [UVar("y"), ULam("x", UBoundVar(0))],
                         ids=lambda x: type(x).__name__)
def test_typing_and_erasure_reject_what_is_not_an_annotated_term(x):
    for fold in (_node_typing, _node_erasure):
        with pytest.raises(TypeError) as raised:
            fold(x)
        assert str(raised.value) == f"not a term: {x!r}"


@pytest.mark.parametrize("t", [Var("y", a), UVar("y"), SetTerm.of([Var("y", a)]), None],
                         ids=lambda x: type(x).__name__)
def test_type_height_rejects_what_is_not_a_type(t):
    with pytest.raises(TypeError) as raised:
        type_height(t)
    assert str(raised.value) == f"not a type: {t!r}"


def test_pretty_rejects_a_context():
    context = TypingContext.of({"y": SetType.of([a])})
    with pytest.raises(TypeError) as raised:
        pretty(context)
    assert str(raised.value) == f"cannot print {context!r}"
