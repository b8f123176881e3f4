"""Rule schemas of `check_curry` and `decorate`: one derivation per reason
a node is rejected, and the walk that checks and decorates.  Then
`erase_derivation`, against the bottom-up builder it replaced."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import corpus as corpus_mod
import deep
from setlam import (
    App, Arrow, Base, CurryDerivation, InvalidDerivation, Lam, SetTerm, SetType,
    TypingContext, UApp, ULam, UVar, Var, check, check_curry, decorate,
    derivation_from_json, derivation_to_json, erase, erase_derivation, infer_sn,
    minimal_context, parse_term, pretty,
)
from setlam import binding, derivation, naming, syntax, typecheck
from setlam.binding import close_term, uopen
from setlam.naming import Names
from setlam.syntax import BoundVar, run


def _node(rule, ctx, term, type_, *premises, **extra):
    node = {"rule": rule, "ctx": ctx, "term": term, "type": type_, **extra}
    if premises:
        node["premises"] = list(premises)
    return node


X_A = {"x": ["a"]}
X_A_Y_A = {"x": ["a"], "y": ["a"]}
X_AB = {"x": ["a", "b"]}
APPLY = {"x": ["{a} -> a"], "y": ["a"]}  # x y : a


def _var(ctx, name, type_):
    return _node("var", ctx, name, type_)


def _many(ctx, term, types, *premises):
    return _node("many", ctx, term, types, *premises)


def _elim(ctx, fun, arg, type_, fun_type, arg_types):
    """A valid elim node for `fun arg` with var premises."""
    return _node("elim", ctx, f"{fun} {arg}", type_, _var(ctx, fun, fun_type),
                 _many(ctx, arg, arg_types, *(_var(ctx, arg, t) for t in arg_types)))


# Each rejection: the derivation, then the path, rule and reason of the
# InvalidDerivation that check_curry and decorate raise.
REJECTIONS = {
    "var-subject": (_var({}, "\\x. x", "a"), (), "var", "subject is not a variable"),
    "var-set-conclusion": (_var(X_A, "x", ["a"]), (), "var",
                           "conclusion must be a single type"),
    "var-premises": (_node("var", X_A, "x", "a", _var(X_A, "x", "a")), (), "var",
                     "var takes no premises"),
    "var-outside-set": (_var({"x": ["b"]}, "x", "a"), (), "var",
                        "a not in context set for x"),
    "var-select": (_node("var", X_AB, "x", "a", select="b"), (), "var",
                   "select does not match the conclusion type"),
    "many-single-conclusion": (_many(X_A, "x", "a", _var(X_A, "x", "a")), (), "many",
                               "conclusion must be a set-type"),
    "many-empty": (_many({}, "x", []), (), "many", "empty many nodes are not accepted"),
    "many-set-premise": (_many(X_A, "x", ["a"], _many(X_A, "x", ["a"], _var(X_A, "x", "a"))),
                         (), "many", "premises must conclude single types"),
    "many-equal-types": (_many(X_A, "x", ["a"], _var(X_A, "x", "a"), _var(X_A, "x", "a")),
                         (), "many", "premises with equal types"),
    "many-not-the-set": (_many(X_AB, "x", ["a", "b"], _var(X_AB, "x", "a")), (), "many",
                         "premise types do not form the conclusion set"),
    "many-premise-context": (_many(X_AB, "x", ["a"], _var(X_A, "x", "a")), (0,), "var",
                             "premise context differs"),
    "many-premise-subject": (_many(X_A_Y_A, "x", ["a"], _var(X_A_Y_A, "y", "a")), (0,), "var",
                             "premise subject differs"),
    "intro-subject": (_node("intro", X_A, "x", "{a} -> a", _var(X_A, "x", "a")), (), "intro",
                      "subject is not an abstraction"),
    "intro-arrow": (_node("intro", {}, "\\x. x", "a", _var(X_A, "x", "a")), (), "intro",
                    "conclusion must be an arrow type"),
    "intro-premises": (_node("intro", {}, "\\x. x", "{a} -> a"), (), "intro",
                       "intro takes exactly one premise"),
    "intro-context": (_node("intro", {}, "\\x. x", "{a} -> a", _var(X_A_Y_A, "x", "a")), (),
                      "intro", "premise context is not the extended context"),
    "intro-body": (_node("intro", {"y": ["a"]}, "\\x. x", "{a} -> a", _var(X_A_Y_A, "y", "a")),
                   (), "intro", "premise subject is not the opened body"),
    "intro-codomain": (_node("intro", {}, "\\x. x", "{a} -> b", _var(X_A, "x", "a")), (),
                       "intro", "premise type is not the codomain"),
    "elim-subject": (_node("elim", X_A, "x", "a"), (), "elim", "subject is not an application"),
    "elim-set-conclusion": (_node("elim", APPLY, "x y", ["a"]), (), "elim",
                            "conclusion must be a single type"),
    "elim-premises": (_node("elim", APPLY, "x y", "a"), (), "elim",
                      "elim takes exactly two premises"),
    "elim-fun-arrow": (_elim(X_A_Y_A, "x", "y", "a", "a", ["a"]), (), "elim",
                       "first premise must conclude an arrow type"),
    "elim-arg-set": (_node("elim", APPLY, "x y", "a", _var(APPLY, "x", "{a} -> a"),
                           _var(APPLY, "y", "a")), (), "elim",
                     "second premise must conclude a set-type"),
    # The premise is checked before the elim node, and no premise that
    # passes its own rule concludes the empty set-type.
    "elim-empty-argument": (_node("elim", APPLY, "x y", "a", _var(APPLY, "x", "{a} -> a"),
                                  _many(APPLY, "y", [])), (1,), "many",
                            "empty many nodes are not accepted"),
    "elim-compose": (_elim({"x": ["{a} -> a"], "y": ["b"]}, "x", "y", "a", "{a} -> a", ["b"]),
                     (), "elim", "premise types do not compose"),
    "elim-context": ({**_elim(APPLY, "x", "y", "a", "{a} -> a", ["a"]),
                      "ctx": {**APPLY, "z": ["a"]}}, (), "elim", "premise context differs"),
    "elim-subjects": ({**_elim(APPLY, "x", "y", "a", "{a} -> a", ["a"]), "term": "y x"}, (),
                      "elim", "premise subjects do not split the application"),
    # A failure below the root is reported at its own node, premises first.
    "nested": (_node("intro", {}, "\\x. x x", "{{a} -> a, a} -> a",
                     _elim({"x": ["{a} -> a", "a"]}, "x", "x", "a", "{a} -> a", ["b"])),
               (0, 1, 0), "var", "b not in context set for x"),
}


@pytest.mark.parametrize("check", [check_curry, decorate])
@pytest.mark.parametrize("name", REJECTIONS)
def test_each_rejection_names_its_node_and_reason(name, check):
    data, path, rule, reason = REJECTIONS[name]
    with pytest.raises(InvalidDerivation) as error:
        check(derivation_from_json(json.dumps(data)))
    assert (error.value.path, error.value.rule, error.value.reason) == (path, rule, reason)


@pytest.mark.parametrize("check", [check_curry, decorate])
def test_an_unknown_rule_is_rejected(check):
    # derivation_from_json accepts only the four rules
    d = CurryDerivation("cut", TypingContext(), UVar("x"), Base("a"))
    with pytest.raises(InvalidDerivation) as error:
        check(d)
    assert (error.value.path, error.value.rule, error.value.reason) == ((), "cut", "unknown rule")


def _counting_run(driven: list):
    """syntax.run, counting in driven[0] each generator it drives."""
    def run(walk):
        stack = [walk]
        driven[0] += 1
        value = None
        while True:
            try:
                call = stack[-1].send(value)
            except StopIteration as returned:
                stack.pop()
                if not stack:
                    return returned.value
                value = returned.value
            else:
                stack.append(call)
                driven[0] += 1
                value = None
    return run


def _size(d: CurryDerivation) -> int:
    return 1 + sum(map(_size, d.premises))


def test_decorate_walks_the_derivation_once(monkeypatch):
    t = parse_term("\\x:{{a,b}->c, a, b}. x^({a,b}->c) {x^a, x^b}")
    d = erase_derivation(t, TypingContext())
    driven = [0]
    monkeypatch.setattr(derivation, "run", _counting_run(driven))
    assert decorate(d) == t
    assert driven[0] == _size(d) == 6
    driven[0] = 0
    assert check_curry(d).type_ == d.type_
    assert driven[0] == _size(d)


# --- erase_derivation ---------------------------------------------------------

def _reference_derivation(t, context: TypingContext, binders: Names):
    """The builder `erase_derivation` used before it built subjects
    top-down: each chain's body subject is built bottom-up, closed over
    the chain's names, then opened again one binder at a time."""
    match t:
        case Var() | BoundVar():
            subject = UVar(t.name if isinstance(t, Var) else binders.env[-1 - t.index])
            return CurryDerivation("var", context, subject, t.annot, (), t.annot)
        case Lam():
            chain, body = binders.open(t)
            names = [name for _, name in chain]
            contexts = [context]
            for lam, name in chain:
                contexts.append(contexts[-1].bind(name, lam.binder))
            node = yield _reference_derivation(body, contexts.pop(), binders)
            binders.close()
            subject = close_term(node.subject, *names)
            for name in reversed(names):
                subject = ULam(name, subject)
            subjects = [subject]
            for name in names[:-1]:
                subjects.append(uopen(subjects[-1].body, UVar(name)))
            for (lam, _), outer, subject in zip(reversed(chain), reversed(contexts),
                                                reversed(subjects)):
                node = CurryDerivation(
                    "intro", outer, subject, Arrow(lam.binder, node.type_), (node,))
            return node
        case App(fun, arg):
            fun_node = yield _reference_derivation(fun, context, binders)
            elements = []
            for e in arg.elements:
                elements.append((yield _reference_derivation(e, context, binders)))
            arg_node = CurryDerivation("many", context, elements[0].subject,
                                       SetType.of(e.type_ for e in elements), tuple(elements))
            return CurryDerivation("elim", context, UApp(fun_node.subject, arg_node.subject),
                                   fun_node.type_.codomain, (fun_node, arg_node))
    raise TypeError(f"not a uniform wrapper-free term: {t!r}")


def _reference(t, context: TypingContext) -> CurryDerivation:
    check(context, t)
    erase(t)
    return run(_reference_derivation(t, context, Names(t)))


def _json(d: CurryDerivation) -> str:
    return json.dumps(derivation_to_json(d))


def _named_like(t, model):
    """t with each binder's hint taken from model, a term of the same
    erasure, whose sets are read through their first elements."""
    match t:
        case Lam(_, binder, body):
            return Lam(model.hint, binder, _named_like(body, model.body))
        case App(fun, arg):
            return App(_named_like(fun, model.fun),
                       SetTerm.of([_named_like(e, model.arg.elements[0]) for e in arg.elements]))
    return t


def test_erase_derivation_matches_the_reference(corpus):
    terms = [(e.term, e.context) for e in corpus]
    for m, n in ((2, 2), (2, 3), (3, 2)):
        inferred = infer_sn(corpus_mod.church_application(m, n), corpus_mod.INFER_FUEL)
        terms.append((inferred.term, inferred.context))
    for k in range(1, 7):
        t = deep.built("H", k)
        terms.append((t, minimal_context(t)))
    uniform = [(t, context) for t, context in terms if typecheck.is_uniform(t)]
    assert len(uniform) >= 200
    for t, context in uniform:
        d = erase_derivation(t, context)
        assert _json(d) == _json(_reference(t, context))
        assert decorate(d) == t


# binder hints that collide with each other, with the samples' free names
# (x, y, z) and with the names the printer suffixes; "Q" is named "x"
HINTS = st.sampled_from(["x", "y", "z", "x0", "x1", "y0", "Q"])


def _rehinted(t, draw):
    """t with a hint drawn for every binder, in each element of a set apart."""
    match t:
        case Lam(_, binder, body):
            return Lam(draw(HINTS), binder, _rehinted(body, draw))
        case App(fun, arg):
            return App(_rehinted(fun, draw),
                       SetTerm.of([_rehinted(e, draw) for e in arg.elements]))
    return t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_erase_derivation_matches_the_reference_on_colliding_hints(sn_samples, data):
    # the elements of a set are named like the first: where their hints
    # differ, the reference agrees once it is given the first's hints
    inferred = data.draw(st.sampled_from(sn_samples[:100]))[1]
    t = _rehinted(inferred.term, data.draw)
    d = erase_derivation(t, inferred.context)
    assert _json(d) == _json(_reference(_named_like(t, t), inferred.context))
    assert decorate(d) == t


def test_set_elements_are_named_like_the_first():
    # The elements of a many node take its own subject, so \y in the
    # second element is named x, the first element's name; equality
    # ignores hints, so the derivation still decorates to t
    t = parse_term("f^({a -> a, b -> b} -> c) {\\x:{a}. x^a, \\y:{b}. y^b}")
    d = erase_derivation(t, minimal_context(t))
    many = d.premises[1]
    assert many.subject is d.subject.arg
    assert all(p.subject is many.subject for p in many.premises)
    assert pretty(decorate(d)) == "f^({a -> a, b -> b} -> c) {\\x:{a}. x^a, \\x:{b}. x^b}"
    assert pretty(decorate(_reference(t, minimal_context(t)))) == pretty(t)
    assert decorate(d) == t
    back = derivation_from_json(json.dumps(derivation_to_json(d)))
    assert check_curry(back) == check_curry(d)


def test_a_set_term_root_is_rejected():
    s = SetTerm.of([Var("x", Base("a"))])
    with pytest.raises(TypeError, match="not a uniform wrapper-free term"):
        erase_derivation(s, minimal_context(s))


def _children_calls(monkeypatch, t) -> int:
    """The calls of `syntax.children`, through each module that imports
    it, that erase_derivation makes on t."""
    context = minimal_context(t)
    children, calls = syntax.children, [0]

    def counted(node):
        calls[0] += 1
        return children(node)
    for module in (syntax, binding, typecheck, naming):
        monkeypatch.setattr(module, "children", counted)
    try:
        erase_derivation(t, context)
    finally:
        monkeypatch.undo()
    return calls[0]


def test_erase_derivation_visits_each_node_a_bounded_number_of_times(monkeypatch):
    # Shape H nests n chains under a free variable: closing each chain's
    # body over its name, as the bottom-up builder did, walks all of it,
    # so the calls grew as n^2 (24 times from 200 to 1,000)
    small = _children_calls(monkeypatch, deep.built("H", 200))
    large = _children_calls(monkeypatch, deep.built("H", 1_000))
    assert large <= 6 * small, (small, large)
