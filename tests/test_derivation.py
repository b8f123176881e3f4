"""Rule schemas of `check_curry` and `decorate`: one derivation per reason
a node is rejected, and the walk that checks and decorates."""

import json

import pytest

from setlam import (
    Base, CurryDerivation, InvalidDerivation, TypingContext, UVar, check_curry,
    decorate, derivation_from_json, erase_derivation, parse_term,
)
from setlam import derivation


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
