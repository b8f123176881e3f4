"""Derivations of the assignment system on untyped terms.

This is the Curry-style half of the paper: its objects are derivations,
explicit trees supplied as JSON, whose annotated counterparts are the
terms of `setlam.typecheck`.  One walk validates each node against its
rule schema and builds the annotated term the node encodes once it
passes: `check_curry` returns the root judgement, `decorate` the term.
`erase_derivation` builds a uniform term's derivation top-down, each
premise's subject from its node's.  The walks are plain recursions run
on `syntax.run`, so they work at any depth.

JSON schema (docs/formats.md): {"rule": "var"|"many"|"intro"|"elim",
"ctx": {x: [type strings]}, "term": untyped term string, "type": type
string ("many": list of type strings), "premises": [...], "select":
type string (var only, optional, must equal "type")}.
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple, Union

from .binding import uopen
from .errors import InvalidDerivation
from .naming import Names
from .syntax import (
    App, Arrow, BoundVar, Lam, MemTerm, SetTerm, SetType, Type, UApp, ULam,
    UntypedTerm, UVar, Var, parse_type, parse_untyped, pretty, run,
)
from .typecheck import Judgement, TypingContext, check, erase

__all__ = [
    "CurryDerivation",
    "check_curry", "decorate", "erase_derivation", "canonical_derivation",
    "derivation_from_json", "derivation_to_json",
]


class CurryDerivation(NamedTuple):
    rule: str
    context: TypingContext
    subject: UntypedTerm
    type_: Union[Type, SetType]
    premises: tuple["CurryDerivation", ...] = ()
    select: Type | None = None


_RULES = ("var", "many", "intro", "elim")


def _json_path(path: list[int]) -> str:
    return "$" + "".join(f".premises[{i}]" for i in path)


def _json_kind(value) -> str:
    for kind, python in (("boolean", bool), ("number", (int, float)), ("string", str),
                         ("array", list), ("object", dict)):
        if isinstance(value, python):
            return kind
    return "null"


def derivation_from_json(data: str | dict) -> CurryDerivation:
    """The derivation a JSON text (or its decoded value) describes.

    Raises InvalidDerivation, naming the JSON path of the value, where
    the data does not follow the schema, and ParseError where a term or
    type string does not parse.
    """
    if isinstance(data, str):
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 20_000))  # a chain nests two levels per node
        try:
            data = json.loads(data)
        finally:
            sys.setrecursionlimit(old_limit)
    parsed: dict = {}  # each distinct type string and type list is parsed once

    def bad(path: list[int], where: str, expected: str, value):
        raise InvalidDerivation(tuple(path), "derivation",
                                f"expected {expected}, found {_json_kind(value)}",
                                _json_path(path) + where)

    def type_of(text: str) -> Type:
        if text not in parsed:
            parsed[text] = parse_type(text)
        return parsed[text]

    def types_of(value, path: list[int], where: str) -> SetType:
        if not isinstance(value, list):
            bad(path, where, "a list of type strings", value)
        for i, text in enumerate(value):
            if not isinstance(text, str):
                bad(path, f"{where}[{i}]", "a type string", text)
        if tuple(value) not in parsed:
            parsed[tuple(value)] = SetType.of(map(type_of, value))
        return parsed[tuple(value)]

    def node(d, path: list[int]):
        if not isinstance(d, dict):
            bad(path, "", "an object", d)
        rule = d.get("rule")
        if rule not in _RULES:
            raise InvalidDerivation(tuple(path), "derivation", "expected one of "
                                    + ", ".join(f'"{r}"' for r in _RULES),
                                    _json_path(path) + ".rule")
        ctx = d.get("ctx", {})
        if not isinstance(ctx, dict):
            bad(path, ".ctx", "an object", ctx)
        context = TypingContext.of(
            {x: types_of(value, path, f".ctx.{x}") for x, value in ctx.items()})
        term = d.get("term")
        if not isinstance(term, str):
            bad(path, ".term", "an untyped term string", term)
        subject = parse_untyped(term)
        raw_type = d.get("type")
        if isinstance(raw_type, list):
            type_: Type | SetType = types_of(raw_type, path, ".type")
        elif isinstance(raw_type, str):
            type_ = type_of(raw_type)
        else:
            bad(path, ".type", "a type string or a list of them", raw_type)
        raw_premises = d.get("premises", [])
        if not isinstance(raw_premises, list):
            bad(path, ".premises", "a list of derivation nodes", raw_premises)
        premises = []
        for i, premise in enumerate(raw_premises):
            path.append(i)
            premises.append((yield node(premise, path)))
            path.pop()
        select = None
        if "select" in d:
            if not isinstance(d["select"], str):
                bad(path, ".select", "a type string", d["select"])
            select = type_of(d["select"])
        return CurryDerivation(rule, context, subject, type_, tuple(premises), select)

    return run(node(data, []))


def derivation_to_json(d: CurryDerivation) -> dict:
    def node(d):
        premises = []
        for premise in d.premises:
            premises.append((yield node(premise)))
        out: dict = {
            "rule": d.rule,
            "ctx": {n: [pretty(e) for e in s.elements] for n, s in d.context.entries},
            "term": pretty(d.subject),
            "type": ([pretty(e) for e in d.type_.elements]
                     if isinstance(d.type_, SetType) else pretty(d.type_)),
        }
        if premises:
            out["premises"] = premises
        if d.select is not None:
            out["select"] = pretty(d.select)
        return out
    return run(node(d))


def check_curry(d: CurryDerivation) -> Judgement:
    """Validate every node against its rule schema, premises before their
    node; return the root judgement."""
    run(_check(d, [], {}, 0))
    return Judgement(d.context, d.subject, d.type_)


def _fail(path: list[int], rule, reason):
    raise InvalidDerivation(tuple(path), rule, reason)


def _check(d: CurryDerivation, path: list[int], binders: dict[str, list[int]], depth: int):
    """Check d's premises, then d against its rule schema; return the
    annotated term d encodes.  `depth` intro nodes above d bind a name,
    and `binders` maps each name to the depths of those binding it; an
    occurrence of a name bound there becomes its innermost binder's index."""
    binds = d.rule == "intro" and isinstance(d.subject, ULam)
    if binds:
        binders.setdefault(d.subject.hint, []).append(depth)
    terms = []
    for i, premise in enumerate(d.premises):
        path.append(i)
        terms.append((yield _check(premise, path, binders, depth + binds)))
        path.pop()
    if binds:
        binders[d.subject.hint].pop()
    match d.rule:
        case "var":
            if not isinstance(d.subject, UVar):
                _fail(path, "var", "subject is not a variable")
            if isinstance(d.type_, SetType):
                _fail(path, "var", "conclusion must be a single type")
            if d.premises:
                _fail(path, "var", "var takes no premises")
            name = d.subject.name
            if d.type_ not in d.context.get(name):
                _fail(path, "var", f"{d.type_} not in context set for {name}")
            if d.select is not None and d.select != d.type_:
                _fail(path, "var", "select does not match the conclusion type")
            if binders.get(name):
                return BoundVar(depth - 1 - binders[name][-1], d.type_)
            return Var(name, d.type_)
        case "many":
            if not isinstance(d.type_, SetType):
                _fail(path, "many", "conclusion must be a set-type")
            if not d.premises:
                _fail(path, "many", "empty many nodes are not accepted")
            types = [p.type_ for p in d.premises]
            if any(isinstance(t, SetType) for t in types):
                _fail(path, "many", "premises must conclude single types")
            if len(set(types)) != len(types):
                _fail(path, "many", "premises with equal types")
            if SetType.of(types) != d.type_:
                _fail(path, "many", "premise types do not form the conclusion set")
            for i, p in enumerate(d.premises):
                if p.context != d.context:
                    _fail([*path, i], p.rule, "premise context differs")
                if p.subject != d.subject:
                    _fail([*path, i], p.rule, "premise subject differs")
            return SetTerm.of(terms)
        case "intro":
            if not isinstance(d.subject, ULam):
                _fail(path, "intro", "subject is not an abstraction")
            if not isinstance(d.type_, Arrow):
                _fail(path, "intro", "conclusion must be an arrow type")
            if len(d.premises) != 1:
                _fail(path, "intro", "intro takes exactly one premise")
            premise = d.premises[0]
            name = d.subject.hint
            if premise.context != d.context.bind(name, d.type_.domain):
                _fail(path, "intro", "premise context is not the extended context")
            if premise.subject != uopen(d.subject.body, UVar(name)):
                _fail(path, "intro", "premise subject is not the opened body")
            if premise.type_ != d.type_.codomain:
                _fail(path, "intro", "premise type is not the codomain")
            return Lam(name, d.type_.domain, terms[0])
        case "elim":
            if not isinstance(d.subject, UApp):
                _fail(path, "elim", "subject is not an application")
            if isinstance(d.type_, SetType):
                _fail(path, "elim", "conclusion must be a single type")
            if len(d.premises) != 2:
                _fail(path, "elim", "elim takes exactly two premises")
            fun_p, arg_p = d.premises
            if not isinstance(fun_p.type_, Arrow):
                _fail(path, "elim", "first premise must conclude an arrow type")
            if not isinstance(arg_p.type_, SetType):
                _fail(path, "elim", "second premise must conclude a set-type")
            if fun_p.type_.domain != arg_p.type_ or fun_p.type_.codomain != d.type_:
                _fail(path, "elim", "premise types do not compose")
            if fun_p.context != d.context or arg_p.context != d.context:
                _fail(path, "elim", "premise context differs")
            if fun_p.subject != d.subject.fun or arg_p.subject != d.subject.arg:
                _fail(path, "elim", "premise subjects do not split the application")
            return App(*terms)
        case other:
            _fail(path, str(other), "unknown rule")


def decorate(d: CurryDerivation) -> MemTerm | SetTerm:
    """Annotated term encoding a valid derivation, built by the walk that
    checks it; it checks to the root's judgement.  A derivation whose
    root is a many node gives a set-term.
    """
    return run(_check(d, [], {}, 0))


def erase_derivation(t: MemTerm, context: TypingContext) -> CurryDerivation:
    """Derivation for the erasure of a uniform wrapper-free term.

    It mirrors t, one var node per occurrence and one many node per
    set-term, names t's binders as the printer does, and gives every
    premise of a many node the node's own subject: `decorate` gives back
    t up to binder hints, with a set's elements all named like its first.
    Raises NotUniform on non-uniform input and the usual typing errors
    when t does not check under the context.
    """
    check(context, t)
    erase(t)  # raises NotUniform where t does not erase
    return run(_derivation(t, context, run(_named(t, Names(t)))))


def _named(t, names: Names):
    """The erasure of t with each binder named by `names`; every element of
    a set is walked, as `names` requires, and the first one's is kept."""
    match t:
        case Var() | BoundVar():
            return erase(t)
        case Lam():
            chain, body = names.open(t)
            subject = yield _named(body, names)
            names.close()
            for _, name in reversed(chain):
                subject = ULam(name, subject)
            return subject
        case App(fun, arg):
            subject = yield _named(fun, names)
            elements = []
            for e in arg.elements:
                elements.append((yield _named(e, names)))
            return UApp(subject, elements[0])
    raise TypeError(f"not a uniform wrapper-free term: {t!r}")


def _derivation(t, context: TypingContext, subject: UntypedTerm):
    """The derivation of t, walked by `_named`, for the subject its parent built."""
    match t:
        case Lam():
            body = yield _derivation(t.body, context.bind(subject.hint, t.binder),
                                     uopen(subject.body, UVar(subject.hint)))
            return CurryDerivation("intro", context, subject, Arrow(t.binder, body.type_), (body,))
        case App():
            fun = yield _derivation(t.fun, context, subject.fun)
            elements = []
            for e in t.arg.elements:
                elements.append((yield _derivation(e, context, subject.arg)))
            arg = CurryDerivation("many", context, subject.arg, fun.type_.domain, tuple(elements))
            return CurryDerivation("elim", context, subject, fun.type_.codomain, (fun, arg))
    return CurryDerivation("var", context, subject, t.annot, (), t.annot)


def canonical_derivation(d: CurryDerivation) -> CurryDerivation:
    """Sort many premises by type and normalize select fields."""
    def node(d):
        premises = []
        for premise in d.premises:
            premises.append((yield node(premise)))
        if d.rule == "many":
            premises.sort(key=lambda p: p.type_.key)
        select = d.type_ if d.rule == "var" and not isinstance(d.type_, SetType) else None
        return d._replace(premises=tuple(premises), select=select)
    return run(node(d))
