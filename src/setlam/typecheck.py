"""Type synthesis and checking, refinement, and derivation handling.

Annotated terms are syntax-directed: the type of a term is determined
bottom-up by its annotations, and type synthesis never consults a
context.  `check` adds the context audit for free occurrences: the
`var` axiom at each free occurrence, read off the term itself in term
order, through the `FREE_VAR` flag that lets the walk skip the subtrees
without one.

A node's typing is therefore a function of the node alone, and it is
computed once: `_cached` folds a term bottom-up, children first, into
(type, loose occurrences) per node and stores the result on each node
it visits (`typing`), so asking again, for the node or for a larger
term built around it, costs only the new nodes.  An abstraction
validates the annotations of the occurrences it binds and passes the
others up.  Where the fold rejects a term, `_first_error` reads the
first error in position order off the cached typings, along one path
from the root.  The erasure is cached the same way (`erasure`), so
`refines` is a comparison with it, after which the node keeps the
compared term as its erasure.  The module also hosts the derivation
checker for the assignment system on untyped terms: derivations are
explicit trees supplied as JSON, the checker validates each node
against its rule schema, `decorate` turns a valid derivation into an
annotated term and `erase_derivation` inverts it for uniform terms.  The walks over terms
and derivations that follow their structure are plain recursions run
on `syntax.run`, so they work at any depth.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple, Union

from .binding import close_term, uopen
from .errors import (
    InvalidDerivation, NotTypable, NotUniform, UnboundOrWrongAnnotation,
)
from .syntax import (
    App, Arrow, BoundVar, Lam, MemTerm, SetTerm, SetType,
    Type, UApp, UBoundVar, ULam, UntypedTerm, UVar, Var, Wrap,
    _Node, _name_chain, _subterm_paths, children, free_occurrences, parse_type,
    parse_untyped, pretty, run,
)

__all__ = [
    "TypingContext", "Judgement", "CurryDerivation",
    "synthesize_type", "set_type_of", "check", "minimal_context",
    "refines", "is_uniform", "erase",
    "check_curry", "decorate", "erase_derivation", "canonical_derivation",
    "derivation_from_json", "derivation_to_json",
]


class TypingContext(_Node):
    """Finite map from variable names to non-empty set-types.

    Immutable, equal and hashed by its entries, which are its key."""

    __match_args__ = ("entries",)

    def __init__(self, entries: tuple[tuple[str, SetType], ...] = ()):
        names = [n for n, _ in entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("context entries must be sorted and unique")
        if any(not s.elements for _, s in entries):
            raise ValueError("context entries must be non-empty set-types")
        vars(self).update(entries=entries, key=entries)

    @staticmethod
    def of(items: Mapping[str, SetType] | Iterable[tuple[str, SetType]]) -> TypingContext:
        """The context of the entries, each name's set-types merged by one sort."""
        pairs = items.items() if isinstance(items, Mapping) else items
        merged: dict[str, list[SetType]] = {}
        for name, s in pairs:
            merged.setdefault(name, []).append(s)
        entries = []
        for name, sets in sorted(merged.items()):
            s = sets[0] if len(sets) == 1 else SetType.of(e for part in sets for e in part.elements)
            if s.elements:
                entries.append((name, s))
        return TypingContext(tuple(entries))

    def get(self, name: str) -> SetType:
        # A (name,) prefix sorts before every entry of name and compares
        # no set-type.
        i = bisect_left(self.entries, (name,))
        if i < len(self.entries) and self.entries[i][0] == name:
            return self.entries[i][1]
        return SetType(())

    def bind(self, name: str, s: SetType) -> "TypingContext":
        """Context update: any previous binding of `name` is replaced."""
        kept = tuple(e for e in self.entries if e[0] != name)
        return TypingContext.of(kept + ((name, s),))

    def subset_of(self, other: "TypingContext") -> bool:
        return all(s.subset_of(other.get(n)) for n, s in self.entries)

    def __str__(self) -> str:
        return ", ".join(f"{n}:{s}" for n, s in self.entries)


class Judgement(NamedTuple):
    context: TypingContext
    subject: Union[MemTerm, SetTerm, UntypedTerm]
    type_: Union[Type, SetType]


# ---------------------------------------------------------------------------
# Synthesis and checking


def synthesize_type(t: MemTerm | SetTerm) -> Type | SetType:
    """The unique type determined by the annotations of t.

    Raises NotTypable when the annotations do not fit together: an
    applied non-arrow, an argument set not matching the arrow domain, a
    set with duplicate element types, or a bound occurrence whose
    annotation is not in its binder's set.
    """
    return _typed(t, True)


def subterm_type(t: MemTerm | SetTerm) -> Type | SetType:
    """Type of a possibly open subterm of a well-formed whole term.

    Occurrences bound outside the subterm carry their type as their
    annotation, so the annotation is trusted for them; everything else
    is validated as in synthesize_type.
    """
    return _typed(t, False)


def set_type_of(s: SetTerm) -> SetType:
    result = synthesize_type(s)
    assert isinstance(result, SetType)
    return result


# The typing of a node that does not synthesize.
_ILL_FORMED = "ill-formed"


def _typed(t, strict: bool) -> Type | SetType:
    """t's type, from its typing (type, loose occurrences).

    Raises the first error in position order where the fold rejects t,
    or, when `strict`, where an index of t points outside it.
    """
    typing = _cached(t, "typing", _node_typing)
    if typing is _ILL_FORMED or (strict and typing[1]):
        raise _first_error(t, strict)
    return typing[0]


def _cached(t, attribute: str, node_value):
    """The value stored on t under `attribute`, after storing one on every
    node below t that has none yet, children first, with an explicit
    stack: node_value(node) computes it from the children's."""
    value = getattr(t, attribute)
    if value is not None:
        return value
    stack = [(t, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            node.__dict__[attribute] = node_value(node)
        elif getattr(node, attribute) is None:  # not done through another path
            kids = children(node)
            stack.append((node, kids))
            stack.extend([(k, None) for k in kids if getattr(k, attribute) is None])
    return getattr(t, attribute)


def _set_value(s: SetTerm, attribute: str, node_value):
    """The value of an argument or payload set, whose elements have theirs."""
    if getattr(s, attribute) is None:
        s.__dict__[attribute] = node_value(s)
    return getattr(s, attribute)


def _node_typing(t):
    """The typing of t from its children's: (type, loose), where loose
    is a sorted tuple of (index, frozenset of annotations) for the
    indices pointing outside t; or _ILL_FORMED."""
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
            arg_typing = _set_value(arg, "typing", _node_typing)
            if fun.typing is _ILL_FORMED or arg_typing is _ILL_FORMED:
                return _ILL_FORMED
            fun_type = fun.typing[0]
            if not isinstance(fun_type, Arrow) or arg_typing[0] != fun_type.domain:
                return _ILL_FORMED
            return fun_type.codomain, _merge([fun.typing, arg_typing])
        case Wrap(head, payload):
            payload_typing = _set_value(payload, "typing", _node_typing)
            if head.typing is _ILL_FORMED or payload_typing is _ILL_FORMED:
                return _ILL_FORMED
            return head.typing[0], _merge([head.typing, payload_typing])
        case SetTerm(elements):
            typings = [e.typing for e in elements]
            if _ILL_FORMED in typings:
                return _ILL_FORMED
            result = SetType.of(typing[0] for typing in typings)
            if len(result.elements) != len(typings):
                return _ILL_FORMED  # set-term elements with equal types
            return result, _merge(typings)
    raise TypeError(f"not a term: {t!r}")


def _merge(typings: list) -> tuple:
    """The loose occurrences of the children together.  A child's own
    tuple is reused when the others add nothing."""
    loose_parts = [typing[1] for typing in typings if typing[1]]
    if len(loose_parts) <= 1:
        return loose_parts[0] if loose_parts else ()
    by_index: dict[int, frozenset] = {}
    for part in loose_parts:
        for i, annots in part:
            by_index[i] = by_index[i] | annots if i in by_index else annots
    return tuple(sorted(by_index.items()))


def _first_error(t, strict: bool) -> NotTypable:
    """The first error in position order of a t the fold rejects, or,
    when `strict`, of one with an index pointing outside it: one path
    down from the root through the parts that fail, reading only cached
    typings.  A part fails when its typing is _ILL_FORMED, or a loose
    index of it carries an annotation its enclosing binder lacks or,
    when `strict`, points past every enclosing binder.  An application
    reports its function, its type, its argument's elements, their
    types, then the domain; a wrapper its payload before its head."""
    binders: list[SetType] = []
    pos: list[int] = []

    def fails(node) -> bool:
        if node.typing is _ILL_FORMED:
            return True
        for index, annots in node.typing[1]:
            if index >= len(binders):
                return strict  # sorted: every later index dangles too
            if not all(a in binders[-1 - index] for a in annots):
                return True
        return False

    while True:
        match t:
            case BoundVar(index, _):
                if index >= len(binders):
                    return NotTypable(tuple(pos), f"dangling bound variable {index}")
                return NotTypable(tuple(pos), "occurrence annotation not in binder set")
            case Lam(_, binder, body):
                binders.append(binder)
                pos.append(0)
                t = body
                continue
            case App(fun, _) if fails(fun):
                pos.append(0)
                t = fun
                continue
            case App(fun, _) if not isinstance(fun.typing[0], Arrow):
                return NotTypable(tuple(pos), f"applied term has non-arrow type {fun.typing[0]}")
            case App(_, s) | Wrap(_, s):
                offset = 1
            case SetTerm():
                s, offset = t, 0
            case _:
                raise AssertionError(f"no typing error at {t!r}")
        failing = next((i for i, e in enumerate(s.elements) if fails(e)), None)
        if failing is not None:
            pos.append(offset + failing)
            t = s.elements[failing]
            continue
        types = SetType.of(e.typing[0] for e in s.elements)
        if len(types) != len(s):
            return NotTypable(tuple(pos), "set-term elements with equal types")
        if isinstance(t, App):
            domain = t.fun.typing[0].domain
            return NotTypable(tuple(pos), f"argument set-type {types} != domain {domain}")
        pos.append(0)
        t = t.head


def check(context: TypingContext, t: MemTerm | SetTerm) -> Type | SetType:
    """Synthesize, then audit every free occurrence against the context
    in term order: the first one whose annotation the context does not
    hold for its name is reported.
    """
    result = _typed(t, True)
    for name, annot in free_occurrences(t):
        if annot not in context.get(name):
            raise UnboundOrWrongAnnotation(name, annot)
    return result


def minimal_context(t: MemTerm | SetTerm) -> TypingContext:
    """Least context under which t checks (pointwise subset of any other):
    the annotations of t's free occurrences, grouped by name."""
    _typed(t, True)
    groups: dict[str, list[Type]] = {}
    for name, annot in free_occurrences(t):
        groups.setdefault(name, []).append(annot)
    return TypingContext.of((n, SetType.of(ts)) for n, ts in groups.items())


def binder_types(body: MemTerm) -> SetType:
    """The least set-type an abstraction over the possibly open body can
    bind: the annotations of body's occurrences of index 0, read off its
    cached typing; empty when the binder would be vacuous."""
    subterm_type(body)
    loose = body.typing[1]
    return SetType.of(loose[0][1]) if loose and loose[0][0] == 0 else SetType(())


# ---------------------------------------------------------------------------
# Refinement, uniformity, erasure


# The erasure of a node that does not erase to one untyped term.
_NOT_UNIFORM = "not uniform"


def refines(t: MemTerm | SetTerm, m: UntypedTerm) -> bool:
    """Whether t erases, elementwise through set-terms, to m.

    On success t keeps m as its cached erasure: the two are equal, and
    an erasure later built around t's then shares m's key, so comparing
    it with a term built around m short-cuts on identity at m.  `erase`
    then returns m itself, whose binder hints, which identity ignores,
    may differ from t's.
    """
    erasure = _cached(t, "erasure", _node_erasure)
    if erasure is m:
        return True
    if m != erasure:
        return False
    t.__dict__["erasure"] = m
    return True


def erase(t: MemTerm | SetTerm) -> UntypedTerm:
    """The unique untyped term t refines; NotUniform where that fails.

    The position is that of the first failing node in position order: a
    wrapper, or a node whose children all erase but not to one term (an
    application or a set-term whose elements erase differently, or an
    empty set-term).
    """
    erasure = _cached(t, "erasure", _node_erasure)
    if erasure is not _NOT_UNIFORM:
        return erasure
    for path, node in _subterm_paths(t, 0):
        if node.erasure is _NOT_UNIFORM and (
                isinstance(node, Wrap)
                or all(k.erasure is not _NOT_UNIFORM for k in children(node))):
            raise NotUniform(tuple(path))
    raise AssertionError("no failing node below a term that does not erase")


def _node_erasure(t):
    """The erasure of t from its children's, or _NOT_UNIFORM."""
    match t:
        case Var(name, _):
            return UVar(name)
        case BoundVar(index, _):
            return UBoundVar(index)
        case Lam(hint, _, body):
            return _NOT_UNIFORM if body.erasure is _NOT_UNIFORM else ULam(hint, body.erasure)
        case App(fun, arg):
            arg_erasure = _set_value(arg, "erasure", _node_erasure)
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


def is_uniform(t: MemTerm | SetTerm) -> bool:
    return _cached(t, "erasure", _node_erasure) is not _NOT_UNIFORM


# ---------------------------------------------------------------------------
# Derivations for the assignment system on untyped terms
#
# JSON schema (docs/formats.md): {"rule": "var"|"many"|"intro"|"elim",
# "ctx": {x: [type strings]}, "term": untyped term string, "type": type
# string ("many": list of type strings), "premises": [...], "select":
# type string (var only, optional, must equal "type")}.


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
    run(_check(d, []))
    return Judgement(d.context, d.subject, d.type_)


def _fail(path: list[int], rule, reason):
    raise InvalidDerivation(tuple(path), rule, reason)


def _check(d: CurryDerivation, path: list[int]):
    """Check d's premises, then d against its rule schema."""
    for i, premise in enumerate(d.premises):
        path.append(i)
        yield _check(premise, path)
        path.pop()
    match d.rule:
        case "var":
            if not isinstance(d.subject, UVar):
                _fail(path, "var", "subject is not a variable")
            if isinstance(d.type_, SetType):
                _fail(path, "var", "conclusion must be a single type")
            if d.premises:
                _fail(path, "var", "var takes no premises")
            if d.type_ not in d.context.get(d.subject.name):
                _fail(path, "var", f"{d.type_} not in context set for {d.subject.name}")
            if d.select is not None and d.select != d.type_:
                _fail(path, "var", "select does not match the conclusion type")
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
            if not arg_p.type_.elements:
                _fail(path, "elim", "argument set-type must be non-empty")
            if fun_p.type_.domain != arg_p.type_ or fun_p.type_.codomain != d.type_:
                _fail(path, "elim", "premise types do not compose")
            if fun_p.context != d.context or arg_p.context != d.context:
                _fail(path, "elim", "premise context differs")
            if fun_p.subject != d.subject.fun or arg_p.subject != d.subject.arg:
                _fail(path, "elim", "premise subjects do not split the application")
        case other:
            _fail(path, str(other), "unknown rule")


def decorate(d: CurryDerivation) -> MemTerm | SetTerm:
    """Annotated term encoding a valid derivation; checks to its judgement.

    An occurrence of a name becomes an index when an enclosing intro
    node binds the name (the innermost one); a free occurrence otherwise.
    A derivation whose root is a many node gives a set-term.
    """
    check_curry(d)
    binders: dict[str, list[int]] = {}  # name -> depths of the intro nodes binding it
    scope: list[str] = []  # the names the enclosing intro nodes bind, innermost last

    def term(node):
        match node.rule:
            case "var":
                name = node.subject.name
                if binders.get(name):
                    return BoundVar(len(scope) - 1 - binders[name][-1], node.type_)
                return Var(name, node.type_)
            case "many":
                elements = []
                for premise in node.premises:
                    elements.append((yield term(premise)))
                return SetTerm.of(elements)
            case "intro":
                name = node.subject.hint
                binders.setdefault(name, []).append(len(scope))
                scope.append(name)
                body = yield term(node.premises[0])
                binders[scope.pop()].pop()
                return Lam(name, node.type_.domain, body)
            case "elim":
                fun = yield term(node.premises[0])
                arg = yield term(node.premises[1])
                return App(fun, arg)
        raise AssertionError(f"unreachable rule {node.rule}")

    return run(term(d))


def erase_derivation(t: MemTerm, context: TypingContext) -> CurryDerivation:
    """Derivation for the erasure of a uniform wrapper-free term.

    Inverts `decorate` exactly: the derivation mirrors the term's
    structure, with one var node per occurrence and one many node per
    set-term.  Raises NotUniform on non-uniform input and the usual
    typing errors when t does not check under the context.
    """
    check(context, t)
    erase(t)  # raises NotUniform where t does not erase
    return run(_derivation(t, context, []))


def _derivation(t, context: TypingContext, env: list[str]):
    """The derivation of the uniform term t under the context; env names
    the binders above t, innermost last, in a list that each sub-call
    extends and restores."""
    match t:
        case Var() | BoundVar():
            subject = UVar(t.name if isinstance(t, Var) else env[-1 - t.index])
            return CurryDerivation("var", context, subject, t.annot, (), t.annot)
        case Lam():
            chain, body = _name_chain(t, env)
            names = [name for _, name in chain]
            contexts = [context]
            for lam, name in chain:
                contexts.append(contexts[-1].bind(name, lam.binder))
            env += names
            node = yield _derivation(body, contexts.pop(), env)
            del env[len(env) - len(names):]
            # Close the body over the whole chain at once, then open the
            # binders one by one: an open visits only the paths to the
            # occurrences it replaces.
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
            fun_node = yield _derivation(fun, context, env)
            elements = []
            for e in arg.elements:
                elements.append((yield _derivation(e, context, env)))
            arg_node = CurryDerivation("many", context, elements[0].subject,  # all alike
                                       SetType.of(e.type_ for e in elements), tuple(elements))
            return CurryDerivation("elim", context, UApp(fun_node.subject, arg_node.subject),
                                   fun_node.type_.codomain, (fun_node, arg_node))
    raise TypeError(f"not a uniform wrapper-free term: {t!r}")


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
