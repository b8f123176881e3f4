"""Type synthesis and checking, refinement, and derivation handling.

Annotated terms are syntax-directed: the type of a term is determined
bottom-up by its annotations, and type synthesis never consults a
context.  `check` adds the context audit for free occurrences.

A node's typing is therefore a function of the node alone, and it is
computed once: `_typing` folds a term bottom-up, children first, into
(type, loose occurrences, free occurrences) per node and stores the
result on each node it visits (`typing`), so asking again, for the node
or for a larger term built around it, costs only the new nodes.  An
abstraction validates the annotations of the occurrences it binds and
passes the others up.  The positional walk `_synth` runs only when the
fold rejects a term, to report the first error in position order.  The
module also hosts the derivation checker for the assignment system on
untyped terms: derivations are explicit trees supplied as JSON, the
checker validates each node against its rule schema, `decorate` turns a
valid derivation into an annotated term and `erase_derivation` inverts
it for uniform terms.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Union

from .binding import close_term, uopen
from .errors import (
    InvalidDerivation, NotTypable, NotUniform, UnboundOrWrongAnnotation,
)
from .syntax import (
    App, Arrow, BoundVar, Lam, MemTerm, Position, SetTerm, SetType,
    Type, UApp, UBoundVar, ULam, UntypedTerm, UVar, Var, Wrap,
    _name_chain, children, free_occurrences, parse_type, parse_untyped,
    pretty,
)

__all__ = [
    "TypingContext", "Judgement", "CurryDerivation",
    "synthesize_type", "set_type_of", "check", "minimal_context",
    "refines", "is_uniform", "erase",
    "check_curry", "decorate", "erase_derivation", "canonical_derivation",
    "derivation_from_json", "derivation_to_json",
]


@dataclass(frozen=True)
class TypingContext:
    """Finite map from variable names to non-empty set-types."""

    entries: tuple[tuple[str, SetType], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("context entries must be sorted and unique")
        if any(not s.elements for _, s in self.entries):
            raise ValueError("context entries must be non-empty set-types")

    @staticmethod
    def of(items: Mapping[str, SetType] | Iterable[tuple[str, SetType]]) -> "TypingContext":
        pairs = items.items() if isinstance(items, Mapping) else items
        merged: dict[str, SetType] = {}
        for name, s in pairs:
            merged[name] = merged[name].union(s) if name in merged else s
        return TypingContext(tuple(sorted(
            (n, s) for n, s in merged.items() if s.elements
        )))

    def get(self, name: str) -> SetType:
        for n, s in self.entries:
            if n == name:
                return s
        return SetType(())

    def union(self, other: "TypingContext") -> "TypingContext":
        return TypingContext.of(self.entries + other.entries)

    def bind(self, name: str, s: SetType) -> "TypingContext":
        """Context update: any previous binding of `name` is replaced."""
        kept = tuple(e for e in self.entries if e[0] != name)
        return TypingContext.of(kept + ((name, s),))

    def without(self, name: str) -> "TypingContext":
        return TypingContext(tuple(e for e in self.entries if e[0] != name))

    def subset_of(self, other: "TypingContext") -> bool:
        return all(s.subset_of(other.get(n)) for n, s in self.entries)

    def __str__(self) -> str:
        return ", ".join(f"{n}:{s}" for n, s in self.entries)


@dataclass(frozen=True)
class Judgement:
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
    return _typed(t, True)[0]


def subterm_type(t: MemTerm | SetTerm) -> Type | SetType:
    """Type of a possibly open subterm of a well-formed whole term.

    Occurrences bound outside the subterm carry their type as their
    annotation, so the annotation is trusted for them; everything else
    is validated as in synthesize_type.
    """
    return _typed(t, False)[0]


def set_type_of(s: SetTerm) -> SetType:
    result = synthesize_type(s)
    assert isinstance(result, SetType)
    return result


# The typing of a node that does not synthesize.
_ILL_FORMED = "ill-formed"


def _typed(t, strict: bool) -> tuple:
    """t's typing: (type, loose occurrences, free occurrences).

    Raises the positional walk's error where the fold rejects t, or,
    when `strict`, where an index of t points outside it.
    """
    typing = _typing(t)
    if typing is not _ILL_FORMED and not (strict and typing[1]):
        return typing
    _synth(t, (), (), strict)
    raise AssertionError("the typing fold rejects a term that synthesizes")


def _typing(t):
    """The stored typing of t, after folding every node below t that
    has none yet, children first, with an explicit stack."""
    if t.typing is not None:
        return t.typing
    stack = [(t, None)]
    while stack:
        node, kids = stack.pop()
        if node.typing is not None:
            continue
        if kids is None:
            kids = children(node)
            stack.append((node, kids))
            stack.extend((k, None) for k in kids if k.typing is None)
        else:
            object.__setattr__(node, "typing", _node_typing(node))
    return t.typing


def _node_typing(t):
    """The typing of t from its children's: (type, loose, free), where
    loose is a sorted tuple of (index, frozenset of annotations) for the
    indices pointing outside t, and free a frozenset of (name,
    annotation) pairs; or _ILL_FORMED."""
    match t:
        case Var(name, annot):
            return annot, (), frozenset([(name, annot)])
        case BoundVar(index, annot):
            return annot, ((index, frozenset([annot])),), frozenset()
        case Lam(_, binder, body):
            if body.typing is _ILL_FORMED:
                return _ILL_FORMED
            body_type, loose, free = body.typing
            if loose and loose[0][0] == 0:
                if not all(a in binder.elements for a in loose[0][1]):
                    return _ILL_FORMED
                loose = loose[1:]
            return Arrow(binder, body_type), tuple((i - 1, a) for i, a in loose), free
        case App(fun, arg):
            arg_typing = _typing_of_set(arg)
            if fun.typing is _ILL_FORMED or arg_typing is _ILL_FORMED:
                return _ILL_FORMED
            fun_type = fun.typing[0]
            if not isinstance(fun_type, Arrow) or arg_typing[0] != fun_type.domain:
                return _ILL_FORMED
            return fun_type.codomain, *_merge([fun.typing, arg_typing])
        case Wrap(head, payload):
            payload_typing = _typing_of_set(payload)
            if head.typing is _ILL_FORMED or payload_typing is _ILL_FORMED:
                return _ILL_FORMED
            return head.typing[0], *_merge([head.typing, payload_typing])
        case SetTerm(elements):
            typings = [e.typing for e in elements]
            if _ILL_FORMED in typings:
                return _ILL_FORMED
            result = SetType.of(typing[0] for typing in typings)
            if len(result.elements) != len(typings):
                return _ILL_FORMED  # set-term elements with equal types
            return result, *_merge(typings)
    raise TypeError(f"not a term: {t!r}")


def _typing_of_set(s: SetTerm):
    """The typing of an argument or payload set, whose elements (the
    children of its application or wrapper) are already typed."""
    if s.typing is None:
        object.__setattr__(s, "typing", _node_typing(s))
    return s.typing


def _merge(typings: list) -> tuple:
    """The loose and free occurrences of the children together.  A
    child's own collection is reused when the others add nothing."""
    loose_parts = [typing[1] for typing in typings if typing[1]]
    if len(loose_parts) <= 1:
        loose = loose_parts[0] if loose_parts else ()
    else:
        by_index: dict[int, frozenset] = {}
        for part in loose_parts:
            for i, annots in part:
                by_index[i] = by_index[i] | annots if i in by_index else annots
        loose = tuple(sorted(by_index.items()))
    free_parts = [typing[2] for typing in typings if typing[2]]
    if len(free_parts) <= 1:
        free = free_parts[0] if free_parts else frozenset()
    else:
        largest = max(free_parts, key=len)
        free = largest.union(*free_parts)
        if len(free) == len(largest):
            free = largest
    return loose, free


def _synth(t, binders: tuple[SetType, ...], pos: Position, strict: bool):
    """The positional walk: raises the first error of t in position
    order, with its position.  Typings come from the fold; this walk
    runs only to report why the fold rejected a term."""
    match t:
        case Var(_, annot):
            return annot
        case BoundVar(index, annot):
            if index >= len(binders):
                if strict:
                    raise NotTypable(pos, f"dangling bound variable {index}")
            elif annot not in binders[-1 - index]:
                raise NotTypable(pos, "occurrence annotation not in binder set")
            return annot
        case Lam():
            chain = []  # a binder chain is a loop, so its depth costs no stack
            while isinstance(t, Lam):
                chain.append(t.binder)
                t = t.body
            result = _synth(t, binders + tuple(chain), pos + (0,) * len(chain), strict)
            for binder in reversed(chain):
                result = Arrow(binder, result)
            return result
        case App(fun, arg):
            fun_type = _synth(fun, binders, pos + (0,), strict)
            if not isinstance(fun_type, Arrow):
                raise NotTypable(pos, f"applied term has non-arrow type {fun_type}")
            arg_type = _synth_set(arg, binders, pos, 1, strict)
            if arg_type != fun_type.domain:
                raise NotTypable(
                    pos, f"argument set-type {arg_type} != domain {fun_type.domain}")
            return fun_type.codomain
        case Wrap(head, payload):
            _synth_set(payload, binders, pos, 1, strict)
            return _synth(head, binders, pos + (0,), strict)
        case SetTerm():
            return _synth_set(t, binders, pos, 0, strict)
    raise TypeError(f"not a term: {t!r}")


def _synth_set(s: SetTerm, binders, pos: Position, offset: int, strict: bool) -> SetType:
    types = [_synth(e, binders, pos + (offset + i,), strict)
             for i, e in enumerate(s.elements)]
    if len(set(types)) != len(types):
        raise NotTypable(pos, "set-term elements with equal types")
    return SetType.of(types)


def check(context: TypingContext, t: MemTerm | SetTerm) -> Type | SetType:
    """Synthesize and audit every free occurrence against the context.

    The audit reads the distinct free occurrences off the typing; where
    one fails, the occurrences are walked in term order, so that the
    first failing one is reported.
    """
    result, _, free = _typed(t, True)
    if all(annot in context.get(name) for name, annot in free):
        return result
    for name, annot in free_occurrences(t):
        if annot not in context.get(name):
            raise UnboundOrWrongAnnotation(name, annot)
    raise AssertionError("the free occurrences differ from the typing's")


def minimal_context(t: MemTerm | SetTerm) -> TypingContext:
    """Least context under which t checks (pointwise subset of any other)."""
    groups: dict[str, list[Type]] = {}
    for name, annot in _typed(t, True)[2]:
        groups.setdefault(name, []).append(annot)
    return TypingContext.of((n, SetType.of(ts)) for n, ts in groups.items())


# ---------------------------------------------------------------------------
# Refinement, uniformity, erasure


def refines(t: MemTerm | SetTerm, m: UntypedTerm) -> bool:
    """Whether t erases, elementwise through set-terms, to m."""
    match t, m:
        case (Var(x, _), UVar(y)):
            return x == y
        case (BoundVar(i, _), UBoundVar(j)):
            return i == j
        case (Lam(_, _, body), ULam(_, ubody)):
            return refines(body, ubody)
        case (App(fun, arg), UApp(ufun, uarg)):
            return refines(fun, ufun) and refines(arg, uarg)
        case (SetTerm(elements), _):
            return len(elements) > 0 and all(refines(e, m) for e in elements)
        case _:
            return False


def erase(t: MemTerm | SetTerm) -> UntypedTerm:
    """The unique untyped term t refines; NotUniform where that fails."""
    return _erase(t, ())


def _erase(t, pos: Position) -> UntypedTerm:
    match t:
        case Var(name, _):
            return UVar(name)
        case BoundVar(index, _):
            return UBoundVar(index)
        case Lam():
            hints = []  # a binder chain is a loop, so its depth costs no stack
            while isinstance(t, Lam):
                hints.append(t.hint)
                t = t.body
            erased = _erase(t, pos + (0,) * len(hints))
            for hint in reversed(hints):
                erased = ULam(hint, erased)
            return erased
        case App(fun, arg):
            return UApp(_erase(fun, pos + (0,)), _erase_set(arg, pos, 1))
        case Wrap():
            raise NotUniform(pos)
        case SetTerm():
            return _erase_set(t, pos, 0)
    raise TypeError(f"not a term: {t!r}")


def _erase_set(s: SetTerm, pos: Position, offset: int) -> UntypedTerm:
    if not s.elements:
        raise NotUniform(pos)
    erased = [_erase(e, pos + (offset + i,)) for i, e in enumerate(s.elements)]
    if any(e != erased[0] for e in erased[1:]):
        raise NotUniform(pos)
    return erased[0]


def is_uniform(t: MemTerm | SetTerm) -> bool:
    try:
        erase(t)
    except NotUniform:
        return False
    return True


# ---------------------------------------------------------------------------
# Derivations for the assignment system on untyped terms
#
# JSON schema (docs/formats.md): {"rule": "var"|"many"|"intro"|"elim",
# "ctx": {x: [type strings]}, "term": untyped term string, "type": type
# string ("many": list of type strings), "premises": [...], "select":
# type string (var only, optional, must equal "type")}.


@dataclass(frozen=True)
class CurryDerivation:
    rule: str
    context: TypingContext
    subject: UntypedTerm
    type_: Union[Type, SetType]
    premises: tuple["CurryDerivation", ...] = ()
    select: Type | None = field(default=None)


def _fold_tree(root, enter, leave):
    """Depth-first fold of a derivation-shaped tree, with an explicit
    stack so that its depth costs no interpreter stack.

    enter(node, path) runs before the node's premises and returns them;
    leave(node, path, values) runs after them, with the values leave
    returned for the premises in order, and returns the node's value.
    A premise's path is its parent's extended by its index.
    """
    values: list = []
    stack = [(root, (), None)]
    while stack:
        node, path, premises = stack.pop()
        if premises is None:
            premises = enter(node, path)
            stack.append((node, path, premises))
            stack.extend((p, path + (i,), None) for i, p in reversed(list(enumerate(premises))))
        else:
            start = len(values) - len(premises)
            value = leave(node, path, values[start:])
            del values[start:]
            values.append(value)
    return values[0]


_RULES = ("var", "many", "intro", "elim")


def _json_path(path: Position) -> str:
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
    fields: dict[Position, tuple] = {}

    def bad(path: Position, where: str, expected: str, value):
        raise InvalidDerivation(path, "derivation",
                                f"expected {expected}, found {_json_kind(value)}", where)

    def type_of(text: str) -> Type:
        if text not in parsed:
            parsed[text] = parse_type(text)
        return parsed[text]

    def types_of(value, path: Position, where: str) -> SetType:
        if not isinstance(value, list):
            bad(path, where, "a list of type strings", value)
        for i, text in enumerate(value):
            if not isinstance(text, str):
                bad(path, f"{where}[{i}]", "a type string", text)
        if tuple(value) not in parsed:
            parsed[tuple(value)] = SetType.of(map(type_of, value))
        return parsed[tuple(value)]

    def enter(d, path):
        at = _json_path(path)
        if not isinstance(d, dict):
            bad(path, at, "an object", d)
        rule = d.get("rule")
        if rule not in _RULES:
            raise InvalidDerivation(path, "derivation", "expected one of "
                                    + ", ".join(f'"{r}"' for r in _RULES), f"{at}.rule")
        ctx = d.get("ctx", {})
        if not isinstance(ctx, dict):
            bad(path, f"{at}.ctx", "an object", ctx)
        context = TypingContext.of(
            {x: types_of(value, path, f"{at}.ctx.{x}") for x, value in ctx.items()})
        term = d.get("term")
        if not isinstance(term, str):
            bad(path, f"{at}.term", "an untyped term string", term)
        subject = parse_untyped(term)
        raw_type = d.get("type")
        if isinstance(raw_type, list):
            type_: Type | SetType = types_of(raw_type, path, f"{at}.type")
        elif isinstance(raw_type, str):
            type_ = type_of(raw_type)
        else:
            bad(path, f"{at}.type", "a type string or a list of them", raw_type)
        premises = d.get("premises", [])
        if not isinstance(premises, list):
            bad(path, f"{at}.premises", "a list of derivation nodes", premises)
        fields[path] = rule, context, subject, type_
        return premises

    def leave(d, path, premises):
        select = None
        if "select" in d:
            if not isinstance(d["select"], str):
                bad(path, f"{_json_path(path)}.select", "a type string", d["select"])
            select = type_of(d["select"])
        return CurryDerivation(*fields.pop(path), tuple(premises), select)

    return _fold_tree(data, enter, leave)


def derivation_to_json(d: CurryDerivation) -> dict:
    def leave(node, path, premises):
        out: dict = {
            "rule": node.rule,
            "ctx": {n: [pretty(e) for e in s.elements] for n, s in node.context.entries},
            "term": pretty(node.subject),
            "type": ([pretty(e) for e in node.type_.elements]
                     if isinstance(node.type_, SetType) else pretty(node.type_)),
        }
        if premises:
            out["premises"] = premises
        if node.select is not None:
            out["select"] = pretty(node.select)
        return out
    return _fold_tree(d, _premises, leave)


def _premises(d: CurryDerivation, path: Position) -> tuple:
    return d.premises


def check_curry(d: CurryDerivation) -> Judgement:
    """Validate every node against its rule schema; return the root judgement."""
    _fold_tree(d, _premises, _check_node)
    return Judgement(d.context, d.subject, d.type_)


def _fail(path, rule, reason):
    raise InvalidDerivation(path, rule, reason)


def _check_node(d: CurryDerivation, path: Position, _) -> None:
    """Check one node against its rule schema, after its premises."""
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
                    _fail(path + (i,), p.rule, "premise context differs")
                if p.subject != d.subject:
                    _fail(path + (i,), p.rule, "premise subject differs")
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


def decorate(d: CurryDerivation) -> MemTerm:
    """Annotated term encoding a valid derivation; checks to its judgement.

    An occurrence of a name becomes an index when an enclosing intro
    node binds the name (the innermost one); a free occurrence otherwise.
    """
    check_curry(d)
    binders: dict[str, list[int]] = {}  # name -> depths of the intro nodes binding it
    depth = 0

    def enter(node, path):
        nonlocal depth
        if node.rule == "intro":
            binders.setdefault(node.subject.hint, []).append(depth)
            depth += 1
        return node.premises

    def leave(node, path, premises):
        nonlocal depth
        match node.rule:
            case "var":
                name = node.subject.name
                if binders.get(name):
                    return BoundVar(depth - 1 - binders[name][-1], node.type_)
                return Var(name, node.type_)
            case "many":
                return SetTerm.of(premises)
            case "intro":
                depth -= 1
                binders[node.subject.hint].pop()
                return Lam(node.subject.hint, node.type_.domain, premises[0])
            case "elim":
                return App(*premises)
        raise AssertionError(f"unreachable rule {node.rule}")

    t = _fold_tree(d, enter, leave)
    assert isinstance(t, (Var, BoundVar, Lam, App))
    return t


def erase_derivation(t: MemTerm, context: TypingContext) -> CurryDerivation:
    """Derivation for the erasure of a uniform wrapper-free term.

    Inverts `decorate` exactly: the derivation mirrors the term's
    structure, with one var node per occurrence and one many node per
    set-term.  Raises NotUniform on non-uniform input and the usual
    typing errors when t does not check under the context.
    """
    check(context, t)
    node, _ = _erase_node(t, context, [], ())
    return node


def _erase_node(t, context: TypingContext, env: list[str], pos: Position):
    match t:
        case Var(name, annot):
            return CurryDerivation("var", context, UVar(name), annot, (), annot), UVar(name)
        case BoundVar(index, annot):
            name = env[-1 - index]
            return CurryDerivation("var", context, UVar(name), annot, (), annot), UVar(name)
        case Lam():
            # a binder chain is a loop, so its depth costs no stack
            chain, inner_env, body = _name_chain(t, env)
            contexts = [context]
            for lam, name in chain:
                contexts.append(contexts[-1].bind(name, lam.binder))
            node, subject = _erase_node(body, contexts.pop(), inner_env, pos + (0,) * len(chain))
            # Close the body over the whole chain at once, then open the
            # binders one by one: an open visits only the paths to the
            # occurrences it replaces.
            names = [name for _, name in chain]
            subject = close_term(subject, *names)
            for name in reversed(names):
                subject = ULam(name, subject)
            subjects = [subject]
            for name in names[:-1]:
                subjects.append(uopen(subjects[-1].body, UVar(name)))
            for (lam, _), outer, subject in zip(reversed(chain), reversed(contexts),
                                                reversed(subjects)):
                assert not isinstance(node.type_, SetType)
                node = CurryDerivation(
                    "intro", outer, subject, Arrow(lam.binder, node.type_), (node,))
            return node, subject
        case App(fun, arg):
            fun_p, fun_subject = _erase_node(fun, context, env, pos + (0,))
            arg_p, arg_subject = _erase_set_node(arg, context, env, pos)
            assert isinstance(fun_p.type_, Arrow)
            subject = UApp(fun_subject, arg_subject)
            node = CurryDerivation(
                "elim", context, subject, fun_p.type_.codomain, (fun_p, arg_p))
            return node, subject
        case Wrap():
            raise NotUniform(pos)
    raise TypeError(f"not a term: {t!r}")


def _erase_set_node(s: SetTerm, context: TypingContext, env: list[str], pos: Position):
    nodes = []
    subjects = []
    for i, e in enumerate(s.elements):
        node, subject = _erase_node(e, context, env, pos + (1 + i,))
        nodes.append(node)
        subjects.append(subject)
    if any(sub != subjects[0] for sub in subjects[1:]):
        raise NotUniform(pos)
    types = [n.type_ for n in nodes]
    node = CurryDerivation(
        "many", context, subjects[0], SetType.of(types), tuple(nodes))
    return node, subjects[0]


def canonical_derivation(d: CurryDerivation) -> CurryDerivation:
    """Sort many premises by type and normalize select fields."""
    def leave(node, path, premises):
        if node.rule == "many":
            premises = sorted(premises, key=lambda p: p.type_.key)
        select = (node.type_ if node.rule == "var" and not isinstance(node.type_, SetType)
                  else None)
        return replace(node, premises=tuple(premises), select=select)
    return _fold_tree(d, _premises, leave)
