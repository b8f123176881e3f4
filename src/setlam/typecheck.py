"""Type synthesis and checking, refinement, and derivation handling.

Annotated terms are syntax-directed: the type of a term is determined
bottom-up by its annotations, and type synthesis never consults a
context.  `check` adds the context audit for free occurrences.  The
module also hosts the derivation checker for the assignment system on
untyped terms: derivations are explicit trees supplied as JSON, the
checker validates each node against its rule schema, `decorate` turns a
valid derivation into an annotated term and `erase_derivation` inverts
it for uniform terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Union

from .binding import close_term, uopen
from .errors import (
    InvalidDerivation, NotTypable, NotUniform, UnboundOrWrongAnnotation,
)
from .syntax import (
    App, Arrow, BoundVar, Lam, MemTerm, Position, SetTerm, SetType,
    Type, UApp, UBoundVar, ULam, UntypedTerm, UVar, Var, Wrap,
    _pick_name, free_names, free_occurrences, parse_type, parse_untyped,
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
    return _synth(t, (), (), True)


def subterm_type(t: MemTerm | SetTerm) -> Type | SetType:
    """Type of a possibly open subterm of a well-formed whole term.

    Occurrences bound outside the subterm carry their type as their
    annotation, so the annotation is trusted for them; everything else
    is validated as in synthesize_type.
    """
    return _synth(t, (), (), False)


def set_type_of(s: SetTerm) -> SetType:
    result = _synth(s, (), (), True)
    assert isinstance(result, SetType)
    return result


def _synth(t, binders: tuple[SetType, ...], pos: Position, strict: bool):
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
    """Synthesize and audit every free occurrence against the context."""
    result = synthesize_type(t)
    for name, annot in free_occurrences(t):
        if annot not in context.get(name):
            raise UnboundOrWrongAnnotation(name, annot)
    return result


def minimal_context(t: MemTerm | SetTerm) -> TypingContext:
    """Least context under which t checks (pointwise subset of any other)."""
    synthesize_type(t)
    groups: dict[str, list[Type]] = {}
    for name, annot in free_occurrences(t):
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


def derivation_from_json(data: str | dict) -> CurryDerivation:
    if isinstance(data, str):
        data = json.loads(data)
    return _derivation_from_dict(data)


def _derivation_from_dict(d: dict) -> CurryDerivation:
    rule = d["rule"]
    context = TypingContext.of(
        {x: SetType.of(parse_type(s) for s in types) for x, types in d.get("ctx", {}).items()}
    )
    subject = parse_untyped(d["term"])
    raw_type = d["type"]
    if isinstance(raw_type, list):
        type_: Type | SetType = SetType.of(parse_type(s) for s in raw_type)
    else:
        type_ = parse_type(raw_type)
    premises = tuple(_derivation_from_dict(p) for p in d.get("premises", []))
    select = parse_type(d["select"]) if "select" in d else None
    return CurryDerivation(rule, context, subject, type_, premises, select)


def derivation_to_json(d: CurryDerivation) -> dict:
    out: dict = {
        "rule": d.rule,
        "ctx": {n: [pretty(e) for e in s.elements] for n, s in d.context.entries},
        "term": pretty(d.subject),
        "type": ([pretty(e) for e in d.type_.elements]
                 if isinstance(d.type_, SetType) else pretty(d.type_)),
    }
    if d.premises:
        out["premises"] = [derivation_to_json(p) for p in d.premises]
    if d.select is not None:
        out["select"] = pretty(d.select)
    return out


def check_curry(d: CurryDerivation) -> Judgement:
    """Validate every node against its rule schema; return the root judgement."""
    _check_node(d, ())
    return Judgement(d.context, d.subject, d.type_)


def _fail(path, rule, reason):
    raise InvalidDerivation(path, rule, reason)


def _check_node(d: CurryDerivation, path: Position) -> None:
    for i, p in enumerate(d.premises):
        _check_node(p, path + (i,))
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
    """Annotated term encoding a valid derivation; checks to its judgement."""
    check_curry(d)
    t = _decorate(d)
    assert isinstance(t, (Var, BoundVar, Lam, App))
    return t


def _decorate(d: CurryDerivation) -> MemTerm | SetTerm:
    match d.rule:
        case "var":
            assert isinstance(d.subject, UVar) and not isinstance(d.type_, SetType)
            return Var(d.subject.name, d.type_)
        case "many":
            return SetTerm.of(_decorate(p) for p in d.premises)
        case "intro":
            assert isinstance(d.subject, ULam) and isinstance(d.type_, Arrow)
            body = _decorate(d.premises[0])
            name = d.subject.hint
            return Lam(name, d.type_.domain, close_term(body, name))
        case "elim":
            fun = _decorate(d.premises[0])
            arg = _decorate(d.premises[1])
            assert isinstance(arg, SetTerm)
            return App(fun, arg)
    raise AssertionError(f"unreachable rule {d.rule}")


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
        case Lam(hint, binder, body):
            name = _pick_name(hint, free_names(body) | set(env), {})
            premise, body_subject = _erase_node(
                body, context.bind(name, binder), env + [name], pos + (0,))
            assert not isinstance(premise.type_, SetType)
            subject = ULam(name, close_term(body_subject, name))
            type_ = Arrow(binder, premise.type_)
            return CurryDerivation("intro", context, subject, type_, (premise,)), subject
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
    premises = tuple(canonical_derivation(p) for p in d.premises)
    if d.rule == "many":
        premises = tuple(sorted(premises, key=lambda p: p.type_.key))
    select = d.type_ if d.rule == "var" and not isinstance(d.type_, SetType) else None
    return replace(d, premises=premises, select=select)
