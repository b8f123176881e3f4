"""Type synthesis and checking, refinement and erasure.

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
compared term as its erasure.  Both folds keep explicit stacks, so
they work at any depth.  The derivations of the assignment system on
untyped terms, which these terms stand in for, are in
`setlam.derivation`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import NotTypable, NotUniform, UnboundOrWrongAnnotation
from .syntax import (
    App, Arrow, BoundVar, Lam, MemTerm, SetTerm, SetType,
    Type, UApp, UBoundVar, ULam, UntypedTerm, UVar, Var, Wrap,
    _Node, _subterm_paths, children, free_occurrences,
)

__all__ = [
    "TypingContext", "Judgement",
    "synthesize_type", "set_type_of", "check", "minimal_context",
    "refines", "is_uniform", "erase",
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
