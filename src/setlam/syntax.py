"""ASTs for types, untyped lambda terms, and set-annotated terms.

Types are strict: an arrow's domain is a finite non-empty *set* of types
(idempotent intersection as a duplicate-free set), its codomain a single
type.  Annotated terms carry a type on every variable occurrence and a
set-type on every binder; application arguments and wrapper payloads are
*set-terms*.  A wrapper node ``t [s1, ..., sn]`` records a set-term as
inert memory next to an otherwise ordinary term.

Binding is nameless: bound variables are de Bruijn indices, free
variables are names.  Every node stores a structural key and a hash,
each computed once at construction in O(arity): the key from its
children's keys, the hash by the same recipe from their stored hashes.
``==`` and the global structural order come from the key, and ``==``
compares keys only when the hashes agree, so hashing a node and telling
two nodes apart walk neither.  A binder's printing hint is in neither,
so ``==`` is exactly alpha-equivalence.  Term nodes also store, in
O(arity) from their children, `loose` (the largest de Bruijn index
pointing outside the node, -1 when locally closed) and `flags` (which
kinds of redex, and whether a wrapper and a free variable, occur in the
subtree); `typecheck` caches a node's typing and its erasure on it the
first time either is asked for, the printer a type's or a term's text
the first time it prints it, and `measure` a term's full simplification
(`simplifications`) the first time it simplifies it.  None of these is
part of the key, so they change neither identity, nor order, nor
printing.  Terms printed together (`pretty_all`) also keep, for
that call only, each shared subterm's text per naming state.

Every walk works at any depth: `subterms`, `nodes`, the printer, the
repr, `type_height`, `_compare` (the one walk that compares and orders
nodes whose keys are too deep for the interpreter) and the parser (in
`parsing`, with the grammar) keep an explicit stack, and a walker
written as a plain structural recursion runs on the trampoline `run`,
which keeps its pending calls in a list, not on the interpreter stack.
The functions a walk calls at every node (`children`, `rebuild`,
`type_height`, `pretty`) find the node's case by its exact class, in a
table or with an `is` test, not by trying class patterns one by one.
All sets are kept canonical (sorted by key, duplicates removed); the
smart constructors ``SetType.of`` and ``SetTerm.of`` normalize (a
single element needs no sort), the plain constructors insist on
already canonical input unless `of` tells them it has sorted it.

Nodes hold no reference cycle, so the cyclic collector never frees a
term, yet each of its older-generation passes walks every live one.
`paused_collector` turns it off for the length of a call: it wraps
`oracle.explore` (so `longest_chain` and `is_sn` too) and the graph
exports, which hold thousands of terms at once, and `cli.main`, so
every command runs paused.  That is safe because no public call leaves
a cycle (`tests/test_garbage.py` pins it), so reference counting frees
all a paused call made.  `gc.disable` is process-wide: while a paused
call runs, no thread collects.  Calls on small terms (parsing,
printing, typing, `normalize`, `W`, `infer_sn`) are not paused: there
the wrapper costs more than the collections it would skip.
"""

from __future__ import annotations

import functools
import gc
import operator
from typing import Generator, Iterable, Iterator, Union

from .errors import InvalidPosition

__all__ = [
    "Type", "Base", "Arrow", "SetType",
    "MemTerm", "Var", "BoundVar", "Lam", "App", "Wrap", "SetTerm",
    "UntypedTerm", "UVar", "UBoundVar", "ULam", "UApp",
    "WrapperList", "Position",
    "BETA_REDEX", "I_REDEX", "IM_REDEX", "WRAPPER", "FREE_VAR",
    "parse", "pretty", "pretty_all",
    "parse_type", "parse_untyped", "parse_term", "parse_set_type",
    "run", "paused_collector", "children", "rebuild", "subterms", "nodes",
    "subterm_at", "replace_at", "positions",
    "free_occurrences", "free_names", "is_wrapper_free", "type_height",
    "apply_wrappers", "peel_wrappers", "term_size",
]

Position = tuple[int, ...]


class _Node:
    """Every AST class: identity, hashing, immutability and printing in
    one place.

    `__init__` checks a node's fields and stores them, with what is
    derived from them, in its dict one key at a time, so that the dicts
    of a class share one key table (`dict.update` from keywords would
    copy a table into every node); assigning or deleting an attribute
    raises AttributeError.  `__match_args__` names the fields, for
    positional patterns and the repr.  Each node stores `key`, its
    structural sort key, computed once from the keys its children
    already store, and `hash`, combined by the same recipe from the
    hashes they already store, so `hash()` walks nothing.  Two nodes
    are equal when they have the same class and equal keys: `__eq__`
    tests identity, then the class, then the stored hashes, and compares
    keys only when those agree, so it tells two unequal terms apart in
    O(1) at any depth, but for a hash collision.  Term nodes also store
    `loose` (their largest loose index, -1 when locally closed) and
    `flags` (the redexes, wrappers and free variables below them);
    `typing` and `erasure` stay None until `typecheck` stores them in
    the node's dict, and `text` until the printer stores the node's
    printed text there: on a type or set-type the first time it prints
    it, on a term the first time `pretty` is called on that term itself
    (not on a term above it).  The text stays with the object, so two
    alpha-equal terms with other binder hints keep their own.  Likewise
    `simplifications` stays None until `measure` stores there the stages
    of the term's full simplification, on the term `W`, `simp_full` or
    `measure_report` is called on (not on its subterms).
    Nodes are ordered by `<` as their keys are: so other modules sort
    them, and a set checks its order.  `==` and `<` compare the stored
    keys; where those are too deep for the interpreter, both fall back to
    `_compare`, which walks the nodes pair by pair in the keys' order.
    `typecheck.TypingContext` is a node keyed by its entries.
    """

    typing = None
    erasure = None
    text = None
    simplifications = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._keyed = tuple(f for f in cls.__match_args__ if f != "hint")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        # An explicit stack of what is left to print: a string is emitted, a node or tuple expanded.
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if type(x) is str:
                out.append(x)
                continue
            tupled = type(x) is tuple
            fields = ([("", item) for item in x] if tupled else
                      [(f"{name}=", getattr(x, name)) for name in x.__match_args__])
            pieces = ["(" if tupled else f"{type(x).__name__}("]
            for j, (label, value) in enumerate(fields):
                pieces += [", " * (j > 0) + label,
                           value if isinstance(value, (_Node, tuple)) else repr(value)]
            stack += [",)" if tupled and len(x) == 1 else ")", *reversed(pieces)]
        return "".join(out)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self) or other.hash != self.hash:
            return False
        try:
            return self.key == other.key
        except RecursionError:  # keys nested deeper than the interpreter compares
            return _compare(self, other) == 0

    def __lt__(self, other):
        try:
            return self.key < other.key
        except RecursionError:  # keys nested deeper than the interpreter compares
            return _compare(self, other) < 0

    def __hash__(self):
        return self.hash

    def __reduce__(self):
        # Unpickled through the constructor, so that the hash is computed
        # again: a string's hash differs from one process to the next.
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self):
        return pretty(self)


def _compare(a: _Node, b: _Node) -> int:
    """-1, 0 or 1 as a sorts before, is equal to or sorts after b in the
    interpreter's order on their keys, at any depth.

    A walk over pairs of nodes, of their keyed fields (every field but a
    binder's hint) and of the items of the fields that are tuples, on two
    explicit stacks that pair up by position; an identical pair is
    skipped.  Nodes of two classes are ordered by their keys' leading
    tags, which differ within one calculus; nodes of one class by their
    keyed fields in order; tuples (a set's elements among them) by their
    items in order, then by their lengths, so a proper prefix sorts
    first."""
    xs, ys = [a], [b]
    while xs:
        x, y = xs.pop(), ys.pop()
        if x is y:
            continue
        kind = type(x)
        if kind is tuple:
            n = len(y)
            if len(x) != n:  # the lengths decide once the common prefix is equal
                xs.append(len(x))
                ys.append(n)
                n = min(len(x), n)
                x, y = x[:n], y[:n]
            xs.extend(reversed(x))
            ys.extend(reversed(y))
        elif isinstance(x, _Node):
            if type(y) is not kind:
                return -1 if x.key[0] < y.key[0] else 1
            for field in reversed(kind._keyed):
                xs.append(getattr(x, field))
                ys.append(getattr(y, field))
        elif x != y:
            return -1 if x < y else 1
    return 0


# Flag bits of a term node: the redexes a step of each calculus may
# contract (as `reduction._redex` recognizes them), the wrappers and the
# free variable occurrences in the subtree rooted at the node.
BETA_REDEX, I_REDEX, IM_REDEX, WRAPPER, FREE_VAR = 1, 2, 4, 8, 16
_CONTAINS = BETA_REDEX | I_REDEX | IM_REDEX | WRAPPER | FREE_VAR
# The node itself is an abstraction under zero or more wrappers, so an
# application of it is a memory redex.
_W_ABSTRACTION = 32


def _contained(*parts: _Node) -> int:
    flags = 0
    for part in parts:
        flags |= part.flags
    return flags & _CONTAINS


_key = operator.attrgetter("key")
_hash = operator.attrgetter("hash")


# ---------------------------------------------------------------------------
# Types
#
# Each constructor stores `key` and `hash` by one recipe: the key holds
# the children's keys where the hash input holds their stored hashes.


class Base(_Node):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        node = vars(self)
        key = (0, name)
        node["name"], node["key"], node["hash"] = name, key, hash(key)


class Arrow(_Node):
    __match_args__ = ("domain", "codomain")

    def __init__(self, domain: SetType, codomain: Type):
        if not domain.elements:
            raise ValueError("arrow domain must be a non-empty set-type")
        node = vars(self)
        node["domain"], node["codomain"], node["key"], node["hash"] = (
            domain, codomain, (1, domain.key, codomain.key),
            hash((1, domain.hash, codomain.hash)))


Type = Union[Base, Arrow]


class _Set(_Node):
    """Canonical duplicate-free sequence, strictly sorted by key, as `<`
    checks unless `of` sorted it; the key is the tuple of element keys."""

    __match_args__ = ("elements",)

    def __init__(self, elements: tuple, ordered: bool = False):
        if not ordered and len(elements) > 1 and not all(map(operator.lt, elements, elements[1:])):
            raise ValueError(f"{self._what} elements must be strictly sorted")
        node = vars(self)
        node["elements"], node["key"], node["hash"] = (
            elements, tuple(map(_key, elements)), hash(tuple(map(_hash, elements))))

    @classmethod
    def of(cls, elements: Iterable):
        elements = tuple(elements)
        if len(elements) == 1:
            return cls(elements)
        try:
            ordered = sorted(elements, key=_key)
        except RecursionError:  # keys nested deeper than the interpreter compares
            ordered = sorted(elements)  # by `_Node.__lt__`, which walks them with `_compare`
        unique = ordered[:1]
        for e in ordered[1:]:
            # unequal stored hashes tell most pairs apart without a call to `__eq__`
            if e.hash != unique[-1].hash or e != unique[-1]:
                unique.append(e)
        return cls(tuple(unique), True)  # a check would walk a too-deep deciding pair again

    def __contains__(self, item) -> bool:
        return item in self.elements

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


class SetType(_Set):
    """Canonical duplicate-free sequence of types."""

    elements: tuple[Type, ...]
    _what = "set-type"

    def union(self, other: SetType) -> SetType:
        return SetType.of(self.elements + other.elements)

    def subset_of(self, other: SetType) -> bool:
        return all(e in other.elements for e in self.elements)


# ---------------------------------------------------------------------------
# Annotated terms


class Var(_Node):
    """Free variable occurrence, annotated with its type."""

    __match_args__ = ("name", "annot")

    def __init__(self, name: str, annot: Type):
        node = vars(self)
        (node["name"], node["annot"], node["key"], node["hash"], node["loose"],
         node["flags"]) = (name, annot, (1, name, annot.key), hash((1, name, annot.hash)),
                           -1, FREE_VAR)


class BoundVar(_Node):
    """Bound occurrence as the de Bruijn distance to its binder."""

    __match_args__ = ("index", "annot")

    def __init__(self, index: int, annot: Type):
        node = vars(self)
        (node["index"], node["annot"], node["key"], node["hash"], node["loose"],
         node["flags"]) = (index, annot, (0, index, annot.key), hash((0, index, annot.hash)),
                           index, 0)


class Lam(_Node):
    """Abstraction; `hint` is for printing only, in neither key nor hash."""

    __match_args__ = ("hint", "binder", "body")

    def __init__(self, hint: str, binder: SetType, body: MemTerm):
        if not binder.elements:
            raise ValueError("binder set-type must be non-empty")
        node = vars(self)
        (node["hint"], node["binder"], node["body"], node["key"], node["hash"], node["loose"],
         node["flags"]) = (hint, binder, body, (2, binder.key, body.key),
                           hash((2, binder.hash, body.hash)), max(body.loose - 1, -1),
                           (body.flags & _CONTAINS) | _W_ABSTRACTION)


class App(_Node):
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: MemTerm, arg: SetTerm):
        if not arg.elements:
            raise ValueError("application argument must be non-empty")
        below = fun.flags
        flags = (below | arg.flags) & _CONTAINS
        if type(fun) is Lam:
            flags |= I_REDEX
        if below & _W_ABSTRACTION:
            flags |= IM_REDEX
        node = vars(self)
        node["fun"], node["arg"], node["key"], node["hash"], node["loose"], node["flags"] = (
            fun, arg, (3, fun.key, arg.key), hash((3, fun.hash, arg.hash)),
            max(fun.loose, arg.loose), flags)


class Wrap(_Node):
    __match_args__ = ("head", "payload")

    def __init__(self, head: MemTerm, payload: SetTerm):
        node = vars(self)
        node["head"], node["payload"], node["key"], node["hash"], node["loose"], node["flags"] = (
            head, payload, (4, head.key, payload.key), hash((4, head.hash, payload.hash)),
            max(head.loose, payload.loose),
            _contained(head, payload) | WRAPPER | (head.flags & _W_ABSTRACTION))


MemTerm = Union[Var, BoundVar, Lam, App, Wrap]


class SetTerm(_Set):
    """Canonical duplicate-free (up to alpha) sequence of terms."""

    elements: tuple[MemTerm, ...]
    _what = "set-term"

    def __init__(self, elements: tuple, ordered: bool = False):
        super().__init__(elements, ordered)
        node = vars(self)
        if len(elements) == 1:
            only = elements[0]
            node["loose"], node["flags"] = only.loose, only.flags & _CONTAINS
        else:
            node["loose"], node["flags"] = (max((e.loose for e in elements), default=-1),
                                            _contained(*elements))

# A wrapper list is the sequence of payloads between an abstraction and
# its argument, outermost last: apply_wrappers(t, (p, q)) == t[p][q].
WrapperList = tuple[SetTerm, ...]


# ---------------------------------------------------------------------------
# Untyped terms


class UVar(_Node):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        node = vars(self)
        key = (1, name)
        node["name"], node["key"], node["hash"], node["loose"], node["flags"] = (
            name, key, hash(key), -1, FREE_VAR)


class UBoundVar(_Node):
    __match_args__ = ("index",)

    def __init__(self, index: int):
        node = vars(self)
        key = (0, index)
        node["index"], node["key"], node["hash"], node["loose"], node["flags"] = (
            index, key, hash(key), index, 0)


class ULam(_Node):
    """Untyped abstraction; `hint` is for printing only, in neither key nor hash."""

    __match_args__ = ("hint", "body")

    def __init__(self, hint: str, body: UntypedTerm):
        node = vars(self)
        node["hint"], node["body"], node["key"], node["hash"], node["loose"], node["flags"] = (
            hint, body, (2, body.key), hash((2, body.hash)), max(body.loose - 1, -1),
            body.flags)


class UApp(_Node):
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: UntypedTerm, arg: UntypedTerm):
        flags = fun.flags | arg.flags
        if isinstance(fun, ULam):
            flags |= BETA_REDEX
        node = vars(self)
        node["fun"], node["arg"], node["key"], node["hash"], node["loose"], node["flags"] = (
            fun, arg, (3, fun.key, arg.key), hash((3, fun.hash, arg.hash)),
            max(fun.loose, arg.loose), flags)


UntypedTerm = Union[UVar, UBoundVar, ULam, UApp]


def type_height(t: Type | SetType) -> int:
    """Arrow nesting depth: bases are 0, an arrow is 1 + max of its sides.

    A set-type takes the max over its elements, 0 when empty (empty
    set-types occur only as wrapper payload types).  So the height is
    the largest number of arrows above a base.
    """
    height = 0
    stack = [(t, 0)]
    while stack:
        t, arrows = stack.pop()
        kind = type(t)
        if kind is Base:
            height = max(height, arrows)
        elif kind is Arrow:
            stack += [(t.domain, arrows + 1), (t.codomain, arrows + 1)]
        elif kind is SetType:
            stack += [(e, arrows) for e in t.elements]
        else:
            raise TypeError(f"not a type: {t!r}")
    return height


# ---------------------------------------------------------------------------
# Traversal
#
# Children: abstraction body = 0; application fun = 0, arg element i =
# 1+i; wrapper head = 0, payload element i = 1+i; for a top-level set,
# element i = i.  Set elements are indexed in canonical order.  A
# position is the path of child indices from the root.


def run(walk: Generator):
    """Run a structural recursion written as generators, with its pending
    calls on an explicit stack, so that its depth costs no interpreter
    stack.

    A walker makes a sub-call as ``value = yield walker(child, ...)`` and
    returns its result with ``return``; `run` sends each sub-call's
    result back to its caller and returns the outermost result.  An
    exception raised in any call ends the whole run.
    """
    stack = [walk]
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
            value = None


def paused_collector(call):
    """`call` made to run with the cyclic collector off (the module
    docstring says where and why).

    On return or raise the wrapper enables the collector again only if
    it was on at entry, so a call nested in a paused one changes
    nothing.  `gc.disable` acts on the whole process: while a paused
    call runs no thread collects, and the wrapper restores only the
    state it changed.
    """
    @functools.wraps(call)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return call(*args, **kwargs)
        gc.disable()
        try:
            return call(*args, **kwargs)
        finally:
            gc.enable()
    return paused


# `children` and `rebuild` run once per node of every walk, so each
# dispatches on the node's class through a table instead of trying class
# patterns one by one.  A class missing from a table is not a term.


def children(t) -> list:
    """The subterms of t one position down, in child-index order."""
    try:
        listed = _CHILDREN[type(t)]
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None
    return listed(t)


def _no_children(t) -> list:
    return []


_CHILDREN = {
    Var: _no_children, BoundVar: _no_children, UVar: _no_children, UBoundVar: _no_children,
    Lam: lambda t: [t.body],
    ULam: lambda t: [t.body],
    App: lambda t: [t.fun, *t.arg.elements],
    UApp: lambda t: [t.fun, t.arg],
    Wrap: lambda t: [t.head, *t.payload.elements],
    SetTerm: lambda t: list(t.elements),
}


def rebuild(t, kids: list):
    """t with its children replaced by kids, in the order of children(t).

    Returns t itself when every kid is the old child, and reuses an
    unchanged argument or payload set, so an untouched subterm is never
    re-sorted.  A changed set re-canonicalizes.
    """
    try:
        rebuilt = _REBUILD[type(t)]
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None
    return rebuilt(t, kids)


def _rebuild_leaf(t, kids: list):
    return t


def _rebuild_app(t: App, kids: list) -> App:
    new_arg = _rebuild_set(t.arg, kids[1:])
    return t if kids[0] is t.fun and new_arg is t.arg else App(kids[0], new_arg)


def _rebuild_wrap(t: Wrap, kids: list) -> Wrap:
    new_payload = _rebuild_set(t.payload, kids[1:])
    return t if kids[0] is t.head and new_payload is t.payload else Wrap(kids[0], new_payload)


def _rebuild_set(s: SetTerm, kids: list) -> SetTerm:
    if all(map(operator.is_, kids, s.elements)):
        return s
    return SetTerm.of(kids)


_REBUILD = {
    Var: _rebuild_leaf, BoundVar: _rebuild_leaf, UVar: _rebuild_leaf, UBoundVar: _rebuild_leaf,
    Lam: lambda t, kids: t if kids[0] is t.body else Lam(t.hint, t.binder, kids[0]),
    ULam: lambda t, kids: t if kids[0] is t.body else ULam(t.hint, kids[0]),
    App: _rebuild_app,
    UApp: lambda t, kids: t if kids[0] is t.fun and kids[1] is t.arg else UApp(kids[0], kids[1]),
    Wrap: _rebuild_wrap,
    SetTerm: _rebuild_set,
}


def _subterm_paths(t, flags: int) -> Iterator[tuple[list[int], object]]:
    """(path, subterm) for every subterm of t in lexicographic
    (pre-)order, skipping, when `flags` is not 0, each subtree whose
    flags hold none of them.  `path` is one list, the position of the
    current subterm, changed in place at each step: a subterm n deep
    costs O(1) to reach, and its position O(n) only where it is kept."""
    path: list[int] = []
    stack = [(t, 0, -1)]  # (subterm, its depth, its child index)
    while stack:
        here, depth, i = stack.pop()
        if flags and not here.flags & flags:
            continue
        if depth:
            del path[depth - 1:]
            path.append(i)
        yield path, here
        kids = children(here)
        for j in range(len(kids) - 1, -1, -1):
            stack.append((kids[j], depth + 1, j))


def subterms(t, flags: int = 0) -> Iterator[tuple[Position, object]]:
    """Every (position, subterm) of t in lexicographic (pre-)order; with
    `flags`, a subtree whose flags hold none of them is skipped."""
    return ((tuple(path), here) for path, here in _subterm_paths(t, flags))


def nodes(t, flags: int = 0) -> Iterator:
    """Every subterm of t in pre-order, without the cost of positions;
    with `flags`, a subtree whose flags hold none of them is skipped."""
    stack = [t]
    while stack:
        here = stack.pop()
        if flags and not here.flags & flags:
            continue
        yield here
        stack.extend(reversed(children(here)))


def positions(t) -> Iterator[Position]:
    """All positions of t in lexicographic (pre-)order."""
    return (pos for pos, _ in subterms(t))


def _descend(t, pos: Position):
    """The (node, its children, child index) steps along pos, and the
    subterm reached."""
    path = []
    for step, i in enumerate(pos):
        kids = children(t)
        if not 0 <= i < len(kids):
            raise InvalidPosition(f"no child {i} at {list(pos[:step])}")
        path.append((t, kids, i))
        t = kids[i]
    return path, t


def subterm_at(t, pos: Position):
    return _descend(t, pos)[1]


def replace_at(t, pos: Position, new):
    """Rebuild t with the subterm at pos replaced; sets re-canonicalize."""
    for node, kids, i in reversed(_descend(t, pos)[0]):
        kids[i] = new
        new = rebuild(node, kids)
    return new


def is_wrapper_free(t: MemTerm | SetTerm) -> bool:
    return not t.flags & WRAPPER


def free_occurrences(t: MemTerm | SetTerm) -> Iterator[tuple[str, Type]]:
    """Yield (name, annotation) for every free occurrence, in term order;
    subtrees without one are not visited."""
    return ((s.name, s.annot) for s in nodes(t, FREE_VAR) if isinstance(s, Var))


def free_names(t) -> set[str]:
    """Names free in an annotated or untyped term."""
    return {s.name for s in nodes(t, FREE_VAR) if isinstance(s, (Var, UVar))}


def term_size(t) -> int:
    """Number of term nodes; a top-level set counts only its elements."""
    return sum(1 for s in nodes(t) if not isinstance(s, SetTerm))


def apply_wrappers(t: MemTerm, wrappers: WrapperList) -> MemTerm:
    for payload in wrappers:
        t = Wrap(t, payload)
    return t


def peel_wrappers(t: MemTerm) -> tuple[MemTerm, WrapperList]:
    """Split t into its wrapper-less core and the wrapper list around it."""
    wrappers: list[SetTerm] = []
    while isinstance(t, Wrap):
        wrappers.append(t.payload)
        t = t.head
    return t, tuple(reversed(wrappers))


# ---------------------------------------------------------------------------
# Printing


def pretty(x) -> str:
    """Canonical text form; parse(pretty(x)) is alpha-equal to x.  A
    term's text is stored on it, not on its subterms (storing every
    suffix of a spine would cost the square of its length), so a term is
    printed once however often it is asked for.  Terms printed together
    (`pretty_all`) share a memo that holds, until the call returns,
    the text of each subterm object they reach twice, by (identity,
    precedence, naming state).  A lone term takes none: finding its
    shared subterms would cost a walk of its own, and it seldom has any."""
    try:
        printer = _PRINTERS[type(x)]
    except KeyError:
        raise TypeError(f"cannot print {x!r}") from None
    return printer(x)


def _pretty_stored(t) -> str:
    if t.text is None:
        vars(t)["text"] = _pretty_term(t)
    return t.text


# A type's text does not depend on where the type occurs, so the printer
# stores it on the type node (`text`) the first time it prints the node,
# and prints each type object once however many terms it annotates.  An
# arrow's codomains are printed in a loop and not stored one by one: the
# texts of the suffixes of a long arrow chain would sum to the square of
# its length.


def _pretty_type(t: Type) -> str:
    if t.text is not None:
        return t.text
    parts = []
    here = t
    while isinstance(here, Arrow):
        parts.append(_pretty_domain(here.domain))
        here = here.codomain
        if here.text is not None:
            parts.append(here.text)
            break
    else:
        if not isinstance(here, Base):
            raise TypeError(f"not a type: {here!r}")
        parts.append(here.name)
    text = " -> ".join(parts)
    vars(t)["text"] = text
    return text


def _pretty_set_type(s: SetType) -> str:
    if s.text is None:
        vars(s)["text"] = "{" + ", ".join(_pretty_type(e) for e in s.elements) + "}"
    return s.text


def _pretty_domain(s: SetType) -> str:
    return _pretty_annot(s.elements[0]) if len(s.elements) == 1 else _pretty_set_type(s)


def _pretty_annot(a: Type) -> str:
    if isinstance(a, Base):
        return a.name
    return f"({_pretty_type(a)})"


# `naming.Names`, bound on the first term printed: `naming` imports this
# module, so this module cannot import it while it loads.
_Names = None


def _pretty_term(t, memo: tuple | None = None) -> str:
    """The text of an annotated or untyped term.

    An explicit stack holds what is left to print, last piece on top: a
    string is emitted as it is, None ends the scope of the binder names
    opened last, and a (term, precedence) pair prints the term.  At
    precedence 1 (the function of an application or the head of a
    wrapper) an abstraction is parenthesized, at 2 (an untyped argument)
    an application too.  Binder names depend on the context, so a
    subterm is printed afresh at each occurrence, unless `pretty_all`
    passes a memo (the ids of the shared nodes, their texts, the naming
    states): a shared node's text is read by (id, precedence, state), or
    printed, then joined and kept at the (start in out, key) pair pushed
    below it.  A type's text does not depend on the context,
    and each annotation and binder set-type is read from the text stored
    on its node (`_pretty_type`), computed the first time it is printed.
    """
    global _Names
    if _Names is None:
        from .naming import Names as _Names
    shared, texts, states = memo or (None, None, None)
    out: list[str] = []
    names = _Names(t, states)
    env = names.env  # names of the binders in scope, innermost last
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item is None:
            names.close()
            continue
        t, prec = item
        if shared is not None and (i := id(t)) in shared:
            key = (i, prec, names.state)
            if key in texts:
                out.append(texts[key])
                continue
            stack.append((len(out), key))
        kind = type(t)
        if kind is Var:
            out.append(f"{t.name}^{_pretty_annot(t.annot)}")
        elif kind is UVar:
            out.append(t.name)
        elif kind is BoundVar or kind is UBoundVar:
            name = env[-1 - t.index] if t.index < len(env) else f"?{t.index - len(env)}"
            out.append(f"{name}^{_pretty_annot(t.annot)}" if kind is BoundVar else name)
        elif kind is Lam or kind is ULam:
            chain, body = names.open(t)
            if prec:
                out.append("(")
                stack.append(")")
            for lam, name in chain:
                out.append(f"\\{name}:{_pretty_set_type(lam.binder)}. " if kind is Lam
                           else f"\\{name}. ")
            stack += [None, (body, 0)]
        elif kind is App and len(t.arg) == 1 and type(t.arg.elements[0]) in (Var, BoundVar):
            stack += [(t.arg.elements[0], 0), " ", (t.fun, 1)]
        elif kind is App or kind is Wrap:
            fun, arg = (t.fun, t.arg) if kind is App else (t.head, t.payload)
            opening, closing = (" {", "}") if kind is App else (" [", "]")
            stack.append(closing)
            for e in reversed(arg.elements[1:]):
                stack += [(e, 0), ", "]
            stack += [(arg.elements[0], 0), opening, (fun, 1)]
        elif kind is UApp:
            if prec == 2:
                out.append("(")
                stack.append(")")
            stack += [(t.arg, 2), " ", (t.fun, 1)]
        elif kind is int:  # a shared node printed from out[t] on, kept under the key prec
            texts[prec] = text = "".join(out[t:])
            out[t:] = [text]
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


_PRINTERS = {
    Base: _pretty_type, Arrow: _pretty_type, SetType: _pretty_set_type,
    SetTerm: lambda s: "{" + ", ".join(_pretty_term(e) for e in s.elements) + "}",
    **dict.fromkeys((Var, BoundVar, Lam, App, Wrap, UVar, UBoundVar, ULam, UApp), _pretty_stored),
}


def pretty_all(xs) -> list[str]:
    """[pretty(x) for x in xs], the terms among xs not yet printed printed
    with one memo, which keeps the text of each subterm they share.

    A pre-pass over the DAG of those terms (`_shared`) finds the inner
    nodes reached more than once.  The printer keeps the text of each
    such node under (its id, its precedence, the naming state), and
    reads it where the node recurs: a subterm's text depends on nothing
    else.  No other node is kept, so a spine does not store its
    prefixes, and the memo dies with the call.  Each term's text is
    stored on it, as by `pretty`.  The nodes of a reduction graph share
    most of their subterms, so its exports cost what is distinct in it.
    """
    xs = list(xs)
    todo = {id(x): x for x in xs
            if _PRINTERS.get(type(x)) is _pretty_stored and x.text is None}
    memo = (_shared(todo.values()), {}, {})
    for t in todo.values():
        vars(t)["text"] = _pretty_term(t, memo)
    return [pretty(x) for x in xs]


def _shared(roots) -> set[int]:
    """The ids of the inner nodes, roots included, that the roots and
    their parents reach more than once; each node is walked once."""
    seen, shared = set(), set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        i = id(t)
        if i in seen:
            shared.add(i)
            continue
        kids = children(t)
        if kids:
            seen.add(i)
            stack += kids
    return shared


# ---------------------------------------------------------------------------
# Parsing


def parse(text: str, kind: str) -> Type | UntypedTerm | MemTerm:
    """Parse text as a "type", "untyped" term, or "annotated" term;
    non-canonical set syntax is accepted and canonicalized."""
    return _parse(text, kind, False)


def parse_type(text: str) -> Type:
    return parse(text, "type")


def parse_untyped(text: str) -> UntypedTerm:
    return parse(text, "untyped")


def parse_term(text: str) -> MemTerm:
    return parse(text, "annotated")


def parse_set_type(text: str) -> SetType:
    """A braced or bare set-type, e.g. "{a, b -> c}"."""
    return _parse(text, "type", True)


# `parsing.read`, bound on the first parse: `parsing` imports this module.
_read = None


def _parse(text: str, kind: str, as_set: bool):
    global _read
    if _read is None:
        from .parsing import read as _read
    return _read(text, kind, as_set)
