"""Nameless-binding plumbing: shifts, opening, closing, substitution.

A term is locally closed when every de Bruijn index points to a binder
inside the term; all public operations of the package keep whole terms
locally closed.  Substitution into a set-annotated term selects the
replacement for each occurrence by the occurrence's type annotation, so
substituents are supplied as a mapping from types to terms.

Every operation here is one traversal, `_map_vars`, with its own
treatment of variable occurrences; it works on annotated and untyped
terms alike, at any depth (its stack is explicit).  The index-only
operations (`shift`, `open_term`, `uopen`) change only indices that
point outside the subtree being visited, so they return a subtree
whose stored `loose` index stays below that cut as it is, the same
object, without visiting it; `locally_closed` reads `loose` alone.
"""

from __future__ import annotations

from typing import Mapping

from .errors import MissingSubstituent
from .syntax import (
    BoundVar, Lam, MemTerm, SetTerm, Type, UBoundVar, ULam, UntypedTerm,
    UVar, Var, children, rebuild,
)


def _map_vars(t, leaf, indices_only: bool = False):
    """Rebuild t with every variable occurrence v replaced by leaf(v, d),
    where d is the number of binders above v inside t.

    With `indices_only`, leaf changes only indices v with v.index >= d,
    so a subtree in which no index reaches that far is kept as it is;
    then leaf only ever receives a bound occurrence whose index reaches
    d, since a free occurrence's `loose` is -1.
    """
    done = []  # rebuilt subtrees, in post-order
    stack = [(t, 0, None)]
    while stack:
        node, depth, kids = stack.pop()
        if kids is not None:
            start = len(done) - len(kids)
            new = rebuild(node, done[start:])
            del done[start:]
            done.append(new)
        elif indices_only and node.loose < depth:
            done.append(node)
        elif isinstance(node, (Var, BoundVar, UVar, UBoundVar)):
            done.append(leaf(node, depth))
        else:
            kids = children(node)
            stack.append((node, depth, kids))
            depth += isinstance(node, (Lam, ULam))
            stack.extend((k, depth, None) for k in reversed(kids))
    return done[0]


def _bound(v: BoundVar | UBoundVar, index: int):
    return BoundVar(index, v.annot) if isinstance(v, BoundVar) else UBoundVar(index)


def shift(t: MemTerm | SetTerm | UntypedTerm, d: int):
    """Add d to every index pointing outside the term."""
    if d == 0:
        return t

    def leaf(v, depth):
        return _bound(v, v.index + d)
    return _map_vars(t, leaf, True)


def _open(body, pick):
    def leaf(v, level):
        if v.index == level:
            return shift(pick(v), level)
        return _bound(v, v.index - 1)
    return _map_vars(body, leaf, True)


def open_term(body: MemTerm | SetTerm, by_type: Mapping[Type, MemTerm]):
    """Replace the binder the body sits under by typed substituents.

    Occurrences of the opened binder pick the substituent whose type
    equals their annotation; indices above the binder move down one.
    A substituent's own loose indices are shifted past the binders
    above each occurrence.
    """
    def pick(v):
        try:
            return by_type[v.annot]
        except KeyError:
            raise MissingSubstituent(v.annot) from None
    return _open(body, pick)


def uopen(body: UntypedTerm, replacement: UntypedTerm) -> UntypedTerm:
    """Untyped open_term: every occurrence takes the one replacement."""
    return _open(body, lambda v: replacement)


def close_term(t: MemTerm | SetTerm | UntypedTerm, *names: str):
    """Turn free occurrences of the names into indices for new binders,
    one per name, the last name's innermost."""
    binder = {name: len(names) - 1 - i for i, name in enumerate(names)}

    def leaf(v, level):
        if isinstance(v, (Var, UVar)) and v.name in binder:
            index = level + binder[v.name]
            return BoundVar(index, v.annot) if isinstance(v, Var) else UBoundVar(index)
        return v
    return _map_vars(t, leaf)


def subst_free(t: MemTerm | SetTerm, name: str, by_type: Mapping[Type, MemTerm]):
    """Replace free occurrences of `name`, selecting by annotation.

    Substituents must be locally closed; names cannot be captured, so no
    shifting is needed.
    """
    def leaf(v, _):
        if not (isinstance(v, Var) and v.name == name):
            return v
        try:
            return by_type[v.annot]
        except KeyError:
            raise MissingSubstituent(v.annot) from None
    return _map_vars(t, leaf)


def locally_closed(t: MemTerm | SetTerm | UntypedTerm) -> bool:
    return t.loose < 0
