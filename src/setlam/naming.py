"""Binder names, the printer's and those `derivation.erase_derivation`
gives the variables it binds: O(log n) per binder at any depth, so a
term prints in O(n log n) however deeply its binder chains nest.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .syntax import FREE_VAR, Lam, ULam, UVar, Var, children

_IDENT = re.compile(r"[a-z][A-Za-z0-9_']*\Z")


class Names:
    """The binder names of one walk of a term, the printer's or
    `derivation`'s, which may open any of its chains in any order: a
    chain's span is found by the identity of its top abstraction.
    A binder is named by its hint (or "x"), suffixed by the least number
    if that is taken: in scope, or free in the body of its chain.

    `open` names a chain and brings its names into scope, `close` ends
    the scope of the chain opened last.  `env` lists the names in scope,
    innermost last, and `scope` holds them (they are distinct).
    `suffix` maps a base to a number below which every suffixed name is
    in scope; `close` restores what its chain changed.  Whether a name
    is free in a chain's body is one `bisect` into `_index_free`, a
    pre-pass over the root made the first time a chain over a free
    variable opens.  So a binder costs O(log n), plus a test per free
    suffixed name its search passes, at any depth.

    Given `states`, a dict shared by the walks of one printing call,
    `state` numbers the naming state: `open` interns (the state it
    opened in, the chain's names, the suffixes it changed), and `close`
    returns to the state it opened in.  Equal numbers mean equal scopes
    and suffixes, so a subterm prints alike under them.
    """

    spans: dict | None = None  # per chain with a free variable, by id, its span

    def __init__(self, root, states: dict | None = None):
        self.root = root
        self.env: list[str] = []
        self.scope: set[str] = set()
        self.suffix: dict[str, int] = {}
        self.opened: list = []  # per open chain: length, suffixes changed, state opened in
        self.states = states
        self.state = 0

    def open(self, t):
        """Name the chain of abstractions at the top of t; returns
        ((abstraction, name) pairs, the chain's body)."""
        span = None
        if t.flags & FREE_VAR:
            if self.spans is None:
                self._index_free()
            span = self.spans[id(t)]
        env, scope, changed = self.env, self.scope, {}
        chain = []
        kind = type(t)
        while type(t) is kind:
            name = t.hint if _IDENT.match(t.hint) else "x"
            if name in scope or span is not None and self._free(name, span):
                name = self._suffixed(name, span, changed)
            env.append(name)
            scope.add(name)
            chain.append((t, name))
            t = t.body
        self.opened.append((len(chain), changed, self.state))
        if self.states is not None:
            key = (self.state, tuple(env[-len(chain):]),
                   tuple((base, self.suffix[base]) for base in changed))
            self.state = self.states.setdefault(key, len(self.states) + 1)
        return chain, t

    def close(self) -> None:
        count, changed, self.state = self.opened.pop()
        self.scope.difference_update(self.env[-count:])
        del self.env[-count:]
        if changed:
            self.suffix.update(changed)

    def _suffixed(self, base: str, span, changed: dict[str, int]) -> str:
        n = first = self.suffix.get(base, 0)
        gap = None  # the least suffix passed only because it is free
        while True:
            name = f"{base}{n}"
            if name not in self.scope:
                if span is None or not self._free(name, span):
                    break
                if gap is None:
                    gap = n
            n += 1
        changed.setdefault(base, first)
        self.suffix[base] = n + 1 if gap is None else gap
        return name

    def _free(self, name: str, span: tuple[int, int]) -> bool:
        at = self.occurrences.get(name)
        if at is None:
            return False
        i = bisect_left(at, span[0])
        return i < len(at) and at[i] < span[1]

    def _index_free(self) -> None:
        """Number the root's free occurrences in pre-order, and map the id
        of each chain with a free variable to the span of numbers below
        it; closed subtrees are skipped.  The free names below a chain do
        not depend on where it sits, so a chain that occurs twice keeps
        either visit's span."""
        spans: dict = {}
        self.occurrences: dict[str, list[int]] = {}
        count = 0
        stack = [self.root]
        while stack:
            t = stack.pop()
            if type(t) is int:  # the end of chain t's span
                spans[t] = (spans[t], count)
            elif t.flags & FREE_VAR:
                kind = type(t)
                if kind is Var or kind is UVar:
                    self.occurrences.setdefault(t.name, []).append(count)
                    count += 1
                elif kind is Lam or kind is ULam:
                    stack.append(id(t))
                    spans[id(t)] = count
                    while isinstance(t, (Lam, ULam)):
                        t = t.body
                    stack.append(t)
                else:
                    stack.extend(reversed(children(t)))
        self.spans = spans

