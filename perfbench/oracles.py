"""Independent untyped lambda-calculus oracles and input generators.

Nothing here imports setlam: the benchmark checks the program's output
against these computations.  Untyped terms are nameless tuples,

    ("v", name)       free variable
    ("b", index)      bound variable, de Bruijn index
    ("l", body)       abstraction
    ("a", fun, arg)   application

so that ``==`` is alpha-equivalence, exactly as for setlam's own terms.
"""

from __future__ import annotations

import random
import re
from collections import deque

FREE_NAMES = ("x", "y", "z")
DUPLICATOR = ("l", ("a", ("b", 0), ("b", 0)))


# ---------------------------------------------------------------------------
# de Bruijn reduction


def shift(t, d: int, cutoff: int = 0):
    tag = t[0]
    if tag == "b":
        return ("b", t[1] + d) if t[1] >= cutoff else t
    if tag == "l":
        return ("l", shift(t[1], d, cutoff + 1))
    if tag == "a":
        return ("a", shift(t[1], d, cutoff), shift(t[2], d, cutoff))
    return t


def subst(t, index: int, s):
    """Replace bound index `index` by s (s already shifted for depth)."""
    tag = t[0]
    if tag == "b":
        return s if t[1] == index else t
    if tag == "l":
        return ("l", subst(t[1], index + 1, shift(s, 1)))
    if tag == "a":
        return ("a", subst(t[1], index, s), subst(t[2], index, s))
    return t


def contract(body, arg):
    """The contractum of ``(\\. body) arg``."""
    return shift(subst(body, 0, shift(arg, 1)), -1)


def _leftmost_step(t):
    """One leftmost-outermost beta step, or None on a normal form."""
    tag = t[0]
    if tag == "a":
        fun, arg = t[1], t[2]
        if fun[0] == "l":
            return contract(fun[1], arg)
        reduced = _leftmost_step(fun)
        if reduced is not None:
            return ("a", reduced, arg)
        reduced = _leftmost_step(arg)
        return None if reduced is None else ("a", fun, reduced)
    if tag == "l":
        reduced = _leftmost_step(t[1])
        return None if reduced is None else ("l", reduced)
    return None


def beta_normal_form(t, max_steps: int = 10_000):
    """Normal-order beta normal form, or None beyond `max_steps` steps."""
    for _ in range(max_steps):
        reduced = _leftmost_step(t)
        if reduced is None:
            return t
        t = reduced
    return None


def one_step_reducts(t):
    """Every term reachable by contracting exactly one beta redex."""
    tag = t[0]
    out = []
    if tag == "a":
        fun, arg = t[1], t[2]
        if fun[0] == "l":
            out.append(contract(fun[1], arg))
        out.extend(("a", r, arg) for r in one_step_reducts(fun))
        out.extend(("a", fun, r) for r in one_step_reducts(arg))
    elif tag == "l":
        out.extend(("l", r) for r in one_step_reducts(t[1]))
    return out


def explore_beta(t, max_nodes: int, max_size: int = 400):
    """Exhaustive beta graph from t: (node count, verdict).

    The verdict is "yes" when the closure is finite and acyclic (t is
    strongly normalizing), "no" when a cycle is reachable, and
    "unknown" when more than `max_nodes` nodes are reachable or a
    reachable term has more than `max_size` nodes.
    """
    index = {t: 0}
    succ: list[list[int]] = [[]]
    queue = deque([t])
    while queue:
        node = queue.popleft()
        i = index[node]
        for r in one_step_reducts(node):
            j = index.get(r)
            if j is None:
                if len(index) >= max_nodes or size(r) > max_size:
                    return len(index), "unknown"
                j = index[r] = len(succ)
                succ.append([])
                queue.append(r)
            succ[i].append(j)
    return len(succ), "no" if _has_cycle(succ) else "yes"


def _has_cycle(succ: list[list[int]]) -> bool:
    # Kahn's algorithm: a cycle remains exactly when not every node drains.
    indegree = [0] * len(succ)
    for outs in succ:
        for j in outs:
            indegree[j] += 1
    ready = [i for i, d in enumerate(indegree) if d == 0]
    drained = 0
    while ready:
        i = ready.pop()
        drained += 1
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    return drained != len(succ)


def step_at(t, pos):
    """Contract the beta redex at child path `pos` (fun 0, arg 1, body 0)."""
    if not pos:
        if t[0] != "a" or t[1][0] != "l":
            raise ValueError("no beta redex here")
        return contract(t[1][1], t[2])
    i, rest = pos[0], pos[1:]
    if t[0] == "l" and i == 0:
        return ("l", step_at(t[1], rest))
    if t[0] == "a" and i in (0, 1):
        kids = [t[1], t[2]]
        kids[i] = step_at(kids[i], rest)
        return ("a", *kids)
    raise ValueError(f"no child {i}")


def rename_free(t, mapping):
    tag = t[0]
    if tag == "v":
        return ("v", mapping.get(t[1], t[1]))
    if tag == "l":
        return ("l", rename_free(t[1], mapping))
    if tag == "a":
        return ("a", rename_free(t[1], mapping), rename_free(t[2], mapping))
    return t


def applies_duplicator_to_abstraction(t) -> bool:
    """Whether t contains ``(\\x. x x) (\\y. ...)``."""
    tag = t[0]
    if tag == "a":
        if t[1] == DUPLICATOR and t[2][0] == "l":
            return True
        return (applies_duplicator_to_abstraction(t[1])
                or applies_duplicator_to_abstraction(t[2]))
    if tag == "l":
        return applies_duplicator_to_abstraction(t[1])
    return False


def size(t) -> int:
    tag = t[0]
    if tag == "l":
        return 1 + size(t[1])
    if tag == "a":
        return 1 + size(t[1]) + size(t[2])
    return 1


def count_spine(t, head: str, fun: str) -> int | None:
    """k when t is ``fun (fun (... (fun head)))`` with k copies of fun."""
    k = 0
    while t[0] == "a" and t[1] == ("v", fun):
        t = t[2]
        k += 1
    return k if t == ("v", head) else None


# ---------------------------------------------------------------------------
# Printing and parsing the untyped grammar


_IDENT = re.compile(r"[a-z][A-Za-z0-9_']*")


def _fresh(hint: str, used) -> str:
    if hint not in used:
        return hint
    n = 0
    while f"{hint}{n}" in used:
        n += 1
    return f"{hint}{n}"


def free_names(t, out=None) -> set[str]:
    out = set() if out is None else out
    tag = t[0]
    if tag == "v":
        out.add(t[1])
    elif tag == "l":
        free_names(t[1], out)
    elif tag == "a":
        free_names(t[1], out)
        free_names(t[2], out)
    return out


def show(t, hints=("x",)) -> str:
    """Untyped text; binder names cycle through `hints`, renamed apart."""
    counter = [0]

    def go(t, env: list[str], prec: int) -> str:
        tag = t[0]
        if tag == "v":
            return t[1]
        if tag == "b":
            return env[-1 - t[1]]
        if tag == "l":
            hint = hints[counter[0] % len(hints)]
            counter[0] += 1
            name = _fresh(hint, free_names(t) | set(env))
            s = f"\\{name}. {go(t[1], env + [name], 0)}"
            return f"({s})" if prec >= 1 else s
        s = f"{go(t[1], env, 1)} {go(t[2], env, 2)}"
        return f"({s})" if prec >= 2 else s

    return go(t, [], 0)


_TOKEN = re.compile(r"\s*(->|[a-z][A-Za-z0-9_']*|[\\.:,^(){}\[\]])")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected character at {pos} in {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i] if self.i < len(self.toks) else ""

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def at_name(self) -> bool:
        return bool(_IDENT.fullmatch(self.peek()))

    def end(self):
        if self.i != len(self.toks):
            raise ValueError(f"trailing input {self.peek()!r}")


def _lookup(name: str, env: list[str]):
    for depth, binder in enumerate(reversed(env)):
        if binder == name:
            return ("b", depth)
    return ("v", name)


def read_untyped(text: str):
    """Parse untyped text into the nameless representation."""
    r = _Reader(text)

    def term(env):
        if r.peek() == "\\":
            r.take()
            name = r.take()
            r.take(".")
            return ("l", term(env + [name]))
        t = atom(env)
        while r.at_name() or r.peek() == "(":
            t = ("a", t, atom(env))
        return t

    def atom(env):
        if r.peek() == "(":
            r.take()
            t = term(env)
            r.take(")")
            return t
        return _lookup(r.take(), env)

    t = term([])
    r.end()
    return t


def erase_annotated(text: str, uniform: bool = True):
    """Erase set-annotated text: drop types and wrappers, merge sets.

    Every element of an argument set must erase to the same term
    (uniformity), or a ValueError reports the set; with uniform=False
    (terms in mid-reduction, where one copy of a redex has been
    contracted and another not) the first element stands for the set.
    """
    r = _Reader(text)

    def skip_type_until(stop: str):
        depth = 0
        while depth or r.peek() != stop:
            tok = r.take()
            if tok in "({":
                depth += 1
            elif tok in ")}":
                depth -= 1
            if tok == "":
                raise ValueError("unterminated type")

    def annotation():
        if r.peek() == "(":
            r.take()
            skip_type_until(")")
            r.take(")")
        else:
            r.take()

    def merged(elements):
        if uniform and any(e != elements[0] for e in elements[1:]):
            raise ValueError("argument set is not uniform")
        return elements[0]

    def elements(env, close):
        out = [term(env)]
        while r.peek() == ",":
            r.take()
            out.append(term(env))
        r.take(close)
        return out

    def term(env):
        if r.peek() == "\\":
            r.take()
            name = r.take()
            r.take(":")
            skip_type_until(".")
            r.take(".")
            return ("l", term(env + [name]))
        t = atom(env)
        while True:
            if r.at_name() or r.peek() == "(":
                t = ("a", t, atom(env))
            elif r.peek() == "{":
                r.take()
                t = ("a", t, merged(elements(env, "}")))
            elif r.peek() == "[":
                r.take()
                elements(env, "]")
            else:
                return t

    def atom(env):
        if r.peek() == "(":
            r.take()
            t = term(env)
            r.take(")")
            return t
        name = r.take()
        r.take("^")
        annotation()
        return _lookup(name, env)

    t = term([])
    r.end()
    return t


# ---------------------------------------------------------------------------
# Generators


def church(k: int):
    """The Church numeral k: ``\\f. \\x. f (f (... x))``."""
    body = ("b", 0)
    for _ in range(k):
        body = ("a", ("b", 1), body)
    return ("l", ("l", body))


def church_application(m: int, n: int, y: str, z: str):
    """``m n y z``, which beta-reduces to y applied n**m times to z."""
    return ("a", ("a", ("a", church(m), church(n)), ("v", y)), ("v", z))


def random_untyped(rng: random.Random, size: int, depth: int = 0):
    """A random term of about `size` nodes over FREE_NAMES.

    Applied duplicators ``(\\x. x x) N`` appear often, so that typings
    carry multi-element argument sets.
    """
    if size <= 1:
        if depth and rng.random() < 0.6:
            return ("b", rng.randrange(depth))
        return ("v", rng.choice(FREE_NAMES))
    if size >= 5 and rng.random() < 0.2:
        return ("a", DUPLICATOR, random_untyped(rng, size - 4, depth))
    if size >= 3 and rng.random() < 0.45:
        left = rng.randint(1, size - 2)
        return ("a", random_untyped(rng, left, depth),
                random_untyped(rng, size - 1 - left, depth))
    return ("l", random_untyped(rng, size - 1, depth + 1))
