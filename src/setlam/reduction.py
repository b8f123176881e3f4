"""Reduction: substitution, single steps, developments, beta simulation.

One rule serves three calculi.  `_redex` recognizes a redex
``(\\x:A. body) L args``, where L is a list of wrappers on the
abstraction, and `_contract` contracts it, replacing each occurrence by
the argument element of its type.  Plain reduction ("i") contracts
redexes without wrappers and erases the argument; it is defined on
wrapper-free terms, and as a plain step keeps a term wrapper-free,
`require_plain` checks that once per call, at its first step.  Memory
reduction ("im") contracts to ``body{x := args} [args] L``, keeping the
argument in a wrapper.  Beta reduction ("beta") opens the body with it.

The redex search `_redex_sites` yields each redex node with its
position, lazily and in lexicographic order.  The stepping loop and
beta simulation contract the node it found, so a leftmost-outermost
step costs the path to its redex; only `step`, which takes a position,
descends to it again.  `reducts` builds a node's one-step reducts
from its children's, in a table one search shares.  A development is a
structural recursion run on `syntax.run`, so it works at any depth.
A beta step is simulated by contracting, one by one, the copies of its
redex in a refining annotated term; a single annotated step is
projected back to a beta step plus a bounded search for the completion.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import islice, product
from typing import NamedTuple

from .binding import open_term, uopen
from .errors import FuelExhausted, IllTyped, NotARedex, SearchBudgetExceeded
from .syntax import (
    BETA_REDEX, I_REDEX, IM_REDEX, WRAPPER, App, Lam, MemTerm, Position, SetTerm,
    SetType, Type, UApp, ULam, UntypedTerm, Wrap, WrapperList, _subterm_paths,
    apply_wrappers, children, is_wrapper_free, peel_wrappers, pretty,
    rebuild, replace_at, run, subterm_at, subterms, term_size,
    type_height,
)
from .typecheck import check, refines, subterm_type
from . import binding, typecheck

__all__ = [
    "Redex", "Step",
    "substitute", "redex_degree", "redexes", "i_redexes", "redex_positions", "has_redex",
    "require_plain", "step_i", "step_im", "step", "reducts", "reduction_sequence",
    "normalize",
    "corresponding_step", "forgetful_reducts",
    "develop", "complete_development", "parallel_reducts", "par_reduces",
    "random_parallel_reduct",
    "beta_redexes", "beta_step",
    "simulate_beta", "project_step", "erased_position",
]


class Redex(NamedTuple):
    """An applied w-abstraction: ``(\\x:A. body) L args`` at `position`."""

    position: Position
    wrapper_count: int
    degree: int | None  # height of the w-abstraction's type; None if unsynthesizable


class Step(NamedTuple):
    kind: str  # the calculus of the step; only "i" is built
    position: Position
    source: object
    target: object


# ---------------------------------------------------------------------------
# Substitution


def _substituents(binder: SetType, arg: SetTerm) -> dict[Type, MemTerm]:
    """The element of `arg` of each type of `binder`: a set-term and its
    set-type are in bijection, so `arg` must carry exactly those types."""
    by_type: dict[Type, MemTerm] = {}
    for e in arg.elements:
        t = subterm_type(e)
        if t in by_type:
            raise IllTyped(f"set-term elements share the type {pretty(t)}")
        by_type[t] = e
    if len(by_type) != len(binder.elements) or not all(t in by_type for t in binder.elements):
        raise IllTyped(
            f"argument set-type {pretty(SetType.of(by_type))} != binder {pretty(binder)}")
    return by_type


def substitute(t: MemTerm | SetTerm, name: str, binder: SetType,
               arg: SetTerm, context=None) -> MemTerm | SetTerm:
    """Replace each free ``name^A`` in t by the element of `arg` of type A.

    `arg` must carry exactly the types of `binder`.  When a context is
    given, the substituents are checked under it first.
    """
    by_type = _substituents(binder, arg)
    if context is not None:
        check(context, arg)
    return binding.subst_free(t, name, by_type)


# ---------------------------------------------------------------------------
# Redex enumeration and single steps


# The flag bit of the nodes whose subtree holds a redex of each calculus.
_REDEX_FLAG = {"beta": BETA_REDEX, "i": I_REDEX, "im": IM_REDEX}


def _redex_flag(calculus: str) -> int:
    try:
        return _REDEX_FLAG[calculus]
    except KeyError:
        raise ValueError(f"calculus must be beta, i, or im, not {calculus!r}") from None


def _redex(node, calculus: str) -> tuple | None:
    """(w-abstraction, its wrappers, argument) when node is a redex that a
    step of `calculus` may contract, else None; the caller has checked
    `calculus` (`_redex_flag`)."""
    if not isinstance(node, UApp if calculus == "beta" else App):
        return None
    core, wrappers = peel_wrappers(node.fun) if calculus == "im" else (node.fun, ())
    return (core, wrappers, node.arg) if isinstance(core, (Lam, ULam)) else None


def _redex_sites(t, calculus: str):
    """(position, node, redex) for every redex node of `calculus` in t,
    in lexicographic order; subtrees whose flags hold no such redex are
    skipped."""
    for path, here in _subterm_paths(t, _redex_flag(calculus)):
        if (redex := _redex(here, calculus)) is not None:
            yield tuple(path), here, redex


def _contract(core, body, wrappers: WrapperList, arg, calculus: str):
    """The contractum of the redex of the w-abstraction `core`, with
    `body`, `wrappers` and `arg` in place of its body, wrappers and
    argument (a development passes them developed)."""
    if calculus == "beta":
        return uopen(body, arg)
    contracted = open_term(body, _substituents(core.binder, arg))
    if calculus == "i":
        return contracted
    return apply_wrappers(Wrap(contracted, arg), wrappers)


def redex_degree(core: Lam) -> int:
    """The degree of a redex: the height of its w-abstraction's type."""
    return type_height(subterm_type(core))


def redexes(t: MemTerm | SetTerm) -> list[Redex]:
    """All applied w-abstractions with their degrees, in lexicographic
    position order."""
    found: list[Redex] = []
    for pos, _, redex in _redex_sites(t, "im"):
        try:
            degree = redex_degree(redex[0])
        except IllTyped:
            degree = None
        found.append(Redex(pos, len(redex[1]), degree))
    return found


def i_redexes(t: MemTerm | SetTerm) -> list[Redex]:
    """Redexes with no wrappers between abstraction and argument."""
    return [r for r in redexes(t) if r.wrapper_count == 0]


def redex_positions(t, calculus: str) -> list[Position]:
    """Positions of the redexes a step of `calculus` may contract, in
    lexicographic order (no degrees are computed)."""
    return [pos for pos, _, _ in _redex_sites(t, calculus)]


def has_redex(t, calculus: str) -> bool:
    """Whether a step of `calculus` may contract a redex of t, read off
    t's flags."""
    return bool(t.flags & _redex_flag(calculus))


def require_plain(t, calculus: str):
    """t, once checked to be a term that steps of `calculus` start from."""
    if calculus == "i" and not is_wrapper_free(t):
        raise IllTyped("plain reduction is defined on wrapper-free terms")
    return t


def step(t, pos: Position, calculus: str):
    """One step of `calculus` ("beta", "i" or "im") at pos.

    The wrapper-free precondition of a plain step is left to the caller
    (`require_plain`): a plain step keeps a term wrapper-free, so a
    sequence of steps checks it once.
    """
    _redex_flag(calculus)  # rejects an unknown calculus
    redex = _redex(subterm_at(t, pos), calculus)
    if redex is None:
        raise NotARedex(f"no {calculus} redex at {list(pos)}")
    core, wrappers, arg = redex
    return replace_at(t, pos, _contract(core, core.body, wrappers, arg, calculus))


def reducts(t, calculus: str, memo: dict):
    """Yield (position, reduct) for each step of `calculus` from t, by
    the redexes' lexicographic order.

    `memo` maps the id of each node stepped so far to the node (so that
    its id is not reused) and its reducts: its contractum, if it is a
    redex, then each child's reducts, in child order, put back in place
    by `rebuild`.  A caller passes one dict for the terms of one search:
    a reduct shares every subterm off its redex's path with its source,
    as the same object, so a subterm shared by many terms is searched,
    rebuilt and contracted once.  Each reduct links to the child reduct
    it came from, and only the root's positions are read off the links.
    The key is identity, not ``==``: an alpha-equal redex with other
    binder hints keeps its own names.  As for `step`, the precondition
    of a plain step is left to the caller.
    """
    flag = _redex_flag(calculus)
    if not t.flags & flag:
        return
    stack = [t]  # nodes to step, and (node, its children) below the children
    while stack:
        node = stack.pop()
        if type(node) is not tuple:
            if id(node) not in memo:
                kids = children(node)
                stack.append((node, kids))
                for kid in kids:
                    if kid.flags & flag and id(kid) not in memo:
                        stack.append(kid)
            continue
        node, kids = node
        entry = []  # links (child index, the child's link, reduct)
        if (redex := _redex(node, calculus)) is not None:
            core, wrappers, arg = redex
            entry.append((None, None, _contract(core, core.body, wrappers, arg, calculus)))
        for i, kid in enumerate(kids):
            if kid.flags & flag:
                for link in memo[id(kid)][1]:
                    kids[i] = link[2]
                    entry.append((i, link, rebuild(node, kids)))
                kids[i] = kid
        memo[id(node)] = (node, entry)
    for link in memo[id(t)][1]:
        reduct, pos = link[2], []
        while link[1] is not None:
            pos.append(link[0])
            link = link[1]
        yield tuple(pos), reduct


def step_i(t: MemTerm | SetTerm, pos: Position) -> MemTerm | SetTerm:
    """Contract the redex at pos, erasing the argument's unused elements."""
    return step(require_plain(t, "i"), pos, "i")


def step_im(t: MemTerm | SetTerm, pos: Position) -> MemTerm | SetTerm:
    """Contract the redex at pos, recording the argument in a wrapper."""
    return step(t, pos, "im")


def corresponding_step(t: MemTerm | SetTerm, pos: Position) -> MemTerm | SetTerm:
    """The memory step contracting the same redex as step_i(t, pos).

    Differs from the plain step only by the recorded wrapper: it
    forgetful-reduces to step_i(t, pos) in exactly one step.
    """
    return step_im(require_plain(t, "i"), pos)


def reduction_sequence(t, calculus: str, choose):
    """Yield (position, reduct) for each step of `calculus` from t until
    no redex is left.  Each step contracts the site choose(sites) returns,
    where sites lazily yields (position, node, redex) in lexicographic
    order; `next` stops the search at the leftmost-outermost redex."""
    if has_redex(t, calculus):
        require_plain(t, calculus)
    while has_redex(t, calculus):
        pos, _, (core, wrappers, arg) = choose(_redex_sites(t, calculus))
        t = replace_at(t, pos, _contract(core, core.body, wrappers, arg, calculus))
        yield pos, t


def normalize(t, calculus: str, max_steps: int):
    """Reduce by the leftmost-outermost redex until none is left; returns
    (normal form, steps taken).

    Raises FuelExhausted when the normal form is more than `max_steps`
    steps away.
    """
    steps = 0
    for _, t in islice(reduction_sequence(t, calculus, next), max_steps):
        steps += 1
    if steps == max_steps and has_redex(t, calculus):
        raise FuelExhausted(f"no normal form within {max_steps} steps")
    return t, steps


def forgetful_reducts(t: MemTerm | SetTerm) -> list[tuple[Position, MemTerm | SetTerm]]:
    """All ways to drop one wrapper node (with its payload), by position."""
    return [(pos, replace_at(t, pos, sub.head))
            for pos, sub in subterms(t, WRAPPER) if isinstance(sub, Wrap)]


# ---------------------------------------------------------------------------
# Parallel reduction and complete developments


def _check_calculus(calculus: str) -> None:
    if calculus not in ("i", "im"):
        raise ValueError(f"calculus must be 'i' or 'im', not {calculus!r}")


def develop(t, contract, calculus: str):
    """Contract, simultaneously, every redex that `contract` selects.

    The development of an application develops its argument first, then
    asks contract(w-abstraction) whether to contract it (only for
    redexes `calculus` may contract), then develops the body and the
    wrappers; everything else is a congruence.  A contracted memory
    redex keeps its argument as a wrapper; a plain one erases it.  A
    subtree whose flags hold no redex of `calculus` is kept as it is.
    """
    flag = _redex_flag(calculus)

    def dev(node):  # a sub-call is made only for a subtree that holds such a redex
        if not isinstance(node, App):
            kids = []
            for kid in children(node):
                kids.append((yield dev(kid)) if kid.flags & flag else kid)
            return rebuild(node, kids)
        arg = (yield dev(node.arg)) if node.arg.flags & flag else node.arg
        redex = _redex(node, calculus)
        if redex is not None and contract(redex[0]):
            core, wrappers, _ = redex
            body = (yield dev(core.body)) if core.body.flags & flag else core.body
            developed = []
            for payload in wrappers:
                developed.append((yield dev(payload)) if payload.flags & flag else payload)
            return _contract(core, body, tuple(developed), arg, calculus)
        fun = (yield dev(node.fun)) if node.fun.flags & flag else node.fun
        return node if fun is node.fun and arg is node.arg else App(fun, arg)
    return run(dev(t)) if t.flags & flag else t


def complete_development(t: MemTerm | SetTerm, calculus: str = "im"):
    """Simultaneous contraction of every visible redex."""
    _check_calculus(calculus)
    return develop(require_plain(t, calculus), lambda core: True, calculus)


def parallel_reducts(t: MemTerm | SetTerm, calculus: str = "im") -> frozenset:
    """All one-parallel-step reducts: each redex contracted or not."""
    _check_calculus(calculus)
    return _par_reducts(require_plain(t, calculus), calculus, {})


def _par_reducts(t, calculus: str, memo: dict) -> frozenset:
    if t in memo:
        return memo[t]
    kid_choices = [_par_reducts(c, calculus, memo) for c in children(t)]
    out = {rebuild(t, kids) for kids in product(*kid_choices)}
    if (redex := _redex(t, calculus)) is not None:
        core, wrappers, arg = redex
        for ws in product(*(_par_reducts(p, calculus, memo) for p in wrappers)):
            for b in _par_reducts(core.body, calculus, memo):
                for a in _par_reducts(arg, calculus, memo):
                    out.add(_contract(core, b, ws, a, calculus))
    memo[t] = result = frozenset(out)
    return result


def par_reduces(t, s, calculus: str = "im") -> bool:
    """Whether s is reachable from t in one parallel step."""
    return s in parallel_reducts(t, calculus)


def random_parallel_reduct(t, rng: random.Random, calculus: str = "im"):
    """One parallel reduct sampled by a fair coin at every redex."""
    _check_calculus(calculus)
    return develop(require_plain(t, calculus), lambda core: rng.random() < 0.5, calculus)


# ---------------------------------------------------------------------------
# Untyped beta reduction


def beta_redexes(m: UntypedTerm) -> list[Position]:
    return redex_positions(m, "beta")


def beta_step(m: UntypedTerm, pos: Position) -> UntypedTerm:
    return step(m, pos, "beta")


# ---------------------------------------------------------------------------
# Simulation between beta and plain annotated reduction


def simulate_beta(t: MemTerm, m: UntypedTerm, pos: Position
                  ) -> tuple[UntypedTerm, MemTerm, list[Step]]:
    """Replay the beta step of m at pos inside the refining term t.

    Contracts, one at a time, every copy in t of the redex at pos; the
    result refines the beta reduct.  Returns (reduct of m, final term,
    the non-empty step list).
    """
    if not refines(t, m):
        raise ValueError("t does not refine m")
    n = beta_step(m, pos)
    target = subterm_at(n, pos)
    current: MemTerm = t  # wrapper-free, since it refines m
    steps: list[Step] = []
    while not refines(current, n):
        # Contract the first copy of the redex (in canonical order) not yet
        # contracted: a copy is a redex whose position erases to pos.
        site = next(((q, redex) for q, node, redex in _redex_sites(current, "i")
                     if _try_erased(current, q) == pos and not refines(node, target)), None)
        assert site is not None, "mixed state without a remaining redex copy"
        q, (core, wrappers, arg) = site
        nxt = replace_at(current, q, _contract(core, core.body, wrappers, arg, "i"))
        steps.append(Step("i", q, current, nxt))
        current = nxt
    assert steps, "a beta step must have at least one copy to contract"
    return n, current, steps


def erased_position(t: MemTerm, pos: Position) -> Position:
    """Map a position of a wrapper-free term to its erasure's position:
    every argument element of an application erases to its argument."""
    here = t
    for i in pos:
        kids = children(here) if type(here) in (Lam, App) else []
        if not 0 <= i < len(kids):
            raise ValueError(f"position {list(pos)} does not erase")
        here = kids[i]
    return tuple(min(i, 1) for i in pos)


def project_step(t: MemTerm, s: MemTerm, pos: Position, budget: int | None = None
                 ) -> tuple[UntypedTerm, MemTerm, list[Step]]:
    """Project the step t -> s at pos to a beta step on the erasure.

    Returns (beta reduct N of erase(t), a term s' with s ->* s' and
    refines(s', N), and the completing steps from s).  The completion is
    found by breadth-first search over plain reduction, smallest witness
    first; `budget` caps the number of explored terms.  The search steps
    each term by `reducts`, with one dict for the whole search that maps
    each stepped node's identity to its reducts, so a subterm shared by
    several terms is searched, rebuilt and contracted once.
    """
    m = typecheck.erase(t)
    if step_i(t, pos) != s:
        raise ValueError("s is not the step of t at pos")
    bpos = erased_position(t, pos)
    n = beta_step(m, bpos)

    if budget is None:
        copies = sum(1 for q in redex_positions(s, "i") if _try_erased(s, q) == bpos)
        budget = (1 + copies) * term_size(s) + term_size(s)

    explored = 0
    seen = {s}
    memo: dict = {}
    queue: deque[tuple[MemTerm, tuple[Step, ...]]] = deque([(s, ())])
    while queue:
        current, steps = queue.popleft()
        explored += 1
        if refines(current, n):
            return n, current, list(steps)
        if explored >= budget:
            break
        for q, nxt in reducts(current, "i", memo):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, steps + (Step("i", q, current, nxt),)))
    raise SearchBudgetExceeded(
        f"no completion within {budget} explored terms")


def _try_erased(t: MemTerm, pos: Position) -> Position | None:
    try:
        return erased_position(t, pos)
    except ValueError:
        return None
