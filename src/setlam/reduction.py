"""Reduction: substitution, single steps, developments, beta simulation.

Two reductions act on annotated terms.  Plain reduction ("i") contracts
``(\\x:A. body) args`` to the body with each occurrence replaced by the
argument element of its type; it is defined on wrapper-free terms.
Memory reduction ("im") contracts ``(\\x:A. body) L args``, where L is a
list of wrappers on the abstraction, to ``body{x := args} [args] L``:
the contracted argument is kept as a wrapper, so nothing is erased.

Untyped beta reduction lives here too, together with the bridge between
the two worlds: a beta step on an untyped term is simulated by
contracting every copy of the redex in a refining annotated term, and a
single annotated step is projected back to a beta step plus a bounded
search for the completing reduction.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import product

from .binding import open_term, uopen
from .errors import FuelExhausted, IllTyped, NotARedex, SearchBudgetExceeded
from .syntax import (
    App, Lam, MemTerm, Position, SetTerm, SetType, Type, UApp, ULam,
    UntypedTerm, Wrap, WrapperList, apply_wrappers, children,
    is_wrapper_free, map_children, peel_wrappers, pretty, rebuild,
    replace_at, subterm_at, subterms, term_size, type_height,
)
from .typecheck import check, refines, subterm_type
from . import binding, typecheck

__all__ = [
    "Redex", "Step",
    "substitute", "redexes", "i_redexes", "redex_positions",
    "step_i", "step_im", "step", "normalize",
    "corresponding_step", "forgetful_reducts",
    "develop", "complete_development", "parallel_reducts", "par_reduces",
    "random_parallel_reduct",
    "beta_redexes", "beta_step",
    "simulate_beta", "project_step", "erased_position",
]


@dataclass(frozen=True)
class Redex:
    """An applied w-abstraction: ``(\\x:A. body) L args`` at `position`."""

    position: Position
    binder_hint: str
    binder: SetType
    wrapper_count: int
    degree: int | None  # height of the w-abstraction's type; None if unsynthesizable


@dataclass(frozen=True)
class Step:
    kind: str  # "beta" | "i" | "im" | "forget" | "parallel"
    position: Position
    source: object
    target: object


# ---------------------------------------------------------------------------
# Substitution


def _elements_by_type(arg: SetTerm) -> dict[Type, MemTerm]:
    by_type: dict[Type, MemTerm] = {}
    for e in arg.elements:
        t = subterm_type(e)
        if t in by_type:
            raise IllTyped(f"set-term elements share the type {pretty(t)}")
        by_type[t] = e
    return by_type


def substitute(t: MemTerm | SetTerm, name: str, binder: SetType,
               arg: SetTerm, context=None) -> MemTerm | SetTerm:
    """Replace each free ``name^A`` in t by the element of `arg` of type A.

    `arg` must carry exactly the types of `binder` (the occurrence-to-
    element selection is the bijection between a set-term and its
    set-type).  When a context is given, the substituents are checked
    under it first.
    """
    by_type = _elements_by_type(arg)
    if SetType.of(by_type) != binder:
        raise IllTyped(
            f"argument set-type {pretty(SetType.of(by_type))} != binder {pretty(binder)}")
    if context is not None:
        check(context, arg)
    return binding.subst_free(t, name, by_type)


# ---------------------------------------------------------------------------
# Redex enumeration and single steps


def _lam_degree(core: Lam) -> int | None:
    try:
        return type_height(subterm_type(core))
    except IllTyped:
        return None


def redexes(t: MemTerm | SetTerm) -> list[Redex]:
    """All applied w-abstractions, in lexicographic position order.

    Each redex's degree is the height of its w-abstraction's type (None
    when the abstraction does not synthesize).
    """
    found: list[Redex] = []
    for pos, sub in subterms(t):
        if isinstance(sub, App):
            core, wrappers = peel_wrappers(sub.fun)
            if isinstance(core, Lam):
                found.append(Redex(pos, core.hint, core.binder,
                                   len(wrappers), _lam_degree(core)))
    return found


def i_redexes(t: MemTerm | SetTerm) -> list[Redex]:
    """Redexes with no wrappers between abstraction and argument."""
    return [r for r in redexes(t) if r.wrapper_count == 0]


def _is_redex(sub, calculus: str) -> bool:
    match calculus:
        case "beta":
            return isinstance(sub, UApp) and isinstance(sub.fun, ULam)
        case "i":
            return isinstance(sub, App) and isinstance(sub.fun, Lam)
        case "im":
            return isinstance(sub, App) and isinstance(peel_wrappers(sub.fun)[0], Lam)
    raise ValueError(f"calculus must be beta, i, or im, not {calculus!r}")


def redex_positions(t, calculus: str) -> list[Position]:
    """Positions of the redexes a step of `calculus` may contract, in
    lexicographic order (no degrees are computed)."""
    return [pos for pos, sub in subterms(t) if _is_redex(sub, calculus)]


def _split_redex(t, pos: Position) -> tuple[Lam, WrapperList, SetTerm]:
    node = subterm_at(t, pos)
    if not isinstance(node, App):
        raise NotARedex(f"no application at {list(pos)}")
    core, wrappers = peel_wrappers(node.fun)
    if not isinstance(core, Lam):
        raise NotARedex(f"function part at {list(pos)} is not a w-abstraction")
    return core, wrappers, node.arg


def _contract(core: Lam, arg: SetTerm) -> MemTerm:
    by_type = _elements_by_type(arg)
    if SetType.of(by_type) != core.binder:
        raise IllTyped(
            f"argument set-type does not match the binder {pretty(core.binder)}")
    return open_term(core.body, by_type)


def step_i(t: MemTerm | SetTerm, pos: Position) -> MemTerm | SetTerm:
    """Contract the redex at pos, erasing the argument's unused elements."""
    if not is_wrapper_free(t):
        raise IllTyped("plain reduction is defined on wrapper-free terms")
    core, wrappers, arg = _split_redex(t, pos)
    if wrappers:
        raise NotARedex(f"redex at {list(pos)} is wrapped")
    return replace_at(t, pos, _contract(core, arg))


def step_im(t: MemTerm | SetTerm, pos: Position) -> MemTerm | SetTerm:
    """Contract the redex at pos, recording the argument in a wrapper."""
    core, wrappers, arg = _split_redex(t, pos)
    contracted = Wrap(_contract(core, arg), arg)
    return replace_at(t, pos, apply_wrappers(contracted, wrappers))


def corresponding_step(t: MemTerm | SetTerm, pos: Position) -> MemTerm | SetTerm:
    """The memory step contracting the same redex as step_i(t, pos).

    Differs from the plain step only by the recorded wrapper: it
    forgetful-reduces to step_i(t, pos) in exactly one step.
    """
    if not is_wrapper_free(t):
        raise IllTyped("corresponding steps start from wrapper-free terms")
    return step_im(t, pos)


def step(t, pos: Position, calculus: str):
    """One step of `calculus` ("beta", "i" or "im") at pos."""
    match calculus:
        case "beta":
            return beta_step(t, pos)
        case "i":
            return step_i(t, pos)
        case "im":
            return step_im(t, pos)
    raise ValueError(f"calculus must be beta, i, or im, not {calculus!r}")


def normalize(t, calculus: str, innermost: bool, max_steps: int):
    """Reduce by the leftmost-innermost or leftmost-outermost redex until
    none is left; returns (normal form, steps taken).

    Raises FuelExhausted when the normal form is more than `max_steps`
    steps away.
    """
    steps = 0
    while found := redex_positions(t, calculus):
        if steps >= max_steps:
            raise FuelExhausted(f"no normal form within {max_steps} steps")
        t = step(t, _leftmost_innermost(found) if innermost else found[0], calculus)
        steps += 1
    return t, steps


def _leftmost_innermost(found: list[Position]) -> Position:
    # In lexicographic order a position's extensions follow it directly,
    # so it is innermost when its successor does not extend it.
    for pos, nxt in zip(found, found[1:]):
        if nxt[:len(pos)] != pos:
            return pos
    return found[-1]


def forgetful_reducts(t: MemTerm | SetTerm) -> list[tuple[Position, MemTerm | SetTerm]]:
    """All ways to drop one wrapper node (with its payload), by position."""
    return [(pos, replace_at(t, pos, sub.head))
            for pos, sub in subterms(t) if isinstance(sub, Wrap)]


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
    redex keeps its argument as a wrapper; a plain one erases it.
    """
    def dev(node):
        if not isinstance(node, App):
            return map_children(node, dev)
        core, wrappers = peel_wrappers(node.fun)
        arg = dev(node.arg)
        if isinstance(core, Lam) and (calculus == "im" or not wrappers) and contract(core):
            contracted = open_term(dev(core.body), _elements_by_type(arg))
            if calculus == "i":
                return contracted
            return apply_wrappers(Wrap(contracted, arg), tuple(dev(p) for p in wrappers))
        fun = dev(node.fun)
        return node if fun is node.fun and arg is node.arg else App(fun, arg)
    return dev(t)


def complete_development(t: MemTerm | SetTerm, calculus: str = "im"):
    """Simultaneous contraction of every visible redex."""
    _check_calculus(calculus)
    if calculus == "i" and not is_wrapper_free(t):
        raise IllTyped("plain development is defined on wrapper-free terms")
    return develop(t, lambda core: True, calculus)


def parallel_reducts(t: MemTerm | SetTerm, calculus: str = "im") -> frozenset:
    """All one-parallel-step reducts: each redex contracted or not."""
    _check_calculus(calculus)
    if calculus == "i" and not is_wrapper_free(t):
        raise IllTyped("plain parallel reduction is defined on wrapper-free terms")
    return _par_reducts(t, calculus, {})


def _par_reducts(t, calculus: str, memo: dict) -> frozenset:
    if t in memo:
        return memo[t]
    kid_choices = [_par_reducts(c, calculus, memo) for c in children(t)]
    out = {rebuild(t, kids) for kids in product(*kid_choices)}
    core, wrappers = peel_wrappers(t.fun) if isinstance(t, App) else (None, ())
    if isinstance(core, Lam) and (calculus == "im" or not wrappers):
        wrapper_choices = list(product(*(_par_reducts(p, calculus, memo) for p in wrappers)))
        for b in _par_reducts(core.body, calculus, memo):
            for a in _par_reducts(t.arg, calculus, memo):
                contracted = open_term(b, _elements_by_type(a))
                if calculus == "i":
                    out.add(contracted)
                else:
                    out.update(apply_wrappers(Wrap(contracted, a), ws) for ws in wrapper_choices)
    memo[t] = result = frozenset(out)
    return result


def par_reduces(t, s, calculus: str = "im") -> bool:
    """Whether s is reachable from t in one parallel step."""
    return s in parallel_reducts(t, calculus)


def random_parallel_reduct(t, rng: random.Random, calculus: str = "im"):
    """One parallel reduct sampled by a fair coin at every redex."""
    _check_calculus(calculus)
    return develop(t, lambda core: rng.random() < 0.5, calculus)


# ---------------------------------------------------------------------------
# Untyped beta reduction


def beta_redexes(m: UntypedTerm) -> list[Position]:
    return redex_positions(m, "beta")


def beta_step(m: UntypedTerm, pos: Position) -> UntypedTerm:
    node = subterm_at(m, pos)
    if not (isinstance(node, UApp) and isinstance(node.fun, ULam)):
        raise NotARedex(f"no beta redex at {list(pos)}")
    return replace_at(m, pos, uopen(node.fun.body, node.arg))


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
    current: MemTerm = t
    steps: list[Step] = []
    while not refines(current, n):
        q = _residual_position(current, m, n, pos, ())
        assert q is not None, "mixed state without a remaining redex copy"
        nxt = step_i(current, q)
        steps.append(Step("i", q, current, nxt))
        current = nxt
    assert steps, "a beta step must have at least one copy to contract"
    return n, current, steps


def _residual_position(sub, m: UntypedTerm, n: UntypedTerm,
                       bpos: Position, at: Position) -> Position | None:
    """First (in canonical order) uncontracted copy of the redex.

    `sub` refines m except that some copies of the redex at bpos are
    already contracted toward n; returns None when none remain.
    """
    if bpos == ():
        if refines(sub, n):
            return None
        return at
    match m, n:
        case (ULam(_, mbody), ULam(_, nbody)):
            return _residual_position(sub.body, mbody, nbody, bpos[1:], at + (0,))
        case (UApp(mfun, marg), UApp(nfun, narg)):
            if bpos[0] == 0:
                return _residual_position(sub.fun, mfun, nfun, bpos[1:], at + (0,))
            for i, e in enumerate(sub.arg.elements):
                if refines(e, narg):
                    continue
                q = _residual_position(e, marg, narg, bpos[1:], at + (1 + i,))
                if q is not None:
                    return q
            return None
    raise AssertionError("redex path does not match the untyped term")


def erased_position(t: MemTerm, pos: Position) -> Position:
    """Map a position of a wrapper-free term to its erasure's position."""
    out: list[int] = []
    here = t
    for i in pos:
        match here:
            case Lam(_, _, body) if i == 0:
                out.append(0)
                here = body
            case App(fun, _) if i == 0:
                out.append(0)
                here = fun
            case App(_, arg) if 1 <= i <= len(arg.elements):
                out.append(1)
                here = arg.elements[i - 1]
            case _:
                raise ValueError(f"position {list(pos)} does not erase")
    return tuple(out)


def project_step(t: MemTerm, s: MemTerm, pos: Position, budget: int | None = None
                 ) -> tuple[UntypedTerm, MemTerm, list[Step]]:
    """Project the step t -> s at pos to a beta step on the erasure.

    Returns (beta reduct N of erase(t), a term s' with s ->* s' and
    refines(s', N), and the completing steps from s).  The completion is
    found by breadth-first search over plain reduction, smallest witness
    first; `budget` caps the number of explored terms.
    """
    m = typecheck.erase(t)
    if step_i(t, pos) != s:
        raise ValueError("s is not the step of t at pos")
    bpos = erased_position(t, pos)
    n = beta_step(m, bpos)

    if budget is None:
        copies = sum(1 for r in i_redexes(s) if _try_erased(s, r.position) == bpos)
        budget = (1 + copies) * term_size(s) + term_size(s)

    explored = 0
    seen = {s}
    queue: deque[tuple[MemTerm, tuple[Step, ...]]] = deque([(s, ())])
    while queue:
        current, steps = queue.popleft()
        explored += 1
        if refines(current, n):
            return n, current, list(steps)
        if explored >= budget:
            break
        for r in i_redexes(current):
            nxt = step_i(current, r.position)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, steps + (Step("i", r.position, current, nxt),)))
    raise SearchBudgetExceeded(
        f"no completion within {budget} explored terms")


def _try_erased(t: MemTerm, pos: Position) -> Position | None:
    try:
        return erased_position(t, pos)
    except ValueError:
        return None
