"""Brute-force ground truth: reduction graphs, normal forms, SN checks,
and the constructive typing of strongly normalizing untyped terms.

Everything here is budgeted exploration or plain recursion over the
inductive structure of strongly normalizing terms (a term is either a
variable applied to strongly normalizing arguments, an abstraction with
a strongly normalizing body, or a head redex whose contractum is
strongly normalizing, and whose argument is too when the redex erases
it).  `infer_sn` follows that structure to build an annotated
refinement of any strongly normalizing untyped term, re-checking its
own output on every call.  A head redex's argument is inferred on its
own only under a vacuous binder: when the bound variable occurs, the
argument's copies in the contractum are typed there, and they stand
for it (subject expansion).  That skips no check: every result is
re-verified, and a typed refinement is strongly normalizing.  It
infers under a binder without naming the bound variable (locally
nameless style): a body is inferred as the open term it is and its
bound variables stay indices, so a result is wrapped as it is and the
typings and erasures cached on its nodes are reused; a binder's
set-type and the root's context are read off the term it builds.  It
runs on the trampoline `syntax.run`, so only its fuel bounds its depth.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import NamedTuple

from .binding import close_term, locally_closed, open_term, shift, uopen
from .errors import (
    CycleDetected, FuelExhausted, IllTyped, NotSNWithinFuel,
)
from .syntax import (
    App, Arrow, Base, BoundVar, Lam, MemTerm, Position, SetTerm, SetType,
    Type, UApp, UBoundVar, ULam, UntypedTerm, UVar, Var, pretty, run,
)
from .reduction import has_redex, normalize, reducts, require_plain
from .typecheck import (
    TypingContext, binder_types, check, minimal_context, refines, subterm_type,
)

__all__ = [
    "Fuel", "ReductionGraph", "InferredTyping",
    "explore", "normal_form", "longest_chain", "is_sn",
    "head_subject_expansion", "infer_sn",
    "graph_to_dot", "graph_to_json_dict",
]


class Fuel(NamedTuple):
    max_nodes: int = 10_000
    max_depth: int = 10_000


DEFAULT_FUEL = Fuel()


class ReductionGraph(NamedTuple):
    calculus: str
    nodes: tuple
    edges: tuple[tuple[int, Position, int], ...]
    truncated: bool
    root: int = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def explore(t, calculus: str, fuel: Fuel = DEFAULT_FUEL) -> ReductionGraph:
    """Breadth-first closure of t under single steps, up to fuel.

    Nodes are terms (alpha-variants collapse by the nameless
    representation); truncation is flagged, never raised.  A graph is
    truncated when a node with a redex lies at fuel.max_depth, where it
    is not expanded, or when a new reduct would exceed fuel.max_nodes; a
    normal form at the depth limit leaves the graph complete.  Each node
    is stepped by `reduction.reducts`, with one dict for the whole call
    that maps each stepped node's identity to its reducts: a reduct
    shares its untouched subterms with its source, so a subterm met in
    many nodes is searched, rebuilt and contracted once.  The dict dies
    with the call.
    """
    index = {t: 0}
    nodes = [t]
    edges: list[tuple[int, Position, int]] = []
    memo: dict = {}
    queue = deque([(0, 0)])
    truncated = False
    while queue:
        i, depth = queue.popleft()
        if not has_redex(nodes[i], calculus):
            continue
        if depth >= fuel.max_depth:
            truncated = True
            continue
        if i == 0:
            require_plain(t, calculus)  # checked once: steps keep the precondition
        for pos, nxt in reducts(nodes[i], calculus, memo):
            j = index.get(nxt)
            if j is None:
                if len(nodes) >= fuel.max_nodes:
                    truncated = True
                    continue
                j = len(nodes)
                index[nxt] = j
                nodes.append(nxt)
                queue.append((j, depth + 1))
            edges.append((i, pos, j))
    return ReductionGraph(calculus, tuple(nodes), tuple(edges), truncated)


def normal_form(t, calculus: str, fuel: Fuel = DEFAULT_FUEL):
    """Iterate leftmost-outermost steps to a redex-free term, at most
    fuel.max_depth of them."""
    return normalize(t, calculus, fuel.max_depth)[0]


def _longest_paths(graph: ReductionGraph) -> list[int] | None:
    """Length of the longest path from each node; None on a cycle."""
    out: list[list[int]] = [[] for _ in graph.nodes]
    for i, _, j in graph.edges:
        out[i].append(j)
    unseen, on_stack = -1, -2
    longest = [unseen] * len(graph.nodes)
    for start in range(len(graph.nodes)):
        if longest[start] != unseen:
            continue
        longest[start] = on_stack
        stack = [(start, iter(out[start]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if longest[nxt] == on_stack:
                    return None
                if longest[nxt] == unseen:
                    longest[nxt] = on_stack
                    stack.append((nxt, iter(out[nxt])))
                    break
            else:
                stack.pop()
                longest[node] = max((1 + longest[j] for j in out[node]), default=0)
    return longest


def longest_chain(t, calculus: str, fuel: Fuel = DEFAULT_FUEL) -> int:
    """Length of the longest reduction sequence from t."""
    graph = explore(t, calculus, fuel)
    if graph.truncated:
        raise FuelExhausted(f"graph exceeds {fuel.max_nodes} nodes")
    longest = _longest_paths(graph)
    if longest is None:
        raise CycleDetected("the reduction graph has a cycle")
    return longest[graph.root]


def is_sn(m: UntypedTerm, fuel: Fuel = DEFAULT_FUEL) -> str:
    """"yes" if the beta graph closes acyclically within fuel, "no" if a
    cycle is reachable, "unknown" on truncation."""
    graph = explore(m, "beta", fuel)
    if _longest_paths(graph) is None:
        return "no"
    return "unknown" if graph.truncated else "yes"


# ---------------------------------------------------------------------------
# Typability of strongly normalizing terms


def head_subject_expansion(body: MemTerm, name: str, binder: SetType,
                           arg: SetTerm, args: list[SetTerm],
                           context: TypingContext) -> MemTerm:
    """Reassemble ``(\\name:binder. body) arg args...`` and re-check it.

    The reassembled application must check under the context, and have
    the type of the substituted form ``body{name := arg} args...``
    (head subject expansion), which is verified rather than trusted.
    Every free occurrence of the substituted form occurs in the
    reassembled term, so the one check covers both.
    """
    expanded = _expand(close_term(body, name), name, binder, arg, args)
    check(context, expanded)
    return expanded


def _expand(body: MemTerm, hint: str, binder: SetType, arg: SetTerm,
            args: list[SetTerm], expected: Type | None = None) -> MemTerm:
    """head_subject_expansion on the nameless body of the abstraction,
    without the context: the terms may be open.  `expected` is the type
    of the substituted form when the caller has already verified one.
    """
    if expected is None:
        substituted = open_term(body, {subterm_type(e): e for e in arg.elements})
        for a in args:
            substituted = App(substituted, a)
        expected = subterm_type(substituted)
    expanded: MemTerm = App(Lam(hint, binder, body), arg)
    for a in args:
        expanded = App(expanded, a)
    actual = subterm_type(expanded)
    if actual != expected:
        raise IllTyped(
            f"expansion changed the type: {pretty(expected)} -> {pretty(actual)}")
    return expanded


class InferredTyping(NamedTuple):
    term: MemTerm
    context: TypingContext
    type_: Type


def infer_sn(m: UntypedTerm, fuel: Fuel = DEFAULT_FUEL) -> InferredTyping:
    """Type a strongly normalizing untyped term by its SN structure.

    Produces an annotated refinement together with a context and type it
    checks at.  Head redexes are handled by inferring the contractum,
    un-substituting the argument copies (same-typed copies unified to
    one representative) and rebuilding through head subject expansion.
    The copies typed inside the contractum stand for the argument, so
    the argument is inferred on its own only when it has no copy, under
    a vacuous binder; that is where a non-terminating argument such as
    ``(\\x. y) Omega`` still runs out of fuel.  Skipping the other
    inference loses no soundness: the reassembled redex is re-verified
    like every result, and a typed refinement is strongly normalizing.
    Bound variables stay de Bruijn indices: a subterm under binders is
    inferred as it is, open, so an abstraction takes its body's result
    as it is, and no variable is named.  As the term is its own typing
    derivation, a binder's set-type is read off its body
    (`binder_types`) and the context off the root (`minimal_context`).
    Every result, open ones included, is re-verified before it is
    returned: it refines its input and has the type inferred for it.
    Fresh base types b0, b1, ... are drawn deterministically per run;
    each call spends one unit of fuel.max_nodes.  The input must be
    locally closed.
    """
    if not locally_closed(m):
        raise ValueError("inference input must be locally closed")
    # Drawn from a plain counter at each site: a suspended generator
    # here would sit in the reference cycle infer/head_redex form, and
    # the cyclic collector would resume it whenever it next ran.
    bases = count()
    calls = iter(range(fuel.max_nodes))

    def infer(m):
        """(term, type) of the possibly open m."""
        if next(calls, None) is None:
            raise NotSNWithinFuel("inference fuel exhausted")
        head, args = _spine(m)
        kind = type(head)
        if kind is UVar or kind is UBoundVar:
            inferred = []
            for a in args:
                inferred.append((yield infer(a)))
            type_: Type = Base(f"b{next(bases)}")
            head_type = type_
            for _, sub_type in reversed(inferred):
                head_type = Arrow(SetType.of([sub_type]), head_type)
            if kind is UVar:
                term: MemTerm = Var(head.name, head_type)
            else:
                term = BoundVar(head.index, head_type)
            for sub_term, _ in inferred:
                term = App(term, SetTerm.of([sub_term]))
        elif kind is ULam and not args:
            sub_term, sub_type = yield infer(head.body)
            binder = binder_types(sub_term)
            if not binder.elements:  # a vacuous binder must be non-empty
                binder = SetType.of([Base(f"b{next(bases)}")])
            term, type_ = Lam(head.hint, binder, sub_term), Arrow(binder, sub_type)
        elif kind is ULam:
            term, type_ = yield from head_redex(head.hint, head.body, args[0], args[1:])
        else:
            raise TypeError(f"not an untyped term: {m!r}")
        if not refines(term, m):
            raise AssertionError("inference produced a non-refinement")
        checked = subterm_type(term)
        if checked != type_:
            raise AssertionError("inference produced an ill-typed term")
        # Return the fold's own type object: the type built around it one
        # return up then shares its key, and that comparison short-cuts on
        # identity here.
        return term, checked

    def head_redex(hint, body, arg, rest):
        contractum = uopen(body, arg)
        for a in rest:
            contractum = UApp(contractum, a)
        whole_term, whole_type = yield infer(contractum)

        # Split the inferred term along the argument spine.
        spine_args: list[SetTerm] = []
        head_term = whole_term
        for _ in rest:
            assert isinstance(head_term, App)
            spine_args.append(head_term.arg)
            head_term = head_term.fun
        spine_args.reverse()

        copies: list[tuple[Type, MemTerm]] = []
        unsubstituted = yield _unsubstitute(head_term, body, 0, copies)
        by_type: dict[Type, MemTerm] = {}
        if copies:
            for copy_type, copy in copies:
                if copy_type not in by_type or copy.key < by_type[copy_type].key:
                    by_type[copy_type] = copy
            binder = SetType.of(by_type)
            substituents = SetTerm.of(by_type.values())
        else:  # a vacuous binder: the argument is typed on its own
            arg_term, arg_type = yield infer(arg)
            binder = SetType.of([arg_type])
            substituents = SetTerm.of([arg_term])

        # Where every copy is its type's representative, the substituted
        # form is whole_term, whose type is already verified; otherwise
        # unifying same-typed copies changed it, and it is re-checked.
        # Head subject expansion re-checks the reassembled term.
        unified = all(copy == by_type[copy_type] for copy_type, copy in copies)
        expanded = _expand(unsubstituted, hint, binder, substituents, spine_args,
                           whole_type if unified else None)
        return expanded, whole_type

    term, type_ = run(infer(m))
    return InferredTyping(term, minimal_context(term), type_)


def _spine(m: UntypedTerm) -> tuple[UntypedTerm, list[UntypedTerm]]:
    args: list[UntypedTerm] = []
    while isinstance(m, UApp):
        args.append(m.arg)
        m = m.fun
    return m, list(reversed(args))


def _unsubstitute(term, pattern: UntypedTerm, depth: int, copies: list):
    """Undo ``uopen`` on `term`, a refinement of an opened `pattern`.

    At every occurrence of the opened binder (index `depth`) in
    `pattern`, the subterm of `term` there becomes an occurrence of it
    annotated with the subterm's type; the subterm, moved out from
    under the `depth` binders above it, is appended to copies with that
    type, in term order.  Indices pointing past the opened binder, which
    the opening lowered, go back up by one.  A subtree of `pattern`
    where neither occurs is returned as it is in `term`.
    """
    if pattern.loose < depth:
        return term
    kind = type(pattern)
    if kind is UBoundVar:
        if pattern.index == depth:
            copy_type = subterm_type(term)
            copies.append((copy_type, shift(term, -depth)))
            return BoundVar(depth, copy_type)
        return BoundVar(pattern.index, term.annot)
    if kind is ULam:
        assert isinstance(term, Lam)
        body = yield _unsubstitute(term.body, pattern.body, depth + 1, copies)
        return Lam(term.hint, term.binder, body)
    if kind is UApp:
        assert isinstance(term, App)
        fun = yield _unsubstitute(term.fun, pattern.fun, depth, copies)
        elements = []
        for e in term.arg.elements:
            elements.append((yield _unsubstitute(e, pattern.arg, depth, copies)))
        return App(fun, SetTerm.of(elements))
    raise TypeError(f"not an untyped term: {pattern!r}")


# ---------------------------------------------------------------------------
# Graph export


def graph_to_dot(graph: ReductionGraph) -> str:
    lines = ["digraph reduction {", "  rankdir=TB;"]
    for i, node in enumerate(graph.nodes):
        label = pretty(node).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, pos, j in graph.edges:
        label = ",".join(map(str, pos))
        lines.append(f'  n{i} -> n{j} [label="[{label}]"];')
    if graph.truncated:
        lines.append('  truncated [shape=plaintext, label="(truncated)"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(graph: ReductionGraph) -> dict:
    return {
        "formatVersion": 1,
        "calculus": graph.calculus,
        "root": graph.root,
        "truncated": graph.truncated,
        "nodeCount": graph.node_count,
        "nodes": [pretty(n) for n in graph.nodes],
        "edges": [
            {"from": i, "position": list(pos), "to": j}
            for i, pos, j in graph.edges
        ],
    }
