"""The four workloads: inputs made from a seed, units of timed calls, checks.

Each ``build_*`` function receives the freshly imported setlam package,
the run's seed and a scratch directory, generates and parses its inputs
and returns ``(units, warmup)``: the units of one round in order, and
the few units that make the untimed warm-up pass.  A unit is a callable
taking the harness; every call into setlam goes through ``h.op(span,
fn, *args, check=...)``, which counts, times and traces it and defers
its correctness check until the unit's clock has stopped.

Seeds rename free variables and binder hints and reorder the inputs;
they never change the shape of a term.  Random corpora of different
shapes differ in cost by several percent from seed to seed (measured:
4% between quartiles for 440 terms), more than a regression bound can
absorb, so the random shapes come from the fixed POOL_SEED.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import oracles as O

POOL_SEED = 1
# Free names sort after the variables v0, v1, ... that infer_sn opens,
# and a seed's draw is sorted, so that renaming keeps every order among
# names: the program then does the same work, call for call, for every
# seed.
NAME_POOL = ("w", "x", "y", "z", "wa", "xa", "ya", "za")
HINT_POOL = ("f", "g", "h", "n", "m", "s")

# Sub-second single calls: at most about 100 annotated nodes, W <= 82.
CHURCH_PAIRS = ((2, 2), (4, 1), (1, 8), (2, 3), (3, 2), (2, 4))

CORPUS_TERMS = 200
CORPUS_MAX_BETA_NODES = 9

GRAPH_CHURCH = ((1, 2), (2, 1), (2, 2), (3, 1))
GRAPH_POOL_TERMS = 6
GRAPH_BETA_NODES = (30, 200)
IM_SMALL_FUEL = 20  # below every beta graph of the pool: must truncate

CLI_DEEP_BINDERS = 1000

# Worked fixtures: the two wrapper goldens, the figure's start term, the
# duplicated-argument example before and after its argument step, and
# self-application.
_IDENT_A = "\\x:{a}. x^a"
_IDENT_AA = "\\x:{a -> a}. x^(a -> a)"
_IDENT_AAA = "\\x:{(a -> a) -> a -> a}. x^((a -> a) -> a -> a)"
_I_B = "\\u:{b}. u^b"
_I_BB = "\\u:{b -> b}. u^(b -> b)"
_II_B = f"(\\u:{{b -> b}}. u^(b -> b)) {{{_I_B}}}"
_II_BB = f"(\\u:{{(b -> b) -> b -> b}}. u^((b -> b) -> b -> b)) {{{_I_BB}}}"
_DUP_HEAD = "(\\x:{(b -> b) -> b -> b, b -> b}. x^((b -> b) -> b -> b) {x^(b -> b)})"
_SELF_APPLICATION = "\\x:{{a,b}->c, a, b}. x^({a,b}->c) {x^a, x^b}"
FIGURE_START = (
    "(\\x:{(a -> a) -> a -> a, a -> a}. x^((a -> a) -> a -> a) {x^(a -> a)})"
    f" {{({_IDENT_AAA}) {{{_IDENT_AA}}}, ({_IDENT_AA}) {{{_IDENT_A}}}}}"
)
DUPLICATING = f"{_DUP_HEAD} {{{_II_BB}, {_II_B}}}"
FIXTURES = (
    "(\\x:{a}.y^b) {(\\x:{b}.z^a) w^b}",
    "((\\x:{a}.\\y:{b}.x^a) z^a) w^b",
    FIGURE_START,
    DUPLICATING,
    f"{_DUP_HEAD} {{{_I_BB}, {_I_B}}}",
    _SELF_APPLICATION,
    f"({_SELF_APPLICATION}) {{y^({{a,b}}->c), y^a, y^b}}",
    "(\\x:{a}.x^a) {y^a}",
    "x^({a,b}->c) {x^a, x^b}",
)
# Fixtures whose whole im graph is small: (fixture, fuels of the
# deliberately bounded explorations next to the unbounded one).
IM_FIXTURES = ((FIGURE_START, (20, 40)), (DUPLICATING, (20, 40)))


# ---------------------------------------------------------------------------
# Reading setlam's objects structurally, without its eraser


def erase_obj(t):
    """Untyped nameless form of a setlam term: types and wrappers dropped."""
    kind = type(t).__name__
    if kind in ("Var", "UVar"):
        return ("v", t.name)
    if kind in ("BoundVar", "UBoundVar"):
        return ("b", t.index)
    if kind in ("Lam", "ULam"):
        return ("l", erase_obj(t.body))
    if kind == "UApp":
        return ("a", erase_obj(t.fun), erase_obj(t.arg))
    if kind == "App":
        elements = [erase_obj(e) for e in t.arg.elements]
        if any(e != elements[0] for e in elements):
            raise ValueError("argument set is not uniform")
        return ("a", erase_obj(t.fun), elements[0])
    if kind == "Wrap":
        return erase_obj(t.head)
    raise TypeError(f"not a term: {t!r}")


def _names(rng: random.Random, count: int) -> list[str]:
    return sorted(rng.sample(NAME_POOL, count))


def _hints(rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.sample(HINT_POOL, 3))


def _random_pool(accept):
    """Random terms from the fixed pool seed that `accept` keeps, lazily."""
    rng = random.Random(POOL_SEED)
    seen = set()
    while True:
        m = O.random_untyped(rng, rng.randint(2, 12))
        if m not in seen:
            seen.add(m)
            verdict = accept(m)
            if verdict is not None:
                yield m, verdict


def _renamer(rng: random.Random):
    mapping = dict(zip(O.FREE_NAMES, _names(rng, len(O.FREE_NAMES))))
    return lambda m: O.rename_free(m, mapping)


# ---------------------------------------------------------------------------
# church


def build_church(S, seed: int, scratch: Path):
    rng = random.Random(seed)
    fuel = S.Fuel(max_nodes=20_000, max_depth=20_000)
    y, z = _names(rng, 2)
    hints = _hints(rng)
    units = []
    for m, n in CHURCH_PAIRS:
        untyped = O.church_application(m, n, y, z)
        units.extend(_church_units(S, fuel, untyped, S.parse_untyped(O.show(untyped, hints)),
                                   n ** m, y, z))
    return units, units[:5]


def _church_units(S, fuel, untyped, parsed, copies: int, y: str, z: str):
    st = {}

    def is_result(t):
        return O.count_spine(erase_obj(t), z, y) == copies

    def typing(h):
        inferred = h.op("oracle.infer_sn", S.infer_sn, parsed, fuel,
                        check=lambda r: erase_obj(r.term) == untyped)
        h.op("typecheck.check", S.check, inferred.context, inferred.term,
             check=lambda ty: ty == inferred.type_)
        st["t"] = inferred.term

    def weigh(h):
        w = h.op("measure.W", S.W, st["t"], check=lambda w: w > 0)
        h.op("measure.measure_report", S.measure_report, st["t"],
             check=lambda r: r.measure == w)
        st["W"] = w

    def normalize(h):
        h.op("oracle.normal_form", S.normal_form, st["t"], "i", fuel, check=is_result)

    def first_step(h):
        t = st["t"]
        found = h.op("reduction.i_redexes", S.i_redexes, t, check=lambda rs: len(rs) > 0)
        reduct = h.op("reduction.step_i", S.step_i, t, found[0].position)
        h.op("measure.W", S.W, reduct, check=lambda w: w < st["W"])

    def leftmost(h):
        t, steps = st["t"], 0
        while True:
            found = h.op("reduction.i_redexes", S.i_redexes, t)
            if not found:
                break
            t = h.op("reduction.step_i", S.step_i, t, found[0].position)
            steps += 1
        h.check("leftmost i steps <= W, ending at the normal form",
                lambda: steps <= st["W"] and is_result(t))

    return [typing, weigh, normalize, first_step, leftmost]


# ---------------------------------------------------------------------------
# corpus


@functools.cache
def corpus_pool():
    """The fixed small strongly normalizing terms of the corpus workload.

    Kept: beta graphs of at most CORPUS_MAX_BETA_NODES nodes, decided by
    the independent explorer.  Left out: a duplicator applied to an
    abstraction, whose wide typings make a single term cost as much as
    fifty others and so no longer a small term.
    """
    def accept(m):
        if O.applies_duplicator_to_abstraction(m):
            return None
        nodes, verdict = O.explore_beta(m, CORPUS_MAX_BETA_NODES)
        return nodes if verdict == "yes" else None

    pool = _random_pool(accept)
    return tuple(next(pool)[0] for _ in range(CORPUS_TERMS))


def build_corpus(S, seed: int, scratch: Path):
    rng = random.Random(seed)
    fuel = S.Fuel(max_nodes=20_000, max_depth=20_000)
    rename, hints = _renamer(rng), _hints(rng)
    items = []
    for m in corpus_pool():
        m = rename(m)
        items.append((m, S.parse_untyped(O.show(m, hints)), None, O.beta_normal_form(m)))
    for text in FIXTURES:
        items.append((None, None, S.parse_term(text),
                      O.beta_normal_form(O.erase_annotated(text))))
    rng.shuffle(items)
    units = [_corpus_unit(S, fuel, *item) for item in items]
    return units, units[:3]


def _corpus_unit(S, fuel, untyped, parsed, fixture, normal):
    def unit(h):
        if fixture is None:
            t = h.op("oracle.infer_sn", S.infer_sn, parsed, fuel,
                     check=lambda r: erase_obj(r.term) == untyped).term
        else:
            t = fixture
        text = h.op("syntax.pretty", S.pretty, t)
        h.op("syntax.parse_term", S.parse_term, text, check=lambda r: r == t)
        ty = h.op("typecheck.synthesize_type", S.synthesize_type, t)
        h.op("typecheck.minimal_context", S.minimal_context, t)
        same_type = lambda r: r == ty  # noqa: E731
        for r in h.op("reduction.redexes", S.redexes, t):
            if r.wrapper_count == 0:
                reduct = h.op("reduction.step_i", S.step_i, t, r.position)
                h.op("typecheck.synthesize_type", S.synthesize_type, reduct, check=same_type)
            reduct = h.op("reduction.step_im", S.step_im, t, r.position)
            h.op("typecheck.synthesize_type", S.synthesize_type, reduct, check=same_type)
        w = h.op("measure.W", S.W, t)
        h.op("oracle.normal_form", S.normal_form, t, "i", fuel,
             check=lambda nf: erase_obj(nf) == normal)
        nf_im = h.op("oracle.normal_form", S.normal_form, t, "im", fuel)
        h.op("measure.simp_full", S.simp_full, t, check=lambda r: r == nf_im)
        h.op("reduction.complete_development", S.complete_development, t)
        h.op("oracle.longest_chain", S.longest_chain, t, "i", fuel, check=lambda c: c <= w)
    return unit


# ---------------------------------------------------------------------------
# graph


@functools.cache
def graph_pool():
    """Fixed pool terms whose beta graphs have 30 to 200 nodes."""
    low, high = GRAPH_BETA_NODES

    def accept(m):
        nodes, verdict = O.explore_beta(m, high)
        return nodes if verdict == "yes" and nodes >= low else None

    pool = _random_pool(accept)
    return tuple(next(pool) for _ in range(GRAPH_POOL_TERMS))


def build_graph(S, seed: int, scratch: Path):
    rng = random.Random(seed)
    fuel = S.Fuel(max_nodes=20_000, max_depth=20_000)
    rename, hints = _renamer(rng), _hints(rng)
    y, z = _names(rng, 2)
    units = []
    for text in FIXTURES:
        m = O.erase_annotated(text)
        units.extend(_graph_units(S, fuel, m, S.parse_untyped(O.show(m, hints)),
                                  S.parse_term(text)))
    for text, fuels in IM_FIXTURES:
        units.append(_im_unit(S, fuel, S.parse_term(text), fuels))
    for m, n in GRAPH_CHURCH:
        untyped = O.church_application(m, n, y, z)
        parsed = S.parse_untyped(O.show(untyped, hints))
        units.extend(_graph_units(S, fuel, untyped, parsed, S.infer_sn(parsed, fuel).term))
    for m, _ in graph_pool():
        m = rename(m)
        parsed = S.parse_untyped(O.show(m, hints))
        units.extend(_graph_units(S, fuel, m, parsed, S.infer_sn(parsed, fuel).term,
                                  truncate_im=True))
    return units, units[:4]


def _graph_units(S, fuel, untyped, parsed, term, truncate_im=False):
    beta_nodes, verdict = O.explore_beta(untyped, fuel.max_nodes)
    if verdict != "yes":
        raise ValueError(f"graph input {O.show(untyped)} is not strongly normalizing")
    normal = O.beta_normal_form(untyped)

    def exported(g):
        return lambda d: (d["formatVersion"] == 1 and d["nodeCount"] == g.node_count
                          and len(d["nodes"]) == g.node_count
                          and len(d["edges"]) == len(g.edges))

    def beta(h):
        g = h.op("oracle.explore", S.explore, parsed, "beta", fuel,
                 check=lambda g: not g.truncated and g.node_count == beta_nodes)
        h.op("oracle.is_sn", S.is_sn, parsed, fuel, check=lambda v: v == "yes")
        h.op("oracle.graph_to_json_dict", S.graph_to_json_dict, g, check=exported(g))

    def plain(h):
        g = h.op("oracle.explore", S.explore, term, "i", fuel, check=lambda g: _one_sink(g, normal))
        h.op("oracle.graph_to_json_dict", S.graph_to_json_dict, g, check=exported(g))
        h.op("oracle.graph_to_dot", S.graph_to_dot, g,
             check=lambda dot: dot.count("\n") == g.node_count + len(g.edges) + 3)

    def chain(h):
        w = h.op("measure.W", S.W, term)
        h.op("oracle.longest_chain", S.longest_chain, term, "i", fuel, check=lambda c: c <= w)

    def bounded_im(h):
        # Every beta reduct is refined by an i reduct and every i reduction
        # lifts to im, so the im graph has at least beta_nodes >
        # IM_SMALL_FUEL nodes: the small fuel must truncate.
        h.op("oracle.explore", S.explore, term, "im", S.Fuel(IM_SMALL_FUEL, fuel.max_depth),
             check=lambda g: g.truncated and g.node_count == IM_SMALL_FUEL)

    return [beta, plain, chain] + ([bounded_im] if truncate_im else [])


def _one_sink(g, normal) -> bool:
    if g.truncated:
        return False
    has_out = {i for i, _, _ in g.edges}
    sinks = [n for i, n in enumerate(g.nodes) if i not in has_out]
    return len(sinks) == 1 and erase_obj(sinks[0]) == normal


def _im_unit(S, fuel, term, fuels):
    def unit(h):
        full = h.op("oracle.explore", S.explore, term, "im", fuel,
                    check=lambda g: not g.truncated)
        for k in fuels:
            h.op("oracle.explore", S.explore, term, "im", S.Fuel(k, fuel.max_depth),
                 check=lambda g, k=k: g.truncated == (full.node_count > k)
                 and g.node_count == min(k, full.node_count))
    return unit


# ---------------------------------------------------------------------------
# cli


def build_cli(S, seed: int, scratch: Path):
    rng = random.Random(seed)
    fuel = S.Fuel(max_nodes=20_000, max_depth=20_000)
    y, z = _names(rng, 2)
    hints = _hints(rng)
    untyped = O.church_application(2, 2, y, z)
    lam_text = O.show(untyped, hints)
    inferred = S.infer_sn(S.parse_untyped(lam_text), fuel)
    derivation = S.derivation_to_json(S.erase_derivation(inferred.term, inferred.context))
    deep = "".join(f"\\x{i}:{{a}}. " for i in range(CLI_DEEP_BINDERS)) + "x0^a"

    scratch.mkdir(parents=True, exist_ok=True)
    files = {"term": "term.txt", "lam": "lam.txt", "deriv": "deriv.json", "deep": "deep.txt"}
    contents = {"term": S.pretty(inferred.term) + "\n", "lam": lam_text + "\n",
                "deriv": json.dumps(derivation) + "\n", "deep": deep + "\n"}
    for key, name in files.items():
        (scratch / name).write_text(contents[key], encoding="utf-8")
    f = {key: str(scratch / name) for key, name in files.items()}

    normal = O.beta_normal_form(untyped)
    beta_nodes, _ = O.explore_beta(untyped, fuel.max_nodes)
    redex_pos = (0, 0)  # the head redex of ((m n) y) z
    reduct = O.step_at(untyped, redex_pos)

    def lines(out):
        return dict(line.split(": ", 1) for line in out.splitlines())

    def trace_ok(d):
        for step in d["steps"]:
            O.erase_annotated(step["result"], uniform=False)  # raises unless it parses
        return d["formatVersion"] == 1

    def chains_ok(out):
        fields = lines(out)
        return fields["verdict"] == "chain <= W" and int(fields["chain"]) <= int(fields["W"])

    def graph_ok(d):
        return d["formatVersion"] == 1 and d["nodeCount"] == len(d["nodes"])

    commands = [
        (["check", f["term"]], lambda out: set(lines(out)) == {"type", "context"}),
        (["erase", f["term"]], lambda out: O.read_untyped(out) == untyped),
        (["decorate", f["deriv"]], lambda out: O.erase_annotated(out) == untyped),
        (["reduce", f["term"], "--calculus=i", "--strategy=leftmost", "--steps=3"],
         _json(lambda d: trace_ok(d) and len(d["steps"]) == 3)),
        # A fixed strategy seed: the run's seed must not change the work.
        (["reduce", f["term"], "--calculus=im", "--strategy=random", "--steps=3",
          "--seed=7"], _json(lambda d: trace_ok(d) and len(d["steps"]) == 3)),
        (["normalize", f["term"], "--calculus=i"],
         lambda out: O.erase_annotated(out.splitlines()[0]) == normal),
        (["measure", f["term"]], _json(lambda d: d["formatVersion"] == 1 and d["W"] > 0)),
        (["simulate", f["term"], f["lam"], "--pos=" + ",".join(map(str, redex_pos))],
         _json(lambda d: d["formatVersion"] == 1
               and O.read_untyped(d["beta"]["result"]) == reduct)),
        (["chains", f["term"], "--fuel=10000"], chains_ok),
        (["infer-sn", f["lam"]],
         lambda out: O.erase_annotated(lines(out)["term"]) == untyped),
        (["graph", f["lam"], "--calculus=beta", "--format=json"],
         _json(lambda d: graph_ok(d) and d["nodeCount"] == beta_nodes)),
        (["graph", f["term"], "--calculus=i", "--format=json"], _json(graph_ok)),
        (["graph", f["term"], "--calculus=i", "--format=dot"],
         lambda out: out.startswith("digraph reduction {") and out.endswith("}\n")),
        # setlam's parser recurses once per binder: this check dies with a
        # RecursionError today, an expected failure counted in `failed`.
        (["check", f["deep"]], lambda out: set(lines(out)) == {"type", "context"}),
    ]
    units = [_cli_unit(argv, ok) for argv, ok in commands]
    units.insert(0, _cli_unit(None, lambda out: out == ""))
    return units, units[:2]


def _json(predicate):
    return lambda out: predicate(json.loads(out))


def _cli_unit(argv, ok):
    """One ``setlam argv`` command, or a bare ``import setlam`` for None."""
    span = "cli.startup" if argv is None else "cli.command"

    def unit(h):
        h.op(span, h.run_setlam, argv, check=ok)
    return unit


# The fixed random pools, drawn before set-up: only the benchmark's own
# explorer runs there, so set-up time does not measure it.
POOLS = {"corpus": corpus_pool, "graph": graph_pool}

WORKLOADS = {
    "church": build_church,
    "corpus": build_corpus,
    "graph": build_graph,
    "cli": build_cli,
}
