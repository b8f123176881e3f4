"""Command-line front end: batch commands over term and derivation files.

Term files hold UTF-8 text in the concrete grammar of `setlam.syntax`;
derivation files hold the JSON schema of `setlam.derivation`.  All JSON
outputs carry a "formatVersion" field and are byte-identical for
identical inputs and flags.  Each command imports the modules it runs
when it runs, since every command starts a fresh interpreter.

Exit codes: 0 ok, 1 parse or read error, 2 type or derivation error or bad
usage, 3 non-uniform term, 4 fuel or SN failure or input nested too
deeply (derivation JSON nested beyond about 20,000 levels), 5 internal
invariant violation (always a bug).
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from . import syntax, typecheck
from .errors import (
    CycleDetected, FuelExhausted, IllTyped, InvalidDerivation,
    InvalidPosition, NotARedex, NotSNWithinFuel, NotUniform, ParseError, SetLamError,
)

def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_pos(text: str) -> tuple[int, ...]:
    text = text.strip().strip("[]")
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidPosition(f"bad position {text!r}") from None


def _count(text: str) -> int:
    """argparse type of --fuel and --steps: a non-negative integer, capped
    at sys.maxsize, which no run reaches and `islice` still accepts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return min(value, sys.maxsize)


def _emit_json(data: dict) -> None:
    import json
    print(json.dumps(data, indent=2))


def _cmd_check(args) -> int:
    term = syntax.parse_term(_read(args.file))
    context = typecheck.minimal_context(term)
    print(f"type: {syntax.pretty(typecheck.synthesize_type(term))}")
    print(f"context: {context if context.entries else '(empty)'}")
    return 0


def _cmd_erase(args) -> int:
    term = syntax.parse_term(_read(args.file))
    typecheck.synthesize_type(term)
    print(syntax.pretty(typecheck.erase(term)))
    return 0


def _cmd_decorate(args) -> int:
    from json import JSONDecodeError
    from . import derivation
    try:
        d = derivation.derivation_from_json(_read(args.file))
    except JSONDecodeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(syntax.pretty(derivation.decorate(d)))
    return 0


def _cmd_reduce(args) -> int:
    import random
    from . import reduction
    from .naming import pretty_all
    term = syntax.parse_term(_read(args.file))
    typecheck.synthesize_type(term)
    rng = random.Random(args.seed)
    choose = next if args.strategy == "leftmost" else lambda sites: rng.choice(list(sites))
    steps = list(islice(reduction.reduction_sequence(term, args.calculus, choose), args.steps))
    source, *results = pretty_all([term, *(current for _, current in steps)])
    _emit_json({
        "formatVersion": 1,
        "source": source,
        "steps": [
            {"kind": args.calculus, "position": list(position), "result": result}
            for (position, _), result in zip(steps, results)
        ],
    })
    return 0


def _cmd_normalize(args) -> int:
    from . import reduction
    term = syntax.parse_term(_read(args.file))
    typecheck.synthesize_type(term)
    normal, count = reduction.normalize(term, args.calculus, args.fuel)
    print(syntax.pretty(normal))
    print(f"steps: {count}")
    return 0


def _cmd_measure(args) -> int:
    from . import measure
    term = syntax.parse_term(_read(args.file))
    _emit_json(measure.measure_report(term).to_json_dict())
    return 0


def _cmd_simulate(args) -> int:
    from . import reduction
    from .naming import pretty_all
    term = syntax.parse_term(_read(args.term_file))
    untyped = syntax.parse_untyped(_read(args.lam_file))
    typecheck.synthesize_type(term)
    erasure = typecheck.erase(term)
    if erasure != untyped:
        raise IllTyped(f"the term erases to {syntax.pretty(erasure)}, not to the untyped term")
    position = _parse_pos(args.pos)
    reduct, final, steps = reduction.simulate_beta(term, untyped, position)
    source, lam, beta, *results = pretty_all([term, untyped, reduct, *(s.target for s in steps)])
    _emit_json({
        "formatVersion": 1,
        "source": source,
        "untyped": lam,
        "beta": {"position": list(position), "result": beta},
        "steps": [
            {"kind": "i", "position": list(s.position), "result": result}
            for s, result in zip(steps, results)
        ],
    })
    return 0


def _cmd_chains(args) -> int:
    from . import measure, oracle
    term = syntax.parse_term(_read(args.file))
    typecheck.synthesize_type(term)
    fuel = oracle.Fuel(max_nodes=args.fuel, max_depth=args.fuel)
    chain = oracle.longest_chain(term, "i", fuel)
    bound = measure.W(term)
    print(f"chain: {chain}")
    print(f"W: {bound}")
    print(f"verdict: {'chain <= W' if chain <= bound else 'BOUND VIOLATED'}")
    return 0


def _cmd_infer_sn(args) -> int:
    from . import oracle
    untyped = syntax.parse_untyped(_read(args.file))
    fuel = oracle.Fuel(max_nodes=args.fuel, max_depth=args.fuel)
    result = oracle.infer_sn(untyped, fuel)
    print(f"term: {syntax.pretty(result.term)}")
    print(f"context: {result.context if result.context.entries else '(empty)'}")
    print(f"type: {syntax.pretty(result.type_)}")
    return 0


def _cmd_graph(args) -> int:
    from . import oracle
    if args.calculus == "beta":
        term = syntax.parse_untyped(_read(args.file))
    else:
        term = syntax.parse_term(_read(args.file))
        typecheck.synthesize_type(term)
    fuel = oracle.Fuel(max_nodes=args.fuel, max_depth=args.fuel)
    graph = oracle.explore(term, args.calculus, fuel)
    if args.format == "dot":
        sys.stdout.write(oracle.graph_to_dot(graph))
    else:
        _emit_json(oracle.graph_to_json_dict(graph))
    return 0


_FILE = ("file", {})
_FUEL = ("--fuel", {"type": _count, "default": 10_000})

# Each command's help line and its arguments, as (name or flag,
# `add_argument` keywords) pairs; command c runs `_cmd_c` ("-" read as "_").
_COMMANDS = {
    "check": ("synthesize a term's type and minimal context", [_FILE]),
    "erase": ("erase a uniform term to its untyped form", [_FILE]),
    "decorate": ("decorate a derivation JSON file into a term", [_FILE]),
    "reduce": ("step a term and emit a JSON trace", [
        _FILE, ("--calculus", {"choices": ["i", "im"], "default": "i"}),
        ("--strategy", {"choices": ["leftmost", "random"], "default": "leftmost"}),
        ("--steps", {"type": _count, "default": 1}), ("--seed", {"type": int, "default": 0})]),
    "normalize": ("reduce to normal form", [
        _FILE, ("--calculus", {"choices": ["i", "im"], "default": "im"}), _FUEL]),
    "measure": ("full-simplification report and W", [_FILE]),
    "simulate": ("replay a beta step inside a refining term", [
        ("term_file", {}), ("lam_file", {}),
        ("--pos", {"required": True, "help": "comma-separated child indices"})]),
    "chains": ("longest chain versus the W bound", [_FILE, _FUEL]),
    "infer-sn": ("type a strongly normalizing untyped term", [_FILE, _FUEL]),
    "graph": ("export the reduction graph", [
        _FILE, ("--calculus", {"choices": ["beta", "i", "im"], "default": "i"}), _FUEL,
        ("--format", {"choices": ["dot", "json"], "default": "json"})]),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named command alone, which
    is all a run of it reads; the usage still lists every command."""
    parser = argparse.ArgumentParser(
        prog="setlam",
        description="Set-annotated lambda calculi: typing, reduction, measures.",
    )
    # argparse names the command argument after an explicit metavar in its
    # errors, so it gets one only where no error can name it.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(run=globals()["_cmd_" + name.replace("-", "_")])
    return parser


@syntax.paused_collector
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, InvalidPosition, OSError, UnicodeDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (IllTyped, InvalidDerivation, NotARedex) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except NotUniform as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except (FuelExhausted, NotSNWithinFuel, CycleDetected) as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 4
    except (SetLamError, AssertionError, ValueError, KeyError, TypeError) as error:
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
