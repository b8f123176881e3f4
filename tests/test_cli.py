"""Command-line behaviors: outputs, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from setlam.cli import main
from setlam import parse_term, parse_untyped, pretty

import corpus
import deep
from deep import shape


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(files, capsys):
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == "type: a\ncontext: y:{a}\n"


def test_check_type_error_exit_2(files, capsys):
    path = files("bad.term", "x^a {y^a}")
    code, _, err = run(capsys, "check", path)
    assert code == 2 and "error" in err


def test_parse_error_exit_1(files, capsys):
    path = files("bad.term", "x^")
    code, _, _ = run(capsys, "check", path)
    assert code == 1


def test_erase_uniform(files, capsys):
    path = files("t.term", corpus.SELF_APPLICATION)
    code, out, _ = run(capsys, "erase", path)
    assert code == 0 and out.strip() == "\\x. x x"


def test_erase_non_uniform_exit_3(files, capsys):
    # typable (distinct element types) but the elements erase differently
    path = files("t.term", "(\\x:{a, c}. x^a) {x^(b -> a) y^b, w^c}")
    code, _, _ = run(capsys, "erase", path)
    assert code == 3


def test_erase_untypable_duplicate_types_exit_2(files, capsys):
    path = files("t.term", "(\\x:{a}. x^a) {x^(a -> a) y^a, x^a}")
    code, _, _ = run(capsys, "erase", path)
    assert code == 2


def test_decorate(files, capsys):
    derivation = {
        "rule": "var", "ctx": {"x": ["a", "b"]}, "term": "x", "type": "b",
    }
    path = files("d.json", json.dumps(derivation))
    code, out, _ = run(capsys, "decorate", path)
    assert code == 0 and out.strip() == "x^b"


def test_decorate_invalid_exit_2(files, capsys):
    derivation = {"rule": "var", "ctx": {"x": ["b"]}, "term": "x", "type": "a"}
    path = files("d.json", json.dumps(derivation))
    code, _, _ = run(capsys, "decorate", path)
    assert code == 2


@pytest.mark.parametrize("text, where", [
    ("{}", "$.rule"),
    ("[]", "$"),
    ('"str"', "$"),
    ('{"rule": "var", "ctx": {"x": "a"}, "term": "x", "type": "a"}', "$.ctx.x"),
], ids=["no-rule", "array", "string", "ctx-string"])
def test_decorate_malformed_json_exit_2(text, where, files, capsys):
    code, out, err = run(capsys, "decorate", files("d.json", text))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid derivation JSON at {where}: expected ")


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("", "Expecting value: line 1 column 1 (char 0)"),
], ids=["open-brace", "empty"])
def test_decorate_not_json_exit_1(text, message, files, capsys):
    code, out, err = run(capsys, "decorate", files("d.json", text))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_decorate_json_nested_too_deeply_exit_4(files, capsys):
    # The decoder runs under a recursion limit of 20,000 levels.
    text = "[" * 30_000 + "]" * 30_000
    code, out, err = run(capsys, "decorate", files("deep.json", text))
    assert (code, out, err) == (4, "", "error: input nested too deeply\n")


@pytest.mark.parametrize("command", ["check", "decorate"])
def test_file_not_utf8_exit_1(command, tmp_path, capsys):
    path = tmp_path / "bytes"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff in position 0")


def test_decorate_many_root_prints_the_set_term(files, capsys):
    derivation = {
        "rule": "many", "ctx": {"x": ["a"]}, "term": "x", "type": ["a"],
        "premises": [{"rule": "var", "ctx": {"x": ["a"]}, "term": "x", "type": "a"}],
    }
    code, out, err = run(capsys, "decorate", files("d.json", json.dumps(derivation)))
    assert (code, out, err) == (0, "{x^a}\n", "")


def test_decorate_deep_binder_chain(files, capsys):
    # The JSON of an n-binder chain's derivation nests 2n levels deep and
    # holds n subjects of up to n binders each, so its size is quadratic:
    # 520 binders nest beyond the interpreter's default recursion limit
    # (1,000) in 3.7 MB.
    from setlam import TypingContext, erase_derivation
    from setlam.derivation import derivation_to_json
    text = "".join(f"\\x{i}:{{a}}. " for i in range(520)) + "x0^a"
    data = derivation_to_json(erase_derivation(parse_term(text), TypingContext()))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5_000)  # the encoder recurses once per level
    try:
        encoded = json.dumps(data)
    finally:
        sys.setrecursionlimit(limit)
    code, out, err = run(capsys, "decorate", files("deep.json", encoded))
    assert (code, err) == (0, "")
    assert out == text + "\n"


def test_reduce_trace_round_trips(files, capsys):
    path = files("t.term", corpus.GOLDEN_ERASING)
    code, out, _ = run(capsys, "reduce", path, "--calculus=im", "--steps=5")
    assert code == 0
    trace = json.loads(out)
    assert trace["formatVersion"] == 1
    assert parse_term(trace["source"]) == parse_term(corpus.GOLDEN_ERASING)
    assert [s["kind"] for s in trace["steps"]] == ["im", "im"]
    assert parse_term(trace["steps"][-1]["result"]) == parse_term("y^b [z^a [w^b]]")


def test_reduce_random_is_seeded_and_deterministic(files, capsys):
    path = files("t.term", corpus.FIGURE_START)
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "reduce", path, "--calculus=im",
                           "--strategy=random", "--steps=3", "--seed=5")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    code, other, _ = run(capsys, "reduce", path, "--calculus=im",
                         "--strategy=random", "--steps=3", "--seed=6")
    assert code == 0  # different seed may differ; both must re-parse
    for payload in (outs.pop(), other):
        for step in json.loads(payload)["steps"]:
            parse_term(step["result"])


def test_normalize(files, capsys):
    path = files("t.term", corpus.GOLDEN_SWAP)
    code, out, _ = run(capsys, "normalize", path, "--calculus=im")
    assert code == 0
    lines = out.strip().splitlines()
    assert parse_term(lines[0]) == parse_term("z^a [w^b] [z^a]")
    assert lines[1] == "steps: 2"


@pytest.mark.parametrize("command,flag", [("chains", "--fuel=-1"), ("reduce", "--steps=-1"),
                                          ("normalize", "--fuel=x")])
def test_negative_counts_are_usage_errors(files, capsys, command, flag):
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    with pytest.raises(SystemExit) as exited:
        main([command, path, flag])
    assert exited.value.code == 2
    assert "usage:" in capsys.readouterr().err


_USAGE = (
    "usage: setlam [-h]\n"
    "              {check,erase,decorate,reduce,normalize,measure,simulate,chains,infer-sn,graph}\n"
    "              ...\n")


# argparse's own texts, at 80 columns, for a run with no command, an
# unknown one, a bad command line of a known one, and the help pages.
@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", _USAGE + "setlam: error: the following arguments are required: command\n"),
    (["--help"], 0, _USAGE + (
        "\n"
        "Set-annotated lambda calculi: typing, reduction, measures.\n"
        "\n"
        "positional arguments:\n"
        "  {check,erase,decorate,reduce,normalize,measure,simulate,chains,infer-sn,graph}\n"
        "    check               synthesize a term's type and minimal context\n"
        "    erase               erase a uniform term to its untyped form\n"
        "    decorate            decorate a derivation JSON file into a term\n"
        "    reduce              step a term and emit a JSON trace\n"
        "    normalize           reduce to normal form\n"
        "    measure             full-simplification report and W\n"
        "    simulate            replay a beta step inside a refining term\n"
        "    chains              longest chain versus the W bound\n"
        "    infer-sn            type a strongly normalizing untyped term\n"
        "    graph               export the reduction graph\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), ""),
    (["bogus"], 2, "", _USAGE + (
        "setlam: error: argument command: invalid choice: 'bogus' (choose from 'check', "
        "'erase', 'decorate', 'reduce', 'normalize', 'measure', 'simulate', 'chains', "
        "'infer-sn', 'graph')\n")),
    (["check"], 2, "", "usage: setlam check [-h] file\n"
                       "setlam check: error: the following arguments are required: file\n"),
    (["check", "f", "--bogus"], 2, "", _USAGE + "setlam: error: unrecognized arguments: --bogus\n"),
    (["graph", "--help"], 0, (
        "usage: setlam graph [-h] [--calculus {beta,i,im}] [--fuel FUEL]\n"
        "                    [--format {dot,json}]\n"
        "                    file\n"
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --calculus {beta,i,im}\n"
        "  --fuel FUEL\n"
        "  --format {dot,json}\n"), ""),
], ids=lambda v: " ".join(v) or "none" if isinstance(v, list) else None)
def test_usage_texts(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == code
    assert capsys.readouterr() == (out, err)


def test_zero_counts_are_accepted(files, capsys):
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    code, out, _ = run(capsys, "reduce", path, "--steps=0")
    assert code == 0 and json.loads(out)["steps"] == []
    code, out, _ = run(capsys, "normalize", files("nf.term", "y^a"), "--fuel=0")
    assert code == 0 and out == "y^a\nsteps: 0\n"


@pytest.mark.parametrize("command,flag", [("reduce", "--steps"), ("normalize", "--fuel")])
def test_huge_counts_are_capped_at_maxsize(files, capsys, command, flag):
    # No run reaches sys.maxsize steps, so a larger count means the same.
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    capped = run(capsys, command, path, f"{flag}={sys.maxsize}")
    assert capped[0] == 0
    assert run(capsys, command, path, f"{flag}={2 ** 64}") == capped


def test_check_deep_binder_chain(files, capsys):
    text = "".join(f"\\x{i}:{{a}}. " for i in range(1_000)) + "x0^a"
    code, out, err = run(capsys, "check", files("deep.term", text))
    assert code == 0 and err == ""
    assert out == f"type: {' -> '.join(['a'] * 1_001)}\ncontext: (empty)\n"


@pytest.mark.parametrize("argv", [
    ["erase"], ["measure"], ["normalize"], ["normalize", "--calculus=i"], ["reduce"],
    ["graph"], ["graph", "--format=dot"], ["chains"],
])
def test_deep_binder_chain_through_every_command(argv, files, capsys):
    text = "".join(f"\\x{i}:{{a}}. " for i in range(1_000)) + "x0^a"
    code, out, err = run(capsys, argv[0], files("deep.term", text), *argv[1:])
    assert (code, err) == (0, "")
    if argv[0] == "erase":
        assert out == "".join(f"\\x{i}. " for i in range(1_000)) + "x0\n"


def test_chains_argument_off_the_binder_exit_2(files, capsys):
    # chains type-checks before it explores, so the typing refuses, not the contraction
    path = files("t.term", "(\\x:{a}. z^c) {y^b}")
    code, out, err = run(capsys, "chains", path)
    assert (code, out, err) == (
        2, "", "error: not typable at []: argument set-type {b} != domain {a}\n")


def test_chains_reports_the_error_where_check_does(files, capsys):
    # the error lies in the argument, at [1], not at the redex's root []
    path = files("t.term", "(\\u:{a}. u^a) {f^a {g^a}}")
    error = "error: not typable at [1]: applied term has non-arrow type a\n"
    assert run(capsys, "check", path) == (2, "", error)
    assert run(capsys, "chains", path) == (2, "", error)


# Shapes of tests/deep.py at 10,000, each through commands that reach a
# walker that does not use the interpreter stack: A's redex has degree
# 10,000 (type_height and develop, through W and the measure report), B
# is a spine of 10,000 arguments (the cached erasure, the printer), C the
# same spine ill-typed at its root (the first error read off the typing
# fold), D a redex at the bottom of such a spine (develop, through W and
# the measure report; the one-step reducts, through graph; the redex
# search, through simulate at 3,000), E an untyped spine (the printer),
# H 10,000 nested binder chains (the parser's binder lookup, and the
# printer's names tested against each chain's body by bisect), I a binder
# of two types that agree down to their leaves (their order and equality,
# past what the interpreter compares).
@pytest.mark.parametrize("name, argv", [
    ("A", ["chains"]), ("A", ["measure"]),
    ("B", ["erase"]), ("B", ["normalize"]), ("B", ["reduce"]), ("B", ["graph"]),
    ("D", ["chains"]), ("D", ["measure"]),
    ("D", ["graph"]), ("D", ["graph", "--calculus=im", "--format=dot"]),
    ("E", ["graph", "--calculus=beta"]),
    ("H", ["erase"]), ("H", ["normalize"]), ("H", ["graph", "--calculus=i", "--format=dot"]),
    ("I", ["check"]), ("I", ["graph"]),
], ids=lambda v: v if isinstance(v, str) else "-".join(v))
def test_deep_shape_through_a_command(name, argv, files, capsys):
    path = files("deep.lam" if name == "E" else "deep.term", shape(name, 10_000))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, err) == (0, "")
    if argv[0] == "erase" and name == "B":
        assert out == "y" + " z" * 10_000 + "\n"
    if argv[0] == "erase" and name == "H":
        names = ["x"] + [f"x{i}" for i in range(9_999)]
        assert out == "".join(f"y (\\{x}. " for x in names) + "z" + ")" * 10_000 + "\n"
    if argv[0] == "measure":  # one pass contracts the one redex
        assert [stage["maxDegree"] for stage in json.loads(out)["stages"]] == [0]


def test_every_deep_run_at_200_exits_as_expected(tmp_path):
    # tests/deep.py's whole table: every shape through every command that
    # reads it, at a size where the run takes well under a second
    table = [(name, argv, deep.run_command(argv)[0]) for name, argv in deep.runs(200, tmp_path)]
    assert len(table) == 87
    assert [(name, argv, deep.expected_code(name, argv, 200)) for name, argv, _ in table] == table


def test_deep_ill_typed_spine_exit_2(files, capsys):
    code, out, err = run(capsys, "check", files("deep.term", shape("C", 10_000)))
    assert (code, out) == (2, "")
    assert err == "error: not typable at []: argument set-type {b} != domain {a}\n"


def test_simulate_at_the_bottom_of_a_deep_spine(files, capsys):
    # 3,000 deep: beyond the interpreter stack, and cheaper than 10,000
    term = files("deep.term", shape("D", 3_000))
    lam = files("deep.lam", "(\\x. y) w" + " z" * 3_000)
    code, out, err = run(capsys, "simulate", term, lam, "--pos=" + ",".join(["0"] * 3_000))
    assert (code, err) == (0, "")
    steps = json.loads(out)["steps"]
    assert [s["position"] for s in steps] == [[0] * 3_000]


NESTED_OUTPUT = {
    "check": "type: a\ncontext: y:{a -> a}, z:{a}\n",
    "erase": "y z\n",
    "normalize": "y^(a -> a) z^a\nsteps: 0\n",
}


# Shape F of tests/deep.py: the parser reads parentheses on the trampoline.
@pytest.mark.parametrize("command", ["check", "erase", "normalize", "graph"])
def test_nested_parentheses_through_a_command(command, files, capsys):
    code, out, err = run(capsys, command, files("parens.term", shape("F", 10_000)))
    assert (code, err) == (0, "")
    if command == "graph":
        assert json.loads(out)["nodes"] == ["y^(a -> a) z^a"]
    else:
        assert out == NESTED_OUTPUT[command]


def test_set_elements_that_agree_down_a_long_path(files, capsys):
    # The two elements, and the two arrow types of y's domain, agree on
    # 1,500 levels of their keys: deeper than the interpreter compares.
    binders = "".join(f"\\x{i}:{{a}}. " for i in range(1, 1_501))
    arrows = " -> ".join(["a"] * 1_500)
    text = (f"y^({{{arrows} -> a, {arrows} -> b}} -> a) "
            f"{{{binders}x0^a, {binders}x0^b}}")
    code, out, err = run(capsys, "check", files("deep.term", text))
    assert (code, err) == (0, "")
    assert out.startswith("type: a\ncontext: x0:{a, b}, y:{{a -> ")


def test_measure_json(files, capsys):
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    code, out, _ = run(capsys, "measure", path)
    assert code == 0
    report = json.loads(out)
    assert report["W"] == 1 and report["formatVersion"] == 1


def test_simulate(files, capsys):
    term_path = files("t.term", corpus.DUPLICATING)
    lam_path = files("m.lam", pretty(parse_untyped("(\\x. x x) ((\\u. u) (\\u. u))")))
    code, out, _ = run(capsys, "simulate", term_path, lam_path, "--pos=1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["steps"]) == 2
    assert parse_term(payload["steps"][-1]["result"]) == parse_term(
        corpus.DUPLICATING_AFTER_ARG)


# simulate type-checks its term, as check, reduce and normalize do, and
# requires it to refine the untyped term.
@pytest.mark.parametrize("term, lam, pos, code, err", [
    ("z^a {(\\x:{a}. x^a) {y^a}}", "z ((\\x. x) y)", "1", 2,
     "error: not typable at []: applied term has non-arrow type a\n"),
    ("(\\x:{a}. x^a) {y^a}", "(\\x. x) z", "", 2,
     "error: the term erases to (\\x. x) y, not to the untyped term\n"),
    ("y^a [z^b]", "(\\x. x) z", "", 3, "error: not uniform at []\n"),
    ("(\\x:{a}. x^a) {y^a}", "(\\x. x) y", "a", 1, "error: bad position 'a'\n"),
], ids=["ill-typed", "not-refining", "not-uniform", "bad-position"])
def test_simulate_rejects_its_inputs(term, lam, pos, code, err, files, capsys):
    paths = files("t.term", term), files("t.lam", lam)
    assert run(capsys, "simulate", *paths, f"--pos={pos}") == (code, "", err)


def test_chains(files, capsys):
    path = files("t.term", corpus.DUPLICATING)
    code, out, _ = run(capsys, "chains", path, "--fuel=10000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2] == "verdict: chain <= W"


def test_infer_sn_success(files, capsys):
    path = files("m.lam", "\\x. x x")
    code, out, _ = run(capsys, "infer-sn", path)
    assert code == 0
    assert out.splitlines()[0] == "term: \\x:{b0, b0 -> b1}. x^(b0 -> b1) x^b0"


def test_infer_sn_omega_exit_4(files, capsys):
    path = files("m.lam", "(\\x. x x) (\\x. x x)")
    code, _, _ = run(capsys, "infer-sn", path, "--fuel=1000")
    assert code == 4


def test_infer_sn_omega_runs_out_of_fuel_at_the_default(files, capsys):
    path = files("m.lam", "(\\x. x x) (\\x. x x)")
    code, out, err = run(capsys, "infer-sn", path)
    assert (code, out, err) == (4, "", "error: inference fuel exhausted\n")


def test_an_internal_error_exits_5_and_leaves_the_collector_on(files, capsys, monkeypatch):
    from setlam import cli

    def boom(args):
        raise AssertionError("boom")

    monkeypatch.setattr(cli, "_cmd_check", boom)
    enabled = gc.isenabled()
    gc.enable()
    try:
        assert run(capsys, "check", files("t.term", "y^a")) == (
            5, "", "internal error: AssertionError: boom\n")
        assert gc.isenabled()
    finally:
        if not enabled:
            gc.disable()


def test_graph_formats(files, capsys):
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    code, out, _ = run(capsys, "graph", path, "--calculus=i", "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["nodeCount"] == 2 and not data["truncated"]
    code, out, _ = run(capsys, "graph", path, "--calculus=i", "--format=dot")
    assert code == 0 and out.startswith("digraph")


def test_outputs_reparse_alpha_equal(files, capsys):
    # every emitted term string re-parses to an alpha-equal term
    path = files("t.term", corpus.FIGURE_START)
    _, out, _ = run(capsys, "reduce", path, "--calculus=im", "--steps=6")
    trace = json.loads(out)
    current = parse_term(trace["source"])
    from setlam import step_im
    for step in trace["steps"]:
        current = step_im(current, tuple(step["position"]))
        assert parse_term(step["result"]) == current


def test_byte_identical_reruns(files, capsys):
    path = files("t.term", corpus.FIGURE_START)
    first = run(capsys, "measure", path)
    second = run(capsys, "measure", path)
    assert first == second


def test_stdout_is_independent_of_the_hash_seed(files):
    path = files("t.term", corpus.FIGURE_START)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    commands = [
        ["graph", path],
        ["graph", path, "--calculus=im", "--format=dot", "--fuel=200"],
        ["reduce", path, "--calculus=im", "--strategy=random", "--steps=6", "--seed=3"],
    ]
    for argv in commands:
        outputs = {
            subprocess.run([sys.executable, "-m", "setlam", *argv], check=True,
                           capture_output=True, text=True,
                           env={**env, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1", "7")
        }
        assert len(outputs) == 1


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # Each command starts a fresh interpreter; `dataclasses` alone would
    # pull in `inspect`, `ast`, `dis` and `tokenize` before any work.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import setlam.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env).stdout
    assert out == "[]\n"


def _loaded_modules(code: str, *argv: str) -> set[str]:
    """The setlam modules, and json, that a fresh interpreter running
    `code` with `argv` has loaded at exit beyond those it starts with."""
    wrapper = ("import atexit, sys\n"
               "_before = set(sys.modules)\n"
               "atexit.register(lambda: print(*sorted(set(sys.modules) - _before),"
               " file=sys.stderr))\n" + code)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {m for m in proc.stderr.splitlines()[-1].split()
            if m == "json" or m.partition(".")[0] == "setlam"}


def test_import_setlam_loads_no_module_of_it():
    assert _loaded_modules("import setlam") == {"setlam"}


def test_import_cli_loads_syntax_and_typecheck_only():
    assert _loaded_modules("import setlam.cli") == {
        "setlam", "setlam.cli", "setlam.errors", "setlam.syntax", "setlam.typecheck"}


# What each command loads beyond the package, cli, errors, syntax,
# parsing (every command reads a text) and typecheck: the setlam modules
# it runs, naming where it prints a term (check prints a type, chains a
# number), and json where it writes JSON or reads a derivation.
@pytest.mark.parametrize("argv, extra", [
    (["check", "TERM"], set()),
    (["erase", "TERM"], {"naming"}),
    (["decorate", "DERIV"], {"binding", "derivation", "naming", "json"}),
    (["reduce", "TERM"], {"binding", "naming", "reduction", "json"}),
    (["simulate", "TERM", "LAM", "--pos="], {"binding", "naming", "reduction", "json"}),
    (["normalize", "TERM"], {"binding", "naming", "reduction"}),
    (["measure", "TERM"], {"binding", "naming", "reduction", "measure", "json"}),
    (["chains", "TERM"], {"binding", "reduction", "oracle", "measure"}),
    (["infer-sn", "LAM"], {"binding", "naming", "reduction", "oracle"}),
    (["graph", "TERM", "--format=dot"], {"binding", "naming", "reduction", "oracle"}),
    (["graph", "TERM"], {"binding", "naming", "reduction", "oracle", "json"}),
], ids=lambda value: "-".join(value) if isinstance(value, list) else None)
def test_each_command_loads_only_the_modules_it_runs(argv, extra, files):
    paths = {
        "TERM": files("t.term", "(\\x:{a}. x^a) {y^a}"),
        "LAM": files("t.lam", "(\\x. x) y"),
        "DERIV": files("d.json", '{"rule": "var", "ctx": {"x": ["a"]}, "term": "x", "type": "a"}'),
    }
    runner = ("import runpy\nsys.argv[0] = 'setlam'\n"
              "runpy.run_module('setlam', run_name='__main__', alter_sys=True)\n")
    loaded = _loaded_modules(runner, *[paths.get(arg, arg) for arg in argv])
    expected = {"setlam", "setlam.cli", "setlam.errors", "setlam.syntax", "setlam.parsing",
                "setlam.typecheck"}
    assert loaded == expected | {m if m == "json" else f"setlam.{m}" for m in extra}
