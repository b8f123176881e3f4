"""Command-line behaviors: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from setlam.cli import main
from setlam import parse_term, parse_untyped, pretty

import corpus
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
    from setlam.typecheck import derivation_to_json
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


@pytest.mark.parametrize("command,flag", [("chains", "--fuel=-1"), ("reduce", "--steps=-1")])
def test_negative_counts_are_usage_errors(files, capsys, command, flag):
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    with pytest.raises(SystemExit) as exited:
        main([command, path, flag])
    assert exited.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_zero_counts_are_accepted(files, capsys):
    path = files("t.term", "(\\x:{a}.x^a) {y^a}")
    code, out, _ = run(capsys, "reduce", path, "--steps=0")
    assert code == 0 and json.loads(out)["steps"] == []
    code, out, _ = run(capsys, "normalize", files("nf.term", "y^a"), "--fuel=0")
    assert code == 0 and out == "y^a\nsteps: 0\n"


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
    # chains does not synthesize first: the contraction's binder check refuses
    path = files("t.term", "(\\x:{a}. z^c) {y^b}")
    code, out, err = run(capsys, "chains", path)
    assert (code, out, err) == (2, "", "error: argument set-type {b} != binder {a}\n")


# Shapes of tests/deep.py at 10,000, each through commands that reach a
# walker that does not use the interpreter stack: A's redex has degree
# 10,000 (type_height and develop, through W and the measure report), B
# is a spine of 10,000 arguments (the cached erasure, the printer), C the
# same spine ill-typed at its root (the first error read off the typing
# fold), D a redex at the bottom of such a spine (develop, through W and
# the measure report; the redex search, through simulate at 3,000), E an
# untyped spine (the printer).
@pytest.mark.parametrize("name, argv", [
    ("A", ["chains"]), ("A", ["measure"]),
    ("B", ["erase"]), ("B", ["normalize"]), ("B", ["reduce"]), ("B", ["graph"]),
    ("D", ["chains"]), ("D", ["measure"]),
    ("E", ["graph", "--calculus=beta"]),
], ids=lambda v: v if isinstance(v, str) else "-".join(v))
def test_deep_shape_through_a_command(name, argv, files, capsys):
    path = files("deep.lam" if name == "E" else "deep.term", shape(name, 10_000))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, err) == (0, "")
    if argv[0] == "erase":
        assert out == "y" + " z" * 10_000 + "\n"
    if argv[0] == "measure":  # one pass contracts the one redex
        assert [stage["maxDegree"] for stage in json.loads(out)["stages"]] == [0]


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
