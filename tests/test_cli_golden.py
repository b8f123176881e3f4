"""Golden CLI output: stdout, stderr and exit code, byte for byte.

`golden/cli.json` records, for every worked fixture of `corpus.py` and
every command in COMMANDS, what `setlam.cli.main` printed and returned.
`golden/cli_errors.json` does the same for the error paths in
ERROR_CASES, each with its own input files.  The tests replay each
invocation in-process and compare all three.

To regenerate after an intended output change, run from the repository
root

    PYTHONPATH=src python tests/test_cli_golden.py

and log the regeneration, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
from setlam.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
GOLDEN_ERRORS = Path(__file__).parent / "golden" / "cli_errors.json"
TERM = "TERM"  # stands for the fixture's file in each argv
LAM = "LAM"  # stands for an untyped term's file

COMMANDS = [
    ["check", TERM],
    ["erase", TERM],
    ["measure", TERM],
    *(["normalize", TERM, f"--calculus={c}", f"--fuel={f}"]
      for c in ("i", "im") for f in (10000, 1)),
    ["reduce", TERM, "--strategy=leftmost", "--steps=100"],
    ["reduce", TERM, "--calculus=im", "--strategy=random", "--seed=3", "--steps=100"],
    ["chains", TERM],
    *(["graph", TERM, f"--calculus={c}", f"--format={f}"]
      for c in ("i", "im") for f in ("json", "dot")),
]


# A wrapped term with a plain redex: plain reduction must refuse it at
# its first step, and memory reduction contracts it.
WRAPPED = "(\\x:{a}. y^b) {z^a [w^b]}"
IDENTITY_APPLIED = {TERM: "(\\x:{a}. x^a) y^a", LAM: "(\\x. x) y"}

ERROR_CASES = [
    *({"files": {TERM: WRAPPED}, "argv": argv} for argv in [
        ["normalize", TERM, "--calculus=i"],
        ["normalize", TERM, "--calculus=i", "--fuel=0"],
        ["normalize", TERM, "--calculus=im"],
        ["reduce", TERM, "--calculus=i"],
        ["reduce", TERM, "--calculus=i", "--strategy=random", "--seed=3"],
        ["reduce", TERM, "--calculus=i", "--steps=0"],
        ["graph", TERM, "--calculus=i"],
        ["graph", TERM, "--calculus=i", "--fuel=0"],
        ["graph", TERM, "--calculus=im"],
        ["chains", TERM],
        ["chains", TERM, "--fuel=0"],
    ]),
    {"files": {TERM: "y^b [z^a]"}, "argv": ["normalize", TERM, "--calculus=i"]},
    *({"files": IDENTITY_APPLIED, "argv": ["simulate", TERM, LAM, f"--pos={pos}"]}
      for pos in ("0", "1", "0,0", "")),
    # Parse errors: the message and its line:column, byte for byte.
    *({"files": {TERM: text}, "argv": ["check", TERM]} for text in [
        "x^a $ y^a",  # an unexpected character
        "(\\x:{a}. x^a",  # a missing )
        "y^({a} -> b) {z^a",  # a missing }
        "y^a [z^b",  # a missing ]
        "x^a )",  # trailing input
        "\t(\\x:{a}.\r\n\t\tx^a)\r\n\t{y^a} $",  # line 3, after CRLF and tabs
        "\t(\\x:{a}.\r\n\t\tx^a)\r\n\t\t{y^a\r\n",  # end of input on line 4
        "\\x:{a",  # end of input inside a binder
        "x^(a ->)",  # bad type strings
        "x^({a, b})",
        "x^A",
    ]),
    {"files": {LAM: "\\x"}, "argv": ["infer-sn", LAM]},
    {"files": {LAM: "(\\x. x) )"}, "argv": ["graph", LAM, "--calculus=beta"]},
    {"files": {TERM: "y^a", LAM: "\\x. x # y"}, "argv": ["simulate", TERM, LAM, "--pos="]},
]


def _argv(command: list[str], path: Path) -> list[str]:
    return [str(path) if a == TERM else a for a in command]


def _write_files(files: dict[str, str], directory: Path) -> dict[str, str]:
    paths = {}
    for placeholder, text in files.items():
        path = directory / f"{placeholder.lower()}.txt"
        path.write_text(text, encoding="utf-8")
        paths[placeholder] = str(path)
    return paths


@pytest.mark.parametrize("index", range(len(corpus.WORKED_TERMS)))
def test_cli_output_matches_golden(index, tmp_path, capsys):
    text = corpus.WORKED_TERMS[index]
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = [case for case in cases if case["term"] == text]
    assert [case["argv"] for case in expected] == COMMANDS
    path = tmp_path / "fixture.term"
    path.write_text(text, encoding="utf-8")
    for case in expected:
        code = main(_argv(case["argv"], path))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (
            case["stdout"], case["stderr"], case["code"]), case["argv"]


@pytest.mark.parametrize("index", range(len(ERROR_CASES)))
def test_cli_error_paths_match_golden(index, tmp_path, capsys):
    case = json.loads(GOLDEN_ERRORS.read_text(encoding="utf-8"))[index]
    assert {k: case[k] for k in ("files", "argv")} == ERROR_CASES[index]
    paths = _write_files(case["files"], tmp_path)
    code = main([paths.get(a, a) for a in case["argv"]])
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (
        case["stdout"], case["stderr"], case["code"]), case["argv"]


if __name__ == "__main__":
    import tempfile
    cases = []
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "fixture.term"
        for text in corpus.WORKED_TERMS:
            path.write_text(text, encoding="utf-8")
            for command in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(_argv(command, path))
                cases.append({"term": text, "argv": command, "stdout": out.getvalue(),
                              "stderr": err.getvalue(), "code": code})
        errors = []
        for case in ERROR_CASES:
            paths = _write_files(case["files"], Path(scratch))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([paths.get(a, a) for a in case["argv"]])
            errors.append({**case, "stdout": out.getvalue(),
                           "stderr": err.getvalue(), "code": code})
    GOLDEN.parent.mkdir(exist_ok=True)
    for target, written in ((GOLDEN, cases), (GOLDEN_ERRORS, errors)):
        target.write_text(json.dumps(written, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(written)} cases to {target}")
