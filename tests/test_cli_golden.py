"""Golden CLI output: stdout, stderr and exit code, byte for byte.

`golden/cli.json` records, for every worked fixture of `corpus.py` and
every command in COMMANDS, what `setlam.cli.main` printed and returned.
The test replays each invocation in-process and compares all three.

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
TERM = "TERM"  # stands for the fixture's file in each argv

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


def _argv(command: list[str], path: Path) -> list[str]:
    return [str(path) if a == TERM else a for a in command]


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
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
