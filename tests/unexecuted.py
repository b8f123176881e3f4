"""The lines of `src/setlam` that no test executes.

Run from the repository root as

    PYTHONPATH=src python tests/unexecuted.py [PYTEST ARGS]

It runs the test suite (by default `-q tests`, the tier-1 run) in this
process through `pytest.main`, with a `sys.settrace` hook that records
every line executed inside a function of `src/setlam`, and then prints
each line of a function, method, lambda or comprehension there that
never ran, as `path:line: text`, file by file.  Module-level lines and
class bodies are left out: they run at import.  Tests that run `setlam`
in a child process (the `python -m setlam` and hash-seed tests of
`tests/test_cli.py`, for example) are not traced, so a line only they
reach is listed; so is a line that only another thread runs, as no
test starts one.  The standard library is all it uses besides pytest.
Tracing makes the suite about three times slower: 4-5 minutes on a
shared 2-vCPU host, against about 1.5 untraced.  pytest does not
collect this file.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "setlam"


def function_lines(path: Path) -> set[int]:
    """The lines of every function-like code object compiled from path:
    those with fast locals, which leaves out the module and class bodies."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= code_lines(code)
    return lines


def code_lines(code) -> set[int]:
    """The lines of code's own instructions, not of the code it nests."""
    return {line for _, _, line in code.co_lines() if line is not None}


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    # The lines of each code object that have not run yet: once none is
    # left, or for code outside the package, a frame is not traced.  The
    # hooks are made once, so tracing a call leaves no garbage behind for
    # the cyclic collector (`tests/test_garbage.py` counts it).
    left: dict = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        lines = left.get(code)
        if lines is None:
            lines = left[code] = (code_lines(code) if code.co_filename in files else set())
        return on_line(frame, event, arg) if lines else None

    def on_line(frame, event, arg):
        lines = left[frame.f_code]
        lines.discard(frame.f_lineno)
        return on_line if lines else None

    sys.settrace(on_call)
    try:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    executed = {name: set() for name in files}
    for code, lines in left.items():
        if code.co_filename in files:
            executed[code.co_filename] |= code_lines(code) - lines
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(function_lines(path) - executed[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
