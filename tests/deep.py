"""Deep inputs: every command on seven term shapes of size n.

Run from the repository root as

    PYTHONPATH=src python tests/deep.py N

It writes each shape at size N to a temporary file, runs every command
that takes such a file through `setlam.cli.main` in this process, and
prints, per run, the shape, the command, the exit code, the seconds and
the first line of standard error.  Standard output is discarded.  pytest
does not collect this file; `tests/test_cli.py` imports its shapes.

    A  (\\x0:{a}. ... \\x{N-1}:{a}. x0^a) {y^a}        a redex on a binder chain
    B  y^(a -> ... -> a) z^a ... z^a                  a spine of N arguments
    C  B with its last argument z^b                   an ill-typed spine
    D  (\\x:{a}. y^(a -> ... -> a)) {w^a} z^a ... z^a  a redex under a spine of N arguments
    E  y z ... z                                      an untyped spine of N arguments
    F  ( ... (y^(a -> a) z^a) ... )                   N nested parentheses
                                                      (and "( ... (y z) ... )")
    G  y^(a -> ... -> a) z0^a ... z{N-1}^a            a spine of N distinct variables

`graph` and `chains` on B, C, D and G are skipped above HASH_LIMIT,
with a line that says so.  `explore` indexes terms by their hash, and
hashing a key walks it on the C stack: the key of B, C, D or G nests
two levels per argument, and at 100,000 arguments the walk overflows
the C stack and the interpreter dies (SIGSEGV).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time

from setlam.cli import main

HASH_LIMIT = 50_000


def _arrows(n: int) -> str:
    return " -> ".join(["a"] * (n + 1))


def shape(name: str, n: int) -> str:
    """The text of shape A, B, C, D, E, F or G at size n."""
    if name == "A":
        return "(" + "".join(f"\\x{i}:{{a}}. " for i in range(n)) + "x0^a) {y^a}"
    if name in ("B", "C"):
        last = "b" if name == "C" else "a"
        return f"y^({_arrows(n)})" + " z^a" * (n - 1) + f" z^{last}"
    if name == "D":
        return f"(\\x:{{a}}. y^({_arrows(n)})) {{w^a}}" + " z^a" * n
    if name == "E":
        return "y" + " z" * n
    if name == "F":
        return "(" * n + "y^(a -> a) z^a" + ")" * n
    if name == "G":
        return f"y^({_arrows(n)})" + "".join(f" z{i}^a" for i in range(n))
    raise ValueError(f"no shape {name!r}")


TERM_COMMANDS = [
    ["check"], ["erase"], ["measure"],
    ["normalize"], ["normalize", "--calculus=i"],
    ["reduce"], ["reduce", "--calculus=im"],
    ["graph"], ["graph", "--calculus=im", "--format=dot"],
    ["chains"],
]
UNTYPED_COMMANDS = [["graph", "--calculus=beta"], ["infer-sn"]]


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def runs(n: int, directory: str):
    """(shape, argv, why it is skipped or None) of every run at size n,
    with its files written."""
    paths = {}
    for name in "ABCDEFG":
        paths[name] = os.path.join(directory, f"{name}.{'lam' if name == 'E' else 'term'}")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(shape(name, n))
    for name in "ABCDFG":
        for argv in TERM_COMMANDS:
            skip = None
            if argv[0] in ("graph", "chains") and name in "BCDG" and n > HASH_LIMIT:
                skip = f"skipped above {HASH_LIMIT}: hashing the term overflows the C stack"
            yield name, [argv[0], paths[name], *argv[1:]], skip
    # the beta redex of D's erasure sits at the bottom of its spine
    with open(os.path.join(directory, "D.lam"), "w", encoding="utf-8") as handle:
        handle.write("(\\x. y) w" + " z" * n)
    yield "D", ["simulate", paths["D"], os.path.join(directory, "D.lam"),
                "--pos=" + ",".join(["0"] * n)], None
    # F's erasure, for the commands that read an untyped term
    with open(os.path.join(directory, "F.lam"), "w", encoding="utf-8") as handle:
        handle.write("(" * n + "y z" + ")" * n)
    for name, path in (("E", paths["E"]), ("F", os.path.join(directory, "F.lam"))):
        for argv in UNTYPED_COMMANDS:
            yield name, [argv[0], path, *argv[1:]], None


def run_command(argv: list[str]) -> tuple[int, float, str]:
    """(exit code, seconds, standard error) of one in-process run."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, time.perf_counter() - start, err.getvalue()


def _label(argv: list[str]) -> str:
    return " ".join([argv[0]] + [a for a in argv[2:] if a.startswith("--calculus")
                                 or a.startswith("--format")])


if __name__ == "__main__":
    size = int(sys.argv[1])
    with tempfile.TemporaryDirectory() as directory:
        for name, argv, skip in runs(size, directory):
            if skip:
                print(f"{name} {size} {_label(argv):<32} {skip}", flush=True)
                continue
            code, seconds, err = run_command(argv)
            message = err.splitlines()[0] if err else ""
            print(f"{name} {size} {_label(argv):<32} exit {code}  {seconds:8.3f} s  {message}",
                  flush=True)
