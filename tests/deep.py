"""Deep inputs: every command on nine term shapes of size n.

Run from the repository root as

    PYTHONPATH=src python tests/deep.py N [SHAPES]

where SHAPES, by default ABCDEFGHI, are the letters of the shapes to run
(`tests/deep.py 100000 H` runs only H).  It writes each shape at size N
to a temporary file, runs every command that takes such a file through
`setlam.cli.main` in this process, and prints, per run, the shape, the
command, the exit code, the seconds and the first line of standard
error.  Standard output is discarded.  pytest does not collect this
file; `tests/test_cli.py` imports its shapes.

    A  (\\x0:{a}. ... \\x{N-1}:{a}. x0^a) {y^a}        a redex on a binder chain
    B  y^(a -> ... -> a) z^a ... z^a                  a spine of N arguments
    C  B with its last argument z^b                   an ill-typed spine
    D  (\\x:{a}. y^(a -> ... -> a)) {w^a} z^a ... z^a  a redex under a spine of N arguments
    E  y z ... z                                      an untyped spine of N arguments
    F  ( ... (y^(a -> a) z^a) ... )                   N nested parentheses
                                                      (and "( ... (y z) ... )")
    G  y^(a -> ... -> a) z0^a ... z{N-1}^a            a spine of N distinct variables
    H  y^((a -> a) -> a) {\\x:{a}. ... z^a}            N nested binder chains
                                                      (and "y (\\x. ... z)")
    I  \\x:{a -> ... -> a, a -> ... -> b}.             a binder of two types that
         x^(a -> ... -> a)                            agree down to their leaves
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time

from setlam.cli import main
from setlam.syntax import App, Arrow, Base, Lam, SetTerm, SetType, Var


def _arrows(n: int, leaf: str = "a") -> str:
    return " -> ".join(["a"] * n + [leaf])


def shape(name: str, n: int) -> str:
    """The text of shape A, B, C, D, E, F, G, H or I at size n."""
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
    if name == "H":
        return "y^((a -> a) -> a) {\\x:{a}. " * n + "z^a" + "}" * n
    if name == "I":
        return f"\\x:{{{_arrows(n)}, {_arrows(n, 'b')}}}. x^({_arrows(n)})"
    raise ValueError(f"no shape {name!r}")


def built(name: str, n: int):
    """The term of shape B, C, D or H at size n built with the
    constructors, not parsed: equal to `parse_term(shape(name, n))`, with
    one object for each repeated leaf and set."""
    a = Base("a")
    one = SetType((a,))
    if name == "H":
        head, t = Var("y", Arrow(SetType((Arrow(one, a),)), a)), Var("z", a)
        for _ in range(n):
            t = App(head, SetTerm((Lam("x", one, t),)))
        return t
    arrows = a
    for _ in range(n):
        arrows = Arrow(one, arrows)
    t = Var("y", arrows)
    if name == "D":
        t = App(Lam("x", one, t), SetTerm((Var("w", a),)))
    z = SetTerm((Var("z", a),))
    for _ in range(n - 1):
        t = App(t, z)
    return App(t, SetTerm((Var("z", Base("b")),)) if name == "C" else z)


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


def _write(directory: str, file: str, text: str) -> str:
    path = os.path.join(directory, file)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def runs(n: int, directory: str, shapes: str = "ABCDEFGHI"):
    """(shape, argv) of every run at size n of the named shapes, with its
    files written."""
    paths = {name: _write(directory, f"{name}.{'lam' if name == 'E' else 'term'}",
                          shape(name, n))
             for name in shapes}
    for name in [s for s in "ABCDFGHI" if s in shapes]:
        for argv in TERM_COMMANDS:
            yield name, [argv[0], paths[name], *argv[1:]]
    if "D" in shapes:
        # the beta redex of D's erasure sits at the bottom of its spine
        lam = _write(directory, "D.lam", "(\\x. y) w" + " z" * n)
        yield "D", ["simulate", paths["D"], lam, "--pos=" + ",".join(["0"] * n)]
    # E, and the erasures of F and H, for the commands that read an untyped term
    erasures = {"F": "(" * n + "y z" + ")" * n, "H": "y (\\x. " * n + "z" + ")" * n}
    for name in [s for s in "EFH" if s in shapes]:
        path = paths["E"] if name == "E" else _write(directory, f"{name}.lam", erasures[name])
        for argv in UNTYPED_COMMANDS:
            yield name, [argv[0], path, *argv[1:]]


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
    chosen = sys.argv[2] if len(sys.argv) > 2 else "ABCDEFGHI"
    with tempfile.TemporaryDirectory() as directory:
        for name, argv in runs(size, directory, chosen):
            code, seconds, err = run_command(argv)
            message = err.splitlines()[0] if err else ""
            print(f"{name} {size} {_label(argv):<32} exit {code}  {seconds:8.3f} s  {message}",
                  flush=True)
