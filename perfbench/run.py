"""Drift-corrected benchmark of setlam: one workload per run.

    python3 perfbench/run.py --workload church --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; setlam is imported from its ``src``.
The run sets up (imports setlam, makes and parses its inputs, makes one
warm-up pass) SETUP_REPS times, then repeats whole rounds of the
workload's units for ``--seconds``.  After every unit it runs a few
chunks of the reference kernel (kernel.py) and reports the unit's time
as unit seconds / kernel seconds per chunk * kernel.NOMINAL_CHUNK_S:
seconds at the reference host's speed.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Run records and the trace are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "setlam"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
from workloads import POOLS, WORKLOADS  # noqa: E402

SETUP_REPS = 7
KERNEL_SHARE = 0.5  # kernel seconds run per second of timed unit
MAX_CHUNKS = 200
WINDOW_CHUNKS = 20
CHILD_TIMEOUT_S = 60
STARTUP_CHILDREN = 5

# Children run `python -m setlam` through runpy and report their own peak
# resident memory at exit.  The kernel's rusage cannot give it: a child
# exec'd from this process inherits this process's high-water mark.
CHILD_PRELUDE = """\
import atexit, resource, sys
def _report_peak():
    try:
        with open("/proc/self/status") as status:
            kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(f"\\npeak_rss_kb: {kb}\\n")
atexit.register(_report_peak)
"""
CHILD_MAIN = CHILD_PRELUDE + """\
import runpy
sys.argv[0] = "setlam"
runpy.run_module("setlam", run_name="__main__", alter_sys=True)
"""
CHILD_IMPORT = CHILD_PRELUDE + "import setlam\n"

MODULES = ("syntax", "binding", "typecheck", "reduction", "measure", "oracle", "cli")
KEY_FUNCTIONS = ("term_key", "type_key", "settype_key", "setterm_key")
# Per-layer time metrics summed from the spans the benchmark records
# around its own calls.
SPAN_METRICS = {
    "oracle.infer_sn_s": ("oracle.infer_sn",),
    "oracle.normal_form_s": ("oracle.normal_form",),
    "typecheck.check_s": ("typecheck.check", "typecheck.synthesize_type",
                          "typecheck.minimal_context"),
    "reduction.redexes_s": ("reduction.redexes", "reduction.i_redexes"),
    "reduction.step_s": ("reduction.step_i", "reduction.step_im"),
    "measure.simp_s": ("measure.W", "measure.simp_full", "measure.measure_report"),
    "cli.command_s": ("cli.command",),
}
# Per-layer time metrics taken from the profile's cumulative time of a
# function, whoever calls it: (module, functions).
CUMULATIVE_METRICS = {
    "syntax.parse_s": ("syntax", ("parse", "parse_set_type")),
    "syntax.pretty_s": ("syntax", ("pretty",)),
    "oracle.explore_s": ("oracle", ("explore",)),
}
# Per-layer call counts of single functions: (module, functions).
CALL_METRICS = {
    "syntax.key_calls": ("syntax", KEY_FUNCTIONS),
    "syntax.set_builds": ("syntax", ("of",)),
    "typecheck.synth_calls": ("typecheck", ("_synth",)),
    "reduction.steps": ("reduction", ("step_i", "step_im")),
    "binding.shift_calls": ("binding", ("shift",)),
}


def _brief(args) -> str:
    return repr(args)[:100]


class OpFailed(Exception):
    """An operation raised or exited non-zero; the rest of its unit is skipped."""


class ChildFailed(Exception):
    pass


class Yardstick:
    """Kernel slices after timed units, pooled over a short recent window.

    A unit of a few milliseconds gets a slice of one or two chunks, whose
    own timing is noisy; pooling the slices back to WINDOW_CHUNKS chunks
    (tens of milliseconds, well inside the host's drift timescale of
    about a second) steadies the estimate of the host's current speed.
    """

    def __init__(self):
        self.window: deque[tuple[int, float]] = deque()

    def factor(self, raw: float) -> float:
        """Run kernel chunks worth KERNEL_SHARE of `raw`; return the factor
        that turns seconds on this host, now, into reference seconds."""
        chunks = max(1, min(MAX_CHUNKS, round(raw * KERNEL_SHARE / kernel.NOMINAL_CHUNK_S)))
        self.window.append((chunks, kernel.measure(chunks)))
        total = sum(c for c, _ in self.window)
        while total - self.window[0][0] >= WINDOW_CHUNKS:
            total -= self.window.popleft()[0]
        return kernel.NOMINAL_CHUNK_S * total / sum(s for _, s in self.window)


class Harness:
    """Counts, times, checks and (when tracing) profiles operations."""

    def __init__(self, env: dict, yardstick: Yardstick):
        self.env = env
        self.yardstick = yardstick
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.pending: list = []
        self.profile: cProfile.Profile | None = None
        self.spans: list | None = None
        self.tally: dict[str, int] = {}
        self.unit_id = 0
        self.setlam = None
        self.in_process = False
        self.child_peak_kb = 0

    # -- operations ---------------------------------------------------------

    def op(self, span: str, fn, *args, check=None):
        self.attempted += 1
        profile = self.profile
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = fn(*args)
        except Exception as error:  # any failure of the program under test
            self.failed += 1
            self._note(self.errors, f"{span}{_brief(args)}: {type(error).__name__}: {error}")
            raise OpFailed from error
        finally:
            if profile is not None:
                profile.disable()
        if self.spans is not None:
            self.spans.append((self.unit_id, span, start, time.perf_counter()))
            self._count(span, result)
        if check is not None:
            self.pending.append((span, args, check, result))
        return result

    def check(self, what: str, predicate) -> None:
        self.pending.append((what, (), lambda _: predicate(), None))

    def run_setlam(self, argv):
        """``setlam argv`` in a child, or in-process when tracing; stdout."""
        if argv is None:
            self._child([sys.executable, "-c", CHILD_IMPORT])
            return ""
        if not self.in_process:
            return self._child([sys.executable, "-c", CHILD_MAIN, *argv])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.setlam.cli.main(argv)
        if code != 0:
            raise ChildFailed(f"exit {code}: {err.getvalue().strip()[-200:]}")
        return out.getvalue()

    def _child(self, command):
        proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stderr.strip().splitlines()
        if lines and lines[-1].startswith("peak_rss_kb: "):
            self.child_peak_kb = max(self.child_peak_kb, int(lines.pop().split()[1]))
        if proc.returncode != 0:
            last = [line for line in lines if line.strip()][-1:] or [""]
            raise ChildFailed(f"exit {proc.returncode}: {last[0][:200]}")
        return proc.stdout

    def _count(self, span: str, result) -> None:
        if span == "oracle.explore":
            self._add("oracle.graph_nodes", result.node_count)
            self._add("oracle.graph_edges", len(result.edges))
            self._add("oracle.truncated_graphs", int(result.truncated))
        elif span in ("reduction.redexes", "reduction.i_redexes"):
            self._add("reduction.redexes_found", len(result))

    def _add(self, name: str, value: int) -> None:
        self.tally[name] = self.tally.get(name, 0) + value

    @staticmethod
    def _note(log: list, message: str) -> None:
        if len(log) < 20:
            log.append(message)

    # -- units and rounds ---------------------------------------------------

    def unit(self, fn) -> tuple[float, float]:
        """Run one unit; return (raw seconds, reference seconds)."""
        self.pending = []
        self.unit_id += 1
        start = time.perf_counter()
        try:
            fn(self)
        except OpFailed:
            pass
        except Exception as error:  # a fault of the unit's own plumbing
            self.failed += 1
            self._note(self.wrong, f"unit {self.unit_id}: {type(error).__name__}: {error}")
        raw = time.perf_counter() - start
        reference = raw * self.yardstick.factor(raw)
        for what, args, check, result in self.pending:
            try:
                ok, why = bool(check(result)), ""
            except Exception as error:  # a malformed output fails its check
                ok, why = False, f" ({type(error).__name__}: {error})"
            if not ok:
                self.failed += 1
                self._note(self.wrong, f"check failed: {what}{_brief(args)}{why}")
        return raw, reference

    def round(self, units) -> tuple[list[float], list[float]]:
        """Run every unit once; return their raw and reference seconds."""
        gc.collect()
        times = [self.unit(fn) for fn in units]
        return [r for r, _ in times], [c for _, c in times]


# ---------------------------------------------------------------------------
# Set-up


def _import_setlam():
    for name in [n for n in sys.modules if n == "setlam" or n.startswith("setlam.")]:
        del sys.modules[name]
    setlam = importlib.import_module("setlam")
    importlib.import_module("setlam.cli")
    if Path(setlam.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"setlam was imported from {setlam.__file__}, not from {PACKAGE}")
    return setlam


def _timed(yardstick: Yardstick, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    return result, raw, raw * yardstick.factor(raw)


def set_up(build, seed: int, env: dict, yardstick: Yardstick):
    """SETUP_REPS full set-ups; returns the last one's state and the times.

    Each repetition imports setlam afresh, makes and parses the inputs and
    runs the warm-up units (whose operations are not counted).
    """
    raw_times, times = [], []
    for _ in range(SETUP_REPS):
        gc.collect()  # free the previous repetition's modules and inputs
        setlam, raw_import, ref_import = _timed(yardstick, _import_setlam)
        (units, warmup), raw_build, ref_build = _timed(
            yardstick, build, setlam, seed, OUT / f"inputs-seed{seed}")
        scratch = Harness(env, yardstick)
        scratch.setlam = setlam
        raw_warm = ref_warm = 0.0
        for fn in warmup:
            r, c = scratch.unit(fn)
            raw_warm += r
            ref_warm += c
        raw_times.append(raw_import + raw_build + raw_warm)
        times.append(ref_import + ref_build + ref_warm)
    return setlam, units, raw_times, times


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced round


NODE_CLASSES = ("Base", "Arrow", "SetType", "Var", "BoundVar", "Lam", "App", "Wrap",
                "SetTerm", "UVar", "UBoundVar", "ULam", "UApp")


def _profile_rows(profile: cProfile.Profile, setlam):
    """(module, function, calls, self seconds, cumulative seconds) rows.

    Read from the raw entries, one per code object: pstats keys them by
    (file, line, name) and keeps only one of the dataclass-generated
    methods, which all share the file "<string>".
    """
    node_methods = {getattr(getattr(setlam.syntax, cls), method).__code__
                    for cls in NODE_CLASSES for method in ("__hash__", "__eq__")}
    rows = []
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a built-in function
            continue
        if code in node_methods:
            module = "<node>"
        elif Path(code.co_filename).parent == PACKAGE:
            module = Path(code.co_filename).stem
        else:
            continue
        rows.append((module, code.co_name, entry.callcount, entry.inlinetime, entry.totaltime))
    return rows


def layer_metrics(rows, spans, tally, factor: float) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for module in MODULES:
        mine = [r for r in rows if r[0] == module]
        metrics[f"{module}.self_s"] = factor * sum(r[3] for r in mine)
        metrics[f"{module}.calls"] = sum(r[2] for r in mine)
    metrics["syntax.hash_eq_calls"] = sum(r[2] for r in rows if r[0] == "<node>")
    for name, (module, functions) in CALL_METRICS.items():
        metrics[name] = sum(r[2] for r in rows if r[0] == module and r[1] in functions)
    for name, (module, functions) in CUMULATIVE_METRICS.items():
        metrics[name] = factor * sum(r[4] for r in rows if r[0] == module and r[1] in functions)
    for name, names in SPAN_METRICS.items():
        metrics[name] = factor * sum(end - start for _, span, start, end in spans
                                     if span in names)
    for name in ("oracle.graph_nodes", "oracle.graph_edges", "oracle.truncated_graphs",
                 "reduction.redexes_found"):
        metrics[name] = tally.get(name, 0)
    return metrics


def traced_round(h: Harness, units):
    h.profile, h.spans, h.tally = cProfile.Profile(), [], {}
    try:
        raw, reference = map(sum, h.round(units))
    finally:
        profile, spans, tally = h.profile, h.spans, h.tally
        h.profile = h.spans = None
    factor = reference / raw
    rows = _profile_rows(profile, h.setlam)
    return raw, reference, layer_metrics(rows, spans, tally, factor), spans


def startup_time(h: Harness) -> float:
    """Median reference seconds of a bare ``python -c "import setlam"``."""
    times = []
    for _ in range(STARTUP_CHILDREN):
        _, _, reference = _timed(h.yardstick, h.run_setlam, None)
        times.append(reference)
    return statistics.median(times)


# ---------------------------------------------------------------------------


def _peak_rss_mb(h: Harness, workload: str) -> float:
    if workload == "cli":
        return h.child_peak_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no setlam sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)

    build = WORKLOADS[args.workload]
    if args.workload in POOLS:
        POOLS[args.workload]()
    yardstick = Yardstick()
    setlam, units, setup_raw, setup_ref = set_up(build, args.seed, env, yardstick)
    h = Harness(env, yardstick)
    h.setlam = setlam
    # Traced runs call the CLI in-process, untraced rounds included, so
    # that the tracing overhead compares like with like.
    h.in_process = bool(args.trace)

    deadline = time.perf_counter() + args.seconds
    plain, traced, layers, first_spans = [], [], [], None
    while not plain or time.perf_counter() < deadline:
        plain.append(h.round(units))
        if args.trace:
            raw, reference, metrics, spans = traced_round(h, units)
            traced.append((raw, reference))
            layers.append(metrics)
            first_spans = first_spans or spans

    # The batch time: per unit, the median over rounds, summed.  One
    # unit slowed by a burst on the host moves one round's total but not
    # this.
    run_s = sum(map(statistics.median, zip(*(c for _, c in plain))))
    run_raw_s = sum(map(statistics.median, zip(*(r for r, _ in plain))))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(plain), "units_per_round": len(units),
        "run_s": run_s, "run_raw_s": run_raw_s,
        "unit_raw_s": [r for r, _ in plain], "unit_reference_s": [c for _, c in plain],
        "setup_s": statistics.median(setup_ref), "setup_raw_s": statistics.median(setup_raw),
        "setup_reference_s": setup_ref,
        "errors": h.errors, "wrong": h.wrong,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "host": "unpinned shared machine; governors and cgroups left alone",
    }
    correct = not h.wrong
    if args.trace:
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
            else:
                if len(set(values)) != 1:
                    print(f"warning: {name} differs between traced rounds: {values}",
                          file=sys.stderr)
                metrics[name] = {"value": values[0], "unit": "count"}
        metrics["cli.startup_s"] = {"value": startup_time(h), "unit": "s"}
        overhead = statistics.median(c for _, c in traced) - run_s
        record.update(traced_rounds=len(traced), tracing_overhead_s=overhead,
                      traced_run_s=statistics.median(c for _, c in traced))
        trace = {"workload": args.workload, "seed": args.seed,
                 "tracing_overhead_s": overhead, "layers": metrics,
                 "spans": [{"unit": u, "name": n, "start": s, "end": e}
                           for u, n, s, e in first_spans]}
        (OUT / f"{args.workload}-seed{args.seed}.trace.json").write_text(json.dumps(trace))
        print(f"{args.workload}: traced round {record['traced_run_s']:.3f} s vs untraced"
              f" {run_s:.3f} s: tracing overhead {overhead:.3f} s (reference seconds)")
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": record["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(h, args.workload), "unit": "MB"},
        }
        print(f"{args.workload}: {len(plain)} rounds of {len(units)} units; run_s"
              f" {run_s:.4f} (raw {record['run_raw_s']:.4f}), setup_s {record['setup_s']:.4f}"
              f" (raw {record['setup_raw_s']:.4f})")
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    for line in h.errors + h.wrong:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": h.attempted, "failed": h.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
