"""Degrees, weights, degree-indexed simplification, W-measure.

The degree of a redex is the height of the type of its w-abstraction.
Simplification of degree d contracts, in one structural pass, every
redex of degree exactly d (recording wrappers as memory reduction
does); full simplification runs the degrees from the maximum down to 1
and lands on the normal form.  The weight of a term counts its wrapper
nodes, and the measure W of a wrapper-free term is the weight of its
full simplification: it strictly decreases along every plain reduction
step, which bounds the length of every reduction sequence.

`W`, `simp_full` and `measure_report` read one transcript, the stages
of the full simplification, which is computed once per term object and
stored on it; `measure_report` still checks the term and each stage on
every call.  `simp_d` stores nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IllTyped
from .syntax import WRAPPER, MemTerm, SetTerm, Wrap, is_wrapper_free, nodes, pretty
from .reduction import develop, redex_degree, redexes
from .typecheck import synthesize_type

__all__ = [
    "DegreeProfile", "MeasureReport",
    "weight", "max_degree", "degree_profile",
    "simp_d", "simp_full", "W", "measure_report",
]


def weight(t: MemTerm | SetTerm) -> int:
    """Number of wrapper nodes, including inside payloads and sets;
    subtrees whose flags hold no wrapper are not visited."""
    return sum(isinstance(s, Wrap) for s in nodes(t, WRAPPER))


class DegreeProfile(NamedTuple):
    """Redex count per degree; max_degree is 0 when there are none."""

    max_degree: int
    per_degree: tuple[tuple[int, int], ...]  # (degree, count), ascending


def degree_profile(t: MemTerm | SetTerm) -> DegreeProfile:
    counts: dict[int, int] = {}
    for r in redexes(t):
        if r.degree is None:
            raise IllTyped(f"redex at {list(r.position)} does not synthesize")
        counts[r.degree] = counts.get(r.degree, 0) + 1
    return DegreeProfile(max(counts, default=0), tuple(sorted(counts.items())))


def max_degree(t: MemTerm | SetTerm) -> int:
    """Largest redex degree in t, or 0 if t has no redexes."""
    return degree_profile(t).max_degree


def simp_d(t: MemTerm | SetTerm, d: int):
    """Contract every redex of degree exactly d, in one pass.

    On an application whose function part is a w-abstraction of degree
    d, the simplified body is substituted with the simplified argument,
    the argument is recorded in a wrapper and the simplified wrapper
    list is re-attached; everything else is a congruence.
    """
    if d < 1:
        raise ValueError("simplification degree must be >= 1")
    return develop(t, lambda core: redex_degree(core) == d, "im")


def _simplifications(t: MemTerm | SetTerm) -> tuple:
    """(d, t after the degree-d pass) for each pass from the maximum degree
    down to 1 that changes t; a pass with no redex of degree d returns t.

    Computed once per term object and stored on it (`simplifications`),
    never on its subterms; nothing is stored when a redex of t does not
    synthesize.
    """
    if t.simplifications is None:
        passes, stage = [], t
        for d in range(max_degree(t), 0, -1):
            if (simplified := simp_d(stage, d)) is not stage:
                passes.append((d, stage := simplified))
        vars(t)["simplifications"] = tuple(passes)
    return t.simplifications


def simp_full(t: MemTerm | SetTerm):
    """Simplify from the maximum degree down to 1; yields the normal form."""
    passes = _simplifications(t)
    return passes[-1][1] if passes else t


def W(t: MemTerm) -> int:
    """Weight of the full simplification of a wrapper-free term."""
    if not is_wrapper_free(t):
        raise IllTyped("the measure is defined on wrapper-free terms")
    synthesize_type(t)
    return weight(simp_full(t))


class MeasureReport(NamedTuple):
    """Full-simplification transcript of a wrapper-free term."""

    term: MemTerm
    max_degree: int
    stages: tuple[tuple[int, MemTerm, int], ...]  # (after degree, term, its max degree)
    normal_form: MemTerm
    measure: int

    def to_json_dict(self) -> dict:
        return {
            "formatVersion": 1,
            "term": pretty(self.term),
            "maxDegree": self.max_degree,
            "stages": [
                {"afterDegree": d, "term": pretty(s), "maxDegree": m}
                for d, s, m in self.stages
            ],
            "normalForm": pretty(self.normal_form),
            "W": self.measure,
        }


def measure_report(t: MemTerm) -> MeasureReport:
    """The stage after each pass of the full simplification that changes
    the term; after the degree-k pass no redex of degree >= k may be left."""
    if not is_wrapper_free(t):
        raise IllTyped("the measure is defined on wrapper-free terms")
    synthesize_type(t)
    stages = []
    stage = t
    for d, stage in _simplifications(t):
        m = max_degree(stage)
        if m >= d:
            raise AssertionError(
                f"simplification invariant broken: degree {m} after pass {d}")
        stages.append((d, stage, m))
    top = stages[0][0] if stages else 0  # the first pass that changes t is at its max degree
    return MeasureReport(t, top, tuple(stages), stage, weight(stage))
