"""Golden `infer_sn` output: the term, context and type, as printed text.

`golden/infer_sn.json` records, for every input in INPUTS, the pretty
form of the inferred term, of its context and of its type.  The inputs
are Church applications ``m n y z``, the strongly normalizing samples
of `corpus.py` and head redexes whose argument or body mentions an
enclosing binder.  Each is kept as text and parsed on replay, so the
golden does not depend on how the samples were built.

To regenerate after an intended output change, run from the repository
root

    PYTHONPATH=src python tests/test_infer_sn_golden.py

and log the regeneration, with its reason, in CHANGES.md.  The script
prints how many records it changed and the input of each, so that a
regeneration can be audited record by record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import corpus
from setlam import infer_sn, parse_untyped, pretty

GOLDEN = Path(__file__).parent / "golden" / "infer_sn.json"
FUEL = corpus.INFER_FUEL

CHURCH_PAIRS = ((2, 2), (4, 1), (1, 8), (2, 3), (3, 2), (2, 4))
OPEN_HEAD_REDEXES = [
    "\\w. (\\x. x w) (\\v. v)",
    "\\w. (\\x. w x x) (\\v. w v)",
    "\\w. \\u. (\\x. x u w) (\\v. \\t. w t v)",
    "\\w. (\\x. \\u. x (x u)) (\\v. w v) w",
    "\\w. \\u. (\\x. x x) (\\v. u v) w",
    "\\w. (\\x. \\u. u x) w",
    "\\w. (\\x. a x (x a)) (\\v. w v)",
    "\\w. \\u. (\\x. \\t. x (x t)) (\\v. b w (u v))",
]


def inputs() -> list[str]:
    return [
        *(f"{corpus.church(m)} {corpus.church(n)} y z" for m, n in CHURCH_PAIRS),
        *(pretty(m) for m, _ in corpus.generate_sn_samples(200, seed=1)),
        *OPEN_HEAD_REDEXES,
    ]


def record(text: str) -> dict:
    inferred = infer_sn(parse_untyped(text), FUEL)
    return {"input": text, "term": pretty(inferred.term),
            "context": str(inferred.context), "type": pretty(inferred.type_)}


# Missing only while the file is regenerated; the coverage test then fails.
CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_covers_the_inputs(sn_samples):
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    church_count = len(CHURCH_PAIRS)
    assert [case["input"] for case in cases[:church_count]] == [
        f"{corpus.church(m)} {corpus.church(n)} y z" for m, n in CHURCH_PAIRS]
    samples = cases[church_count:church_count + len(sn_samples)]
    assert [parse_untyped(case["input"]) for case in samples] == [m for m, _ in sn_samples]
    assert [case["input"] for case in cases[church_count + len(sn_samples):]] == (
        OPEN_HEAD_REDEXES)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_infer_sn_matches_golden(index):
    case = CASES[index]
    assert record(case["input"]) == case


if __name__ == "__main__":
    cases = [record(text) for text in inputs()]
    old = {case["input"]: case for case in CASES}
    changed = [case["input"] for case in cases if old.get(case["input"]) != case]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}; {len(changed)} changed")
    for text in changed:
        print(f"  changed: {text}")
