"""Fixed reference kernel: the yardstick for host-speed drift.

The benchmark runs a few chunks of this kernel after every timed unit
and reports unit time / kernel time * NOMINAL_CHUNK_S, so a host that
runs everything 20% slower for a second reports the same figure.  The
kernel is built like setlam's hot paths (frozen dataclasses, structural
``match``, recursive tuple sort keys, sorting and hashing) so that it
slows down with them, but it is stdlib-only and never imports setlam.

Editing anything here rescales every corrected time: it starts a new
baseline.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

# Median time of one chunk on the reference host (Python 3.11, 2 vCPUs);
# a constant, not a measurement, so corrected times are comparable.
NOMINAL_CHUNK_S = 0.0010


@dataclass(frozen=True)
class Leaf:
    label: str
    weight: int


@dataclass(frozen=True)
class Node:
    kind: int
    children: tuple


def _build(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.choice("abcdef"), rng.randrange(4))
    width = rng.randint(1, 3)
    return Node(rng.randrange(3), tuple(_build(rng, depth - 1) for _ in range(width)))


def _key(t):
    match t:
        case Leaf(label, weight):
            return (0, label, weight)
        case Node(kind, children):
            return (1, kind, tuple(_key(c) for c in children))
    raise TypeError(t)


def _rebuild(t):
    # A fresh, structurally equal copy: hashing and equality walk it.
    match t:
        case Leaf(label, weight):
            return Leaf(label, weight)
        case Node(kind, children):
            return Node(kind, tuple(sorted((_rebuild(c) for c in children), key=_key)))
    raise TypeError(t)


_rng = random.Random(20250312)
_GROUPS = tuple(tuple(_rebuild(_build(_rng, 5)) for _ in range(6)) for _ in range(1))


def chunk() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0
    for group in _GROUPS:
        copies = [_rebuild(t) for t in group]
        ordered = sorted(copies, key=_key)
        index = {t: i for i, t in enumerate(ordered)}
        total += sum(index[t] for t in group) + len(set(copies))
    return total


def measure(chunks: int) -> float:
    """Seconds taken by `chunks` kernel chunks, with the cyclic GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(chunks):
            chunk()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
