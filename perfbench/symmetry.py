"""Pattern sets as letter tuples, and the symmetries that keep their results.

Inverse, reverse and complement (applied to every pattern) generate a group
of 8 maps.  Avoider counts and hit-count histograms are the same for every
image of a pattern set, so the workload generator can hand permscan a
seeded image while the checks use the numbers recorded for the class.  A
covincular pattern keeps its histogram under reverse and complement only
(inverse turns value adjacency into position adjacency).

This module does not import permscan: the inputs must not depend on the
program under test.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Perm = tuple[int, ...]


def inverse(p: Sequence[int]) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def reverse(p: Sequence[int]) -> Perm:
    return tuple(reversed(p))


def complement(p: Sequence[int]) -> Perm:
    return tuple(len(p) + 1 - v for v in p)


def image(patterns: Iterable[Sequence[int]], g: int) -> tuple[Perm, ...]:
    """Image of a pattern set under symmetry g in 0..7 (bit 0 inverse,
    bit 1 reverse, bit 2 complement), sorted as permscan sorts patterns:
    by length, then by letters."""
    out = []
    for p in patterns:
        p = tuple(p)
        if g & 1:
            p = inverse(p)
        if g & 2:
            p = reverse(p)
        if g & 4:
            p = complement(p)
        out.append(p)
    return tuple(sorted(out, key=lambda q: (len(q), q)))


def covincular_image(pattern: Sequence[int], adjacencies: Iterable[int],
                     g: int) -> tuple[Perm, tuple[int, ...]]:
    """Image of a covincular pattern under g in 0..3 (bit 0 reverse, bit 1
    complement); complement maps adjacency x to k - x."""
    p = tuple(pattern)
    adj = set(adjacencies)
    if g & 1:
        p = reverse(p)
    if g & 2:
        p = complement(p)
        adj = {len(p) - x for x in adj}
    return p, tuple(sorted(adj))


def fmt(p: Sequence[int]) -> str:
    """One-line text permscan parses (digit strings; patterns here have at
    most 4 letters)."""
    return "".join(str(v) for v in p)


def fmt_set(patterns: Iterable[Sequence[int]]) -> str:
    return " ".join(fmt(p) for p in patterns)


def key(patterns: Iterable[Sequence[int]]) -> str:
    """Stable text key of a pattern set, as stored in expected.json."""
    return fmt_set(sorted((tuple(p) for p in patterns), key=lambda q: (len(q), q)))
