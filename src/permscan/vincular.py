"""Counting covincular-pattern occurrences.

A covincular pattern is a pattern plus value-adjacency constraints: an index
x with 1 <= x <= k-1 forces the letters playing pattern values x and x+1 to
have consecutive values in the host, 0 anchors the smallest letter of a hit
to the host's 1, and k anchors the largest to the host's n.  Consecutive
patterns are the special case X = {1..k-1}.  Vincular patterns (the dashed
notation, with position-adjacency constraints) convert to covincular form by
inverting the pattern; see ``VincularPattern``.

The profile recurrence extends the classical one with a pass-through case:
when the constraint between the i-th and (i+1)-st largest pattern values is
active (that is, k - i is constrained), a hit using the host's entire
i-upfix cannot skip the (i+1)-st largest host letter, so P_i = P_{i+1} and
no deletion term appears.  Every engine here is an engine of ``counting``
given these pass-through indices: ``covincular_count_all`` and
``covincular_count_set`` run its dense profile step,
``covincular_count_downset`` its hash-table step for streamed downsets (the
reference for the dense one), and ``covincular_profile`` its single-host
recurrence.

Only counting is provided.  Building the avoider set with these patterns is
rejected: deleting a letter can create a covincular hit that was not there,
so the avoiders of a covincular pattern do not form a downset and the
construction this package is built on does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable

import numpy as np

from .avoiders import PatternSet, _check_n
from .counting import CountTally, HitProfile
from .counting import (_DENSE_MAX_N, _bincount_into, _count_stream, _dense_levels,
                       _dense_tally, _histogram_tally, _host_profile, _lowmem_tally)
from .permcore import PackedPerm, PartialInverse, inverse_perm


class UnsupportedConstructionError(NotImplementedError):
    """Raised for operations that are unsound for covincular patterns."""


@dataclass(frozen=True)
class CovincularPattern:
    """A pattern with value-adjacency constraints X, a subset of {0..k}."""

    pattern: PackedPerm
    adjacencies: frozenset[int]

    def __post_init__(self) -> None:
        k = self.pattern.length
        bad = [x for x in self.adjacencies if not 0 <= x <= k]
        if bad:
            raise ValueError(f"adjacency indices {bad} out of 0..{k}")
        if k < 1:
            raise ValueError("covincular pattern needs a nonempty pattern")

    @property
    def k(self) -> int:
        return self.pattern.length

    def is_consecutive(self) -> bool:
        return self.adjacencies == frozenset(range(1, self.k))

    def __str__(self) -> str:
        adj = ",".join(str(x) for x in sorted(self.adjacencies))
        return f"({self.pattern},{{{adj}}})"

    def passes_through(self, i: int) -> bool:
        """Whether P_i = P_{i+1}: the pair of pattern values (k-i, k-i+1)
        carries a constraint that a hit missing the (i+1)-st largest host
        letter could never satisfy."""
        return (self.k - i) in self.adjacencies


@dataclass(frozen=True)
class VincularPattern:
    """Dash-notation pattern with position-adjacency constraints.

    ``dashes`` holds i when a dash follows the i-th letter (so letters i and
    i+1 of the pattern must sit in adjacent host positions), 0 for a leading
    dash (hit starts at host position 1) and k for a trailing dash (hit ends
    at position n).  Inverting the pattern turns position adjacency into
    value adjacency with the same index set: hits of the vincular pattern in
    a host correspond to hits of ``to_covincular()`` in the host's inverse.
    """

    pattern: PackedPerm
    dashes: frozenset[int]

    def __post_init__(self) -> None:
        k = self.pattern.length
        bad = [x for x in self.dashes if not 0 <= x <= k]
        if bad:
            raise ValueError(f"dash positions {bad} out of 0..{k}")

    def to_covincular(self) -> CovincularPattern:
        return CovincularPattern(inverse_perm(self.pattern), self.dashes)


def parse_vincular(text: str) -> VincularPattern:
    """Parse dash notation like "-12-3": a dash before the first letter, after
    the last, or between letters i and i+1 contributes 0, k, or i."""
    text = text.strip()
    if not text:
        raise ValueError("empty vincular pattern")
    dashes = set()
    letters = []
    for ch in text:
        if ch == "-":
            if len(letters) in dashes:
                raise ValueError(f"repeated dash in vincular pattern {text!r}")
            dashes.add(len(letters))
        elif ch.isdigit() and ch != "0":
            letters.append(int(ch))
        else:
            raise ValueError(f"bad vincular pattern {text!r}")
    return VincularPattern(PackedPerm.from_letters(letters), frozenset(dashes))


# ---------------------------------------------------------------------------
# profile recurrence

def covincular_profile(p: PackedPerm, cov: CovincularPattern,
                       lookup: Callable[[PackedPerm, int], int],
                       inv: PartialInverse | None = None) -> HitProfile:
    """Profile of p for one covincular pattern, given P_i of p's deletions.

    Cases, for i below both n and k: pass-through (P_{i+1}) when the top
    pair at i is constrained, otherwise the classical sum; at i = n the
    profile tests p against the pattern itself (the anchors hold trivially
    there); everything above k or n is zero.
    """
    return _host_profile(p, cov.k, p.word == cov.pattern.word, lookup, inv,
                         _through(cov))


def covincular_count_all(cov: CovincularPattern, n: int,
                         stats: dict | None = None) -> CountTally:
    """Tally of covincular hit counts over every permutation of lengths
    1..n, by the dense profile step of ``counting`` with the pass-through
    indices of ``cov`` (``count_all``'s windows up to n = 11,
    ``count_all_lowmem``'s above).  ``stats['profile_entries']`` counts the
    recurrence's P values: P_0..P_min(k, m) per host of length m, the top
    one read off its code."""
    layout = cov.pattern.layout
    _check_n(n, layout)
    pat = PatternSet.build([cov.pattern])
    if n <= _DENSE_MAX_N:
        tally = _dense_tally(pat, n, _through(cov))
    else:
        tally = _lowmem_tally(pat, n, _through(cov), None)
    if stats is not None:
        stats["profile_entries"] = sum(factorial(m) * (min(cov.k, m) + 1)
                                       for m in range(1, n + 1))
    return tally


def _through(cov: CovincularPattern) -> frozenset[int]:
    return frozenset(i for i in range(cov.k + 1) if cov.passes_through(i))


def covincular_count_downset(
        stream: Iterable[tuple[PackedPerm, PartialInverse | None]],
        cov: CovincularPattern, stats: dict | None = None) -> CountTally:
    """Tally over a downset streamed in nondecreasing length with partial
    inverses (recomputed when too shallow), as in ``counting.count_downset``:
    the same hash-table step, with the pass-through indices of ``cov``.
    ``stats['profile_entries']`` is the number of P values computed."""
    return _count_stream(stream, PatternSet.build([cov.pattern]), _through(cov),
                         stats=stats)


def covincular_count_set(patterns: Iterable[CovincularPattern], n: int) -> CountTally:
    """Tally of total hits of several covincular patterns over S_<=n.

    Covincular profiles do not combine across patterns the way classical
    ones do, so each pattern runs its own dense traversal and the
    per-permutation totals are summed before tallying.  Every pattern cuts
    its windows as the longest pattern would, so they line up.  n is at
    most 11, as for ``count_all``.
    """
    covs = list(patterns)
    if not covs:
        raise ValueError("no patterns given")
    _check_n(n, covs[0].pattern.layout)
    if n > _DENSE_MAX_N:
        raise ValueError("covincular_count_set holds whole m! levels only up to the "
                         f"longest pattern's length and stops at n = {_DENSE_MAX_N}; n={n}")
    hist: dict[int, np.ndarray] = {}
    per_pattern = [_dense_levels(PatternSet.build([c.pattern]), n, _through(c),
                                 align_k=max(c.k for c in covs))
                   for c in covs]
    for levels in zip(*per_pattern):
        _bincount_into(hist, levels[0][0], sum(cur[0] for _, cur in levels))
    return _histogram_tally(hist)


def build_covincular_avoiders(*args, **kwargs):
    """Unsupported: covincular avoiders are not closed under letter deletion
    (removing a letter can create a hit), so the bottom-up construction used
    for classical patterns is unsound here."""
    raise UnsupportedConstructionError(
        "building S_n of covincular avoiders is unsupported: avoider sets of "
        "covincular patterns are not downsets")
