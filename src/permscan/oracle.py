"""Generate-and-check reference implementations.

These are the ground truth the engines are tested against, and the baseline
the benchmark harness times.  Hits are searched top-down by value: a partial
subsequence always consists of the largest letters of a prospective hit, is
extended by choosing the next-smaller letter, and is pruned as soon as its
standardization is no upfix of any pattern (or too few smaller letters
remain to finish one).  Detection and full counting share this walk; the
detector exits on the first hit.

Every function is pure; pass a ``SubseqCounter`` to observe how many partial
subsequences a call examined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator

from .avoiders import PatternSet
from .permcore import PackedPerm, insert_pos, standardize


@dataclass
class SubseqCounter:
    """Tally of partial subsequences examined during oracle calls."""

    examined: int = 0


@dataclass(frozen=True)
class SubseqCursor:
    """A partial hit: chosen positions (walked largest value first) and the
    packed standardization of the chosen letters."""

    positions: tuple[int, ...]
    st_word: int
    min_value: int


def _need_floor(pat: PatternSet) -> list[int]:
    # need_floor[j] = smallest value usable as the j-th chosen letter:
    # enough smaller letters must remain to finish the shortest viable pattern
    lengths = pat.lengths()
    floor = [1] * (pat.k + 2)
    for j in range(1, pat.k + 1):
        need = min((l - j for l in lengths if l >= j), default=None)
        floor[j] = 1 if need is None else need + 1
    return floor


def _search(p: PackedPerm, pat: PatternSet, early_exit: bool,
            counter: SubseqCounter | None,
            trace: list[SubseqCursor] | None) -> int:
    n = p.length
    layout = p.layout
    pos_of = [0] * (n + 2)
    for i, v in enumerate(p.letters(), start=1):
        pos_of[v] = i
    floor = _need_floor(pat)
    words = pat.words
    found = 0

    def extend(pos_mask: int, st: int, depth: int, min_value: int,
               chosen: tuple[int, ...]) -> bool:
        nonlocal found
        table = pat.upfix_table(depth + 1)
        lo = floor[depth + 1]
        for v in range(min_value - 1, lo - 1, -1):
            pos = pos_of[v]
            if counter is not None:
                counter.examined += 1
            below = (pos_mask & ((1 << (pos - 1)) - 1)).bit_count()
            st2 = insert_pos(st + layout.ones(depth), below + 1, 1, layout)
            if st2 not in table:
                continue
            chosen2 = chosen + (pos,) if trace is not None else chosen
            if trace is not None:
                trace.append(SubseqCursor(chosen2, st2, v))
            if st2 in words:
                found += 1
                if early_exit:
                    return True
            if depth + 1 < pat.k:
                if extend(pos_mask | (1 << (pos - 1)), st2, depth + 1, v, chosen2):
                    return True
        return False

    extend(0, 0, 0, n + 1, ())
    return found


def oracle_contains(p: PackedPerm, pat: PatternSet,
                    counter: SubseqCounter | None = None,
                    trace: list[SubseqCursor] | None = None) -> bool:
    """True iff some subsequence of p is order-isomorphic to a pattern."""
    return _search(p, pat, True, counter, trace) > 0


def oracle_count_hits(p: PackedPerm, pat: PatternSet,
                      counter: SubseqCounter | None = None,
                      trace: list[SubseqCursor] | None = None) -> int:
    """Exact number of hits of all patterns in p (one count per pattern and
    subsequence pair)."""
    return _search(p, pat, False, counter, trace)


def oracle_count_covincular(p: PackedPerm, pattern: PackedPerm,
                            adjacencies: "frozenset[int] | set[int]") -> int:
    """Hits of `pattern` whose letters also satisfy the value-adjacency
    constraints: x in adjacencies (1 <= x <= k-1) forces the letters playing
    x and x+1 to have consecutive values in p; 0 forces the smallest letter
    of the hit to be 1; k forces the largest to be n."""
    k = pattern.length
    n = p.length
    bad = [x for x in adjacencies if not 0 <= x <= k]
    if bad:
        raise ValueError(f"adjacency indices {bad} out of 0..{k}")
    if k > n:
        return 0
    letters = p.letters()
    target = pattern.word
    layout = p.layout
    count = 0
    for combo in combinations(range(n), k):
        vals = [letters[i] for i in combo]
        if standardize(vals, layout).word != target:
            continue
        ranked = sorted(vals)
        ok = True
        for x in adjacencies:
            if x == 0:
                ok = ranked[0] == 1
            elif x == k:
                ok = ranked[-1] == n
            else:
                ok = ranked[x] == ranked[x - 1] + 1
            if not ok:
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# whole-of-S_n sweeps: --oracle-check, the test suite and the timed baseline

def hit_census(p: PackedPerm, k: int) -> dict[int, int]:
    """Number of hits of every length-k pattern at once: maps the packed
    word of each occurring pattern to its hit count in p."""
    n = p.length
    if k > n:
        return {}
    letters = p.letters()
    layout = p.layout
    census: dict[int, int] = {}
    for combo in combinations(range(n), k):
        w = standardize([letters[i] for i in combo], layout).word
        census[w] = census.get(w, 0) + 1
    return census


def _level(pat: PatternSet, m: int) -> Iterator[PackedPerm]:
    return (PackedPerm.from_letters(tup, pat.layout)
            for tup in permutations(range(1, m + 1)))


def oracle_avoider_levels(pat: PatternSet, n: int, counter: SubseqCounter | None = None
                          ) -> dict[int, set[PackedPerm]]:
    """Ground-truth avoiders of lengths 1..n by filtering all of S_<=n."""
    return {m: {q for q in _level(pat, m) if not oracle_contains(q, pat, counter)}
            for m in range(1, n + 1)}


def oracle_hit_histogram(pat: PatternSet, n: int, counter: SubseqCounter | None = None
                         ) -> dict[int, dict[int, int]]:
    """Ground-truth tally {length: {hit count: multiplicity}} over S_<=n."""
    out: dict[int, dict[int, int]] = {}
    for m in range(1, n + 1):
        level: dict[int, int] = {}
        for q in _level(pat, m):
            hits = oracle_count_hits(q, pat, counter)
            level[hits] = level.get(hits, 0) + 1
        out[m] = level
    return out
