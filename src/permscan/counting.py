"""Counting pattern hits in every permutation of a downset.

The central quantity is the profile P_0..P_{k+1} of a host permutation:
P_i is the number of hits that use the host's entire i-upfix, so P_0 is the
total hit count.  P obeys a one-step recurrence: a hit using the i-upfix
either also uses the (i+1)-st largest letter (counted by P_{i+1}) or
survives deleting it (counted by P_i of that deletion).  Processing hosts in
increasing length therefore costs O(k) per host.

Engines:

* ``count_all`` and ``count_all_lowmem`` - every permutation of lengths
  1..n, by one traversal with two window sizes.  Hosts are indexed by
  their max-insertion history (a mixed-radix code), which makes each level a
  dense array; each deletion rewrites only the last digits of the code, so
  the profile step gathers the level below through a small table per
  (length, rank) and runs as vector operations; P_k, which depends on the
  last k digits alone, is read off them.  Levels up to k come whole, one
  window each; above k, a window gathers only from the window one level down
  whose image it was cut from, so the traversal goes depth first and holds
  one window per level, never a whole level: ``count_all`` cuts windows of
  about 2^16 hosts, ``count_all_lowmem`` windows of at most 2^13 hosts of
  whole tree-node batches, which bounds its live rows by O(n^{k+1}).
  ``vincular.covincular_count_all`` runs both with a pass-through set.
* ``_profile_hosts`` - the one hash-table step for streamed hosts: it keeps
  the previous length's profiles in a dict keyed by word, and computes each
  profile only up to the first upfix of the host that is not an upfix of a
  pattern (everything above is zero and is never needed again), which gives
  amortized O(1) per host for a single pattern.  Its engines wrap it and
  share one tally loop, ``_tally``: ``count_downset`` and
  ``vincular.covincular_count_downset`` (pass-through set) over any streamed
  downset, ``count_single_fast`` and ``build_bounded_hits`` (hosts of more
  than j hits rejected, not extended) over the max-insertion stream of S_<=n.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from math import factorial, prod
from typing import Callable, Iterable, Iterator

import numpy as np

from .avoiders import PatternSet, _check_n, _insertion_code
from .permcore import (
    PackedPerm,
    PartialInverse,
    PermLayout,
    deletion_chain,
    insert_pos,
    max_insertion_inverses,
    pack,
    _scan_upfixes,
)


class ClosureViolationError(LookupError):
    """A needed shorter permutation was never supplied: the input set is not
    closed under deleting a letter and standardizing."""


@dataclass(frozen=True)
class HitProfile:
    """P_0..P_{k+1} for one host: P_i counts the hits containing the host's
    entire i-upfix."""

    values: tuple[int, ...]

    @property
    def p0(self) -> int:
        return self.values[0]

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class CountTally:
    """Per length, a sparse map from hit count to how many permutations of
    the processed set have that many hits."""

    by_length: dict[int, dict[int, int]]

    def level(self, m: int) -> dict[int, int]:
        return self.by_length.get(m, {})

    def total(self, m: int) -> int:
        return sum(self.by_length.get(m, {}).values())

    def hits_sum(self, m: int) -> int:
        return sum(h * c for h, c in self.by_length.get(m, {}).items())

    def zero_counts(self) -> dict[int, int]:
        return {m: lvl.get(0, 0) for m, lvl in self.by_length.items()}

    def rows(self) -> list[tuple[int, int, int]]:
        out = []
        for m in sorted(self.by_length):
            for hits in sorted(self.by_length[m]):
                out.append((m, hits, self.by_length[m][hits]))
        return out

    def add(self, m: int, hits: int, mult: int = 1) -> None:
        lvl = self.by_length.setdefault(m, {})
        lvl[hits] = lvl.get(hits, 0) + mult


# ---------------------------------------------------------------------------
# single-host profile (the public recurrence step)

def count_profile(p: PackedPerm, pat: PatternSet,
                  lookup: Callable[[PackedPerm, int], int],
                  inv: PartialInverse | None = None) -> HitProfile:
    """Profile of p, given P_i values of its one-letter deletions.

    ``lookup(q, i)`` must return P_i(q) for every deletion q of p actually
    requested; a KeyError from it is reported as a downset-closure
    violation.  The deletions come from the constant-time chain; ``inv``
    (valid in the top k+1 values) saves recomputing the inverse it reads.
    """
    return _host_profile(p, pat.k, p.word in pat.words, lookup, inv)


def _host_profile(p: PackedPerm, k: int, is_pattern: bool,
                  lookup: Callable[[PackedPerm, int], int],
                  inv: PartialInverse | None,
                  through: frozenset[int] = frozenset()) -> HitProfile:
    """The recurrence for one host p of a length-k pattern (or set), with
    P_i = P_{i+1} for i in ``through`` (the covincular pass-through case)."""
    n = p.length
    values = [0] * (k + 2)
    if n <= k and is_pattern:
        values[n] = 1
    top = min(k + 1, n)
    if inv is None or inv.valid_count < top:
        inv = PartialInverse.from_perm(p, top)
    dels = deletion_chain(p.word, n, inv.word, top, p.layout)
    for i in range(min(k, n - 1), -1, -1):
        if i in through:
            values[i] = values[i + 1]
            continue
        q = PackedPerm(dels[i + 1], n - 1, p.layout)
        try:
            values[i] = lookup(q, i) + values[i + 1]
        except KeyError as exc:
            raise ClosureViolationError(
                f"missing P_{i} of {q}: input is not a downset") from exc
    return HitProfile(tuple(values))


# ---------------------------------------------------------------------------
# dense engines: one depth-first traversal of windows
#
# Level m is ordered by insertion code: a permutation's index is
# I(parent) * m + (position of the maximum - 1), so the index is a
# mixed-radix numeral whose digit for letter t is t's insertion position.
# Deleting the letter v rewrites only the digits of letters v..m (the
# suffix).  The deletion's index in level m-1 is therefore
# prefix * S' + T[suffix], where T is a table of m(m-1)...v entries and S'
# counts the suffixes one level down, and a whole level gathers as
# prev.reshape(-1, S').take(T, axis=1).  Any run of whole rows of the
# largest table, hosts [a, b), gathers from the slice prev[a/m : b/m] alone
# (the smaller tables' sizes divide the largest's).
#
# So no level above k is held whole.  A window is a run of hosts [a, b) of
# level m in whole d-digit rows (the last d digits, m(m-1)...(m-d+1)
# hosts); it gathers from the window [p, q) of level m-1 whose image
# [p*m, q*m) it was cut from, which is whole d-digit rows when [p, q) is
# whole (d-1)-digit rows.  Each window is tallied, its children are cut
# from its image and stepped, and then it is dropped: the path holds one
# window per level.
#
# Profiles are int32: P_i is at most the hit count, and a host of length
# n <= 25 has at most 2^n <= 2^25 hits (one per subset of its letters).

_DENSE_MAX_N = 11  # count_all's largest n; --engine auto runs count_all_lowmem above
_CHUNK_HOSTS = 1 << 16  # hosts per window of count_all


def _membership_vector(pat: PatternSet, m: int) -> np.ndarray:
    """[word in Pi] for level m <= k, in insertion-code order: the host with
    insertion code c_1..c_m has index sum (c_t - 1) * m!/t!."""
    member = np.zeros(factorial(m), dtype=np.int32)
    for p in pat.patterns:
        if p.length == m:
            code = _insertion_code(p.word, m, pat.layout.bits)
            member[sum((c - 1) * prod(range(t + 1, m + 1)) for t, c in enumerate(code, 1))] = 1
    return member


@cache
def _deletion_table(m: int, rank: int) -> np.ndarray:
    """T over the suffixes (digits of letters v..m, v = m - rank + 1) of a
    level-m index: the suffix, one level down, left by deleting v."""
    v = m - rank + 1
    rest = np.arange(prod(range(v, m + 1)))
    p0 = rest // prod(range(v + 1, m + 1))  # v's position, tracked as letters above arrive
    T = np.zeros_like(p0)
    for t in range(v + 1, m + 1):
        c = rest // prod(range(t + 1, m + 1)) % t
        T = T * (t - 1) + c - (c > p0)
        p0 = p0 + (c <= p0)
    return T


@cache
def _top_codes(m: int, j: int) -> np.ndarray:
    """Over the suffixes (digits of letters m-j+1..m) of a level-m index:
    the level-j index of those j letters standardized."""
    rest = np.arange(prod(range(m - j + 1, m + 1)))
    code = np.zeros_like(rest)
    pos: list[np.ndarray] = []  # positions of the letters placed so far
    for s, t in enumerate(range(m - j + 1, m + 1), 1):
        c = rest // prod(range(t + 1, m + 1)) % t  # c letters precede t
        code = code * s + sum(p < c for p in pos)
        pos = [p + (p >= c) for p in pos] + [c]
    return code


def _gather(src: np.ndarray, m: int, rank: int) -> np.ndarray:
    """src (indexed one level below m) at each level-m host's rank-th deletion."""
    sub = prod(range(m - rank + 1, m))  # S', the suffixes one level down
    if sub == 1:
        return src.repeat(m)
    return src.reshape(-1, sub).take(_deletion_table(m, rank), axis=1).ravel()


def _profile_step(top: int, acc: np.ndarray | None, size: int,
                  through: frozenset[int], gather) -> list[np.ndarray]:
    """P_0..P_top of a batch of ``size`` hosts from acc = P_{top+1}: None
    for zero, or a period that repeats along the batch and is added by
    broadcast.  P_i = gather(i) + P_{i+1}, where gather(i) is P_i of each
    host's (i+1)-st down-deletion, or P_i = P_{i+1} for i in ``through``
    (the covincular pass-through case)."""
    cur: list[np.ndarray] = [None] * (top + 1)
    for i in range(top, -1, -1):
        if i not in through:
            g = gather(i)
            if acc is not None:
                rows = g.reshape(-1, acc.size)
                rows += acc
            acc = g
        elif acc is None or acc.size < size:  # P_{i+1} over the whole batch
            acc = np.resize(np.int32(0) if acc is None else acc, size)
        cur[i] = acc
    return cur


def _dense_levels(pat: PatternSet, n: int, through: frozenset[int] = frozenset(),
                  align_k: int = 0, run: int = 0):
    """Yield (m, P_arrays) over levels m = 1..n; P_arrays[i] is P_i in
    insertion-code order, for i = 0..m up to level k (P_m is the membership
    vector) and i = 0..k-1 above, where P_k is read off the top codes.
    Levels up to k come whole, one window each (a unit of m!).  Above k
    they come as windows, depth first: each window before the windows cut
    from its image, and a level's windows, in order, cover it.  A window is
    about _CHUNK_HOSTS hosts of whole (K+1)-digit rows, K = align_k or k, so
    patterns up to length align_k cut alike; with ``run``, it is at most
    max(run, one batch) hosts of whole k-digit batches, the low-memory cut."""
    k = pat.k
    digits, budget = (k, run) if run else ((align_k or k) + 1, _CHUNK_HOSTS)

    @cache
    def top(m: int) -> np.ndarray | None:  # P_min(m, k) of level m, None for zero
        if m <= k:
            return _membership_vector(pat, m)
        return None if k in through else top(k).take(_top_codes(m, k))

    def windows(m: int, parent: list[np.ndarray], p: int, q: int):
        # parent is P_0.. of level m-1 over hosts [p, q), the whole level up to k
        unit = prod(range(max(1, m - digits + 1), m + 1))
        step = max(1, budget // unit) * unit
        for a in range(p * m, q * m, step):
            b = min(a + step, q * m)
            cur = _profile_step(min(m, k) - 1, top(m), b - a, through,
                                lambda i: _gather(parent[i][a // m - p:b // m - p], m, i + 1))
            if m <= k:
                cur.append(top(m))
            yield m, cur
            if m < n:
                yield from windows(m + 1, cur, a, b)

    yield from windows(1, [np.zeros(1, dtype=np.int32)], 0, 1)


def _bincount_into(hist: dict[int, np.ndarray], m: int, hits: np.ndarray) -> None:
    old = hist.get(m, np.zeros(0, dtype=np.intp))
    hist[m] = counts = np.bincount(hits, minlength=old.size)
    counts[:old.size] += old


def _histogram_tally(hist: dict[int, np.ndarray]) -> CountTally:
    return CountTally({m: {h: c for h, c in enumerate(counts.tolist()) if c}
                       for m, counts in sorted(hist.items())})


def _dense_tally(pat: PatternSet, n: int, through: frozenset[int] = frozenset(),
                 run: int = 0, stats: dict | None = None) -> CountTally:
    """Histogram of P_0 over ``_dense_levels``.  ``stats`` receives
    ``max_live_profile_rows``: the most hosts held at once, level
    min(k, m) whole plus the path's window at each level above it."""
    k = pat.k
    hist: dict[int, np.ndarray] = {}
    path: dict[int, int] = {}
    peak = 0
    for m, cur in _dense_levels(pat, n, through, run=run):
        _bincount_into(hist, m, cur[0])
        path[m] = cur[0].size
        peak = max(peak, sum(path[j] for j in range(min(k, m), m + 1)))
    if stats is not None:
        stats["max_live_profile_rows"] = peak
    return _histogram_tally(hist)


def count_all(pat: PatternSet, n: int) -> CountTally:
    """Tally of hit counts over every permutation of lengths 1..n."""
    if n > _DENSE_MAX_N:
        raise ValueError(f"count_all stops at n = {_DENSE_MAX_N}; "
                         f"use count_all_lowmem for n={n}")
    _check_n(n, pat.layout)
    return _dense_tally(pat, n)


# ---------------------------------------------------------------------------
# streamed downsets (hash-table engine)

def _profile_hosts(hosts: Iterable[tuple[int, int, int]], pat: PatternSet,
                   through: frozenset[int] = frozenset(), budget: int | None = None,
                   ) -> Iterator[tuple[tuple[int, int, int], tuple[int, ...]]]:
    """The hash-table profile step over hosts (word, length, inverse word)
    streamed in nondecreasing length, each inverse valid in the host's top
    k+1 values; yields (host, (P_0..P_g)) per kept host.

    g is the deepest upfix of the host that is an upfix of a pattern: P_i
    above it is zero and never requested by longer hosts, so the deletion
    chain and the recurrence stop there.  P_i = P_{i+1} for i in ``through``
    (the covincular pass-through case).  Only the previous length's profiles
    are kept.  A length that goes down, or a host streamed twice, raises
    ValueError; a host whose deletion was never kept raises
    ClosureViolationError.  With a ``budget``, such a host and one with more
    hits than the budget are dropped instead, and g is min(k, m) (the scan
    would cost more than it saves on candidates that are mostly rejected).
    """
    k = pat.k
    layout = pat.layout
    pi_words = pat.words
    upfixes = [pat.upfix_table(i) for i in range(k + 1)]

    def is_upfix(i: int, st: int) -> bool:
        return st in upfixes[i]

    prev: dict[int, tuple[int, ...]] = {0: ()}
    cur: dict[int, tuple[int, ...]] = {}
    cur_len = 0
    for host in hosts:
        word, m, inv_word = host
        if m < cur_len:
            raise ValueError("stream must be nondecreasing in length")
        while m > cur_len:
            prev, cur = (cur if cur_len else prev), {}
            cur_len += 1
        if word in cur:
            raise ValueError(f"host {PackedPerm(word, m, layout)} streamed twice")
        if budget is None:
            g = _scan_upfixes(m, inv_word, min(k, m), layout, is_upfix)
        else:
            g = min(k, m)
        dels = deletion_chain(word, m, inv_word, min(g + 1, m), layout)
        prof = [0] * (g + 1)
        acc = 0
        for i in range(g, -1, -1):
            if i == m:
                acc = 1 if word in pi_words else 0
            elif i not in through:
                stored = prev.get(dels[i + 1])
                if stored is None:
                    if budget is None:
                        raise ClosureViolationError(
                            f"missing length-{m - 1} member below "
                            f"{PackedPerm(word, m, layout)}: input is not a downset")
                    acc = budget + 1  # dropped below
                    break
                if i < len(stored):
                    acc += stored[i]
            prof[i] = acc
        if budget is not None and acc > budget:
            continue
        cur[word] = prof = tuple(prof)
        yield host, prof


def _max_insertion_hosts(layout: PermLayout, k: int, parents: deque[tuple[int, int, int]],
                         ) -> Iterator[tuple[int, int, int]]:
    """Yield the host 1, then every max-insertion child of each host the
    consumer appends to ``parents`` (in the order appended), as (word,
    length, inverse word) with the inverse valid in the top k+1 values."""
    yield pack([1], layout), 1, 1
    while parents:
        word, m, inv_word = parents.popleft()
        for i, ci in enumerate(max_insertion_inverses(inv_word, m, k + 1, layout), 1):
            yield insert_pos(word, i, m + 1, layout), m + 1, ci


def _count_stream(stream: Iterable[tuple[PackedPerm, PartialInverse | None]],
                  pat: PatternSet, through: frozenset[int] = frozenset(),
                  emit: Callable[[PackedPerm, HitProfile], None] | None = None,
                  stats: dict | None = None) -> CountTally:
    """``_tally`` of ``_profile_hosts`` over (perm, partial inverse) pairs;
    an inverse shallower than the top k+1 values is recomputed."""
    k = pat.k
    layout = pat.layout

    def hosts():
        for perm, inv in stream:
            if perm.layout is not layout and perm.layout != layout:
                raise ValueError(f"host {perm} has layout {perm.layout}, "
                                 f"the patterns have layout {layout}")
            m = perm.length
            if inv is None or inv.valid_count < min(m, k + 1):
                inv = PartialInverse.from_perm(perm, min(m, k + 1))
            yield perm.word, m, inv.word

    return _tally(_profile_hosts(hosts(), pat, through), pat, emit, stats)


def _tally(profiles: Iterable[tuple[tuple[int, int, int], tuple[int, ...]]],
           pat: PatternSet, emit: Callable[[PackedPerm, HitProfile], None] | None = None,
           stats: dict | None = None) -> CountTally:
    """The one loop the hash-table engines share: tally each kept host's
    P_0 and pass it with its profile to ``emit``.  ``stats`` receives
    ``profile_entries``, the number of P values computed."""
    tally = CountTally({})
    entries = 0
    for (word, m, _), prof in profiles:
        entries += len(prof)
        tally.add(m, prof[0])
        if emit is not None:
            emit(PackedPerm(word, m, pat.layout),
                 HitProfile(prof + (0,) * (pat.k + 2 - len(prof))))
    if stats is not None:
        stats["profile_entries"] = entries
    return tally


def _grown_profiles(pat: PatternSet, n: int, budget: int | None = None,
                    ) -> Iterator[tuple[tuple[int, int, int], tuple[int, ...]]]:
    """``_profile_hosts`` over the max-insertion stream of S_<=n, extending
    every kept host shorter than n."""
    parents: deque[tuple[int, int, int]] = deque()
    for host, prof in _profile_hosts(_max_insertion_hosts(pat.layout, pat.k, parents),
                                     pat, budget=budget):
        if host[1] < n:
            parents.append(host)
        yield host, prof


def count_downset(stream: Iterable[tuple[PackedPerm, PartialInverse | None]],
                  pat: PatternSet,
                  emit: Callable[[PackedPerm, HitProfile], None] | None = None,
                  ) -> CountTally:
    """Tally hit counts over a downset streamed in nondecreasing length.

    Each element comes with a partial inverse valid in its top k+1 values
    (elements built by repeated max-insertion have these for free; anything
    shallower is recomputed here).  Profiles are stored only up to the first
    upfix of the host that is no upfix of any pattern; entries beyond are
    zero and are never requested by longer hosts.  A host whose deletion was
    never streamed raises ClosureViolationError; a host streamed twice, or
    one whose word layout is not the patterns', raises ValueError.
    """
    return _count_stream(stream, pat, emit=emit)


# ---------------------------------------------------------------------------
# permutations with at most j hits

@dataclass
class BoundedHits:
    """Permutations of lengths 1..n with at most `budget` hits, by length,
    with the profile of every member."""

    budget: int
    levels: dict[int, set[PackedPerm]]
    profiles: dict[PackedPerm, HitProfile]


def build_bounded_hits(pat: PatternSet, n: int, budget: int) -> BoundedHits:
    """Bottom-up construction: a candidate is kept iff all its k+1 top
    deletions were kept and its own hit count is within budget; only kept
    hosts are extended."""
    if budget < 0:
        raise ValueError("hit budget must be nonnegative")
    _check_n(n, pat.layout)
    result = BoundedHits(budget, {m: set() for m in range(1, n + 1)}, {})

    def keep(q: PackedPerm, prof: HitProfile) -> None:
        result.levels[q.length].add(q)
        result.profiles[q] = prof

    _tally(_grown_profiles(pat, n, budget), pat, keep)
    return result


# ---------------------------------------------------------------------------
# single-pattern engine with the upfix cutoff

def count_single_fast(pattern: PackedPerm, n: int,
                      stats: dict | None = None) -> CountTally:
    """Tally for a single pattern over S_<=n in Theta(n!) total work.

    For each host only P_0..P_g are computed, g being the deepest upfix of
    the host order-isomorphic to the pattern's; sum of g over a level is a
    vanishing fraction of the level, so work per host is amortized constant.
    ``stats['profile_entries']`` reports exactly how many P values were
    computed.
    """
    pat = PatternSet.build([pattern])
    _check_n(n, pat.layout)
    return _tally(_grown_profiles(pat, n), pat, stats=stats)


# ---------------------------------------------------------------------------
# low-memory engine: the dense traversal in windows of sibling batches

_LOWMEM_RUN = 1 << 13  # hosts per window of count_all_lowmem

def count_all_lowmem(pat: PatternSet, n: int, stats: dict | None = None) -> CountTally:
    """Same tally as ``count_all`` holding O(n^{k+1}) profile rows.

    The k-level descendants of a tree node form one dense batch (indexed by
    the node-relative suffix of the insertion code, k digits), and the
    batches of a node's children are the image of its own.  The traversal
    of ``count_all`` runs here in windows of at most _LOWMEM_RUN hosts of
    whole batches (at least one), which may span the children of several
    nodes, so the small batches of short patterns do not pay per-call
    overhead one by one.  The live rows are level k plus one window per
    deeper level along the path, a window being at most max(2^13, one
    batch) hosts.  ``stats`` receives ``max_live_profile_rows`` (a row is
    one host's k profile values P_0..P_{k-1}; P_k is read off its code).
    """
    _check_n(n, pat.layout)
    return _lowmem_tally(pat, n, frozenset(), stats)


def _lowmem_tally(pat: PatternSet, n: int, through: frozenset[int],
                  stats: dict | None) -> CountTally:
    return _dense_tally(pat, n, through, _LOWMEM_RUN, stats)
