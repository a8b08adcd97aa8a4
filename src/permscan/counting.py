"""Counting pattern hits in every permutation of a downset.

The central quantity is the profile P_0..P_{k+1} of a host permutation:
P_i is the number of hits that use the host's entire i-upfix, so P_0 is the
total hit count.  P obeys a one-step recurrence: a hit using the i-upfix
either also uses the (i+1)-st largest letter (counted by P_{i+1}) or
survives deleting it (counted by P_i of that deletion).  Processing hosts in
increasing length therefore costs O(k) per host.

Engines:

* ``count_all`` - every permutation of lengths 1..n.  Hosts are indexed by
  their max-insertion history (a mixed-radix code), which makes each level a
  dense array; each deletion rewrites only the last digits of the code, so
  the profile step gathers the level below through a small table per
  (length, rank) and whole levels run as vector operations.  The last
  level is only tallied, so it is built in cache-sized pieces and never
  held: the largest array kept is level n-1.
* ``count_all_lowmem`` - identical tally to ``count_all`` via a depth-first
  traversal of the inclusion tree that keeps profile batches only along one
  root-to-leaf path.  A node's consecutive children are stepped together,
  in runs of at most _LOWMEM_RUN = 2^13 hosts (at least one child), each run
  by the same table-gather step over a contiguous slice of the parent's
  batch; so the live rows are the path's batches plus one run per level.
  ``vincular.covincular_count_all`` runs both with a pass-through set.
* ``_profile_hosts`` - the one hash-table step for streamed hosts: it keeps
  the previous length's profiles in a dict keyed by word, and computes each
  profile only up to the first upfix of the host that is not an upfix of a
  pattern (everything above is zero and is never needed again), which gives
  amortized O(1) per host for a single pattern.  Its engines wrap it:
  ``count_downset`` over any streamed downset, ``count_single_fast`` over
  the max-insertion stream of S_<=n, ``build_bounded_hits`` over the same
  stream with the hosts of more than j hits rejected and not extended, and
  ``vincular.covincular_count_downset`` with a pass-through set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import factorial, prod
from typing import Callable, Iterable, Iterator

import numpy as np

from .avoiders import PatternSet, _check_n
from .permcore import (
    PackedPerm,
    PartialInverse,
    PermLayout,
    delete_down,
    delete_down_next,
    insert_pos,
    kill_pos,
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
    dels: list[PackedPerm | None] = [None, delete_down(p, 1) if n else None]
    for r in range(2, top + 1):
        dels.append(delete_down_next(p, dels[-1], inv, r - 1))
    for i in range(min(k, n - 1), -1, -1):
        if i in through:
            values[i] = values[i + 1]
            continue
        try:
            values[i] = lookup(dels[i + 1], i) + values[i + 1]
        except KeyError as exc:
            raise ClosureViolationError(
                f"missing P_{i} of {dels[i + 1]}: input is not a downset") from exc
    return HitProfile(tuple(values))


# ---------------------------------------------------------------------------
# dense whole-of-S_<=n engine
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
# (the smaller tables' sizes divide the largest's), which is how the last
# level is tallied piece by piece.
#
# Profiles are int32: P_i is at most the hit count, and a host of length
# n <= 25 has at most 2^n <= 2^25 hits (one per subset of its letters).

_DENSE_MAX_N = 11  # levels below n are held m!-sized; beyond this use count_all_lowmem
_CHUNK_HOSTS = 1 << 16  # hosts per piece of a last level that is only tallied


def _membership_vector(pat: PatternSet, m: int) -> np.ndarray:
    """[word in Pi] for level m <= k, in insertion-code order."""
    words = [0]
    for t in range(1, m + 1):
        words = [insert_pos(w, i, t, pat.layout) for w in words for i in range(1, t + 1)]
    return np.fromiter((1 if w in pat.words else 0 for w in words),
                       dtype=np.int32, count=len(words))


def _deletion_table(m: int, rank: int) -> np.ndarray:
    """T over the suffixes (digits of letters v..m, v = m - rank + 1) of a
    level-m index: the suffix, one level down, left by deleting v."""
    v = m - rank + 1
    rest = np.arange(prod(range(v, m + 1)))
    digits = []
    for t in range(m, v - 1, -1):
        digits.append(rest % t)
        rest = rest // t
    p0 = digits.pop()  # insertion position of v, tracked as letters above arrive
    T = np.zeros_like(p0)
    for t in range(v + 1, m + 1):
        c = digits.pop()
        T = T * (t - 1) + c - (c > p0)
        p0 = p0 + (c <= p0)
    return T


class _DeletionTables(dict):
    """(m, rank) -> deletion table, built on first use; one per engine call."""

    def __missing__(self, key: tuple[int, int]) -> np.ndarray:
        table = self[key] = _deletion_table(*key)
        return table


def _gather(src: np.ndarray, table: np.ndarray, m: int) -> np.ndarray:
    """src (indexed one level below m) at each level-m host's deletion."""
    sub = table.size // m
    if sub == 1:
        return src.repeat(m)
    return src.reshape(-1, sub).take(table, axis=1).ravel()


def _profile_step(top: int, acc: np.ndarray | None, size: int,
                  through: frozenset[int], gather, keep: bool = True) -> list[np.ndarray]:
    """P_top..P_0 of a batch of hosts from acc = P_{top+1} (None for zero):
    P_i = gather(i) + P_{i+1}, where gather(i) is P_i of each host's
    (i+1)-st down-deletion, or P_i = P_{i+1} for i in ``through`` (the
    covincular pass-through case).  Unless ``keep``, only P_0 is returned
    and each P_{i+1} is freed once P_i is built."""
    cur: list[np.ndarray] = [None] * (top + 1)
    for i in range(top, -1, -1):
        if i not in through:
            g = gather(i)
            if acc is not None:
                g += acc
            acc = g
        elif acc is None:
            acc = np.zeros(size, dtype=np.int32)
        if keep or i == 0:
            cur[i] = acc
    return cur


def _dense_levels(pat: PatternSet, n: int, through: frozenset[int] = frozenset(),
                  keep_last: bool = False, align_k: int = 0):
    """Yield (m, P_arrays) for m = 1..n; P_arrays[i] is P_i over level m in
    insertion-code order, for i = 0..min(k, m).  Level n holds only P_0
    (and the membership vector when n <= k) unless ``keep_last``.  Above k
    it is never held whole: it comes as consecutive pieces (n, [P_0]) of
    about _CHUNK_HOSTS hosts, cut at whole rows of the rank-(j+1) deletion
    table, j = min(align_k or k, n-1), so patterns up to length align_k cut
    it alike; a piece's deletions are a contiguous slice of level n-1."""
    k = pat.k
    tables = _DeletionTables()
    prev = [np.zeros(1, dtype=np.int32)]
    for m in range(1, n + 1):
        base = _membership_vector(pat, m) if m <= k else None
        keep = keep_last or m < n
        size = step = factorial(m)
        if not keep and base is None:
            rows = prod(range(m - min(align_k or k, m - 1), m + 1))
            step = max(1, _CHUNK_HOSTS // rows) * rows
        for a in range(0, size, step):
            b = min(a + step, size)
            cur = _profile_step(min(k, m - 1), base, b - a, through,
                                lambda i: _gather(prev[i][a // m:b // m], tables[m, i + 1], m),
                                keep=keep)
            if base is not None:
                cur.append(base)
            yield m, cur
        prev = cur


def _bincount_into(hist: dict[int, np.ndarray], m: int, hits: np.ndarray) -> None:
    old = hist.get(m, np.zeros(0, dtype=np.intp))
    hist[m] = counts = np.bincount(hits, minlength=old.size)
    counts[:old.size] += old


def _histogram_tally(hist: dict[int, np.ndarray]) -> CountTally:
    return CountTally({m: {h: c for h, c in enumerate(counts.tolist()) if c}
                       for m, counts in sorted(hist.items())})


def _dense_tally(pat: PatternSet, n: int,
                 through: frozenset[int] = frozenset()) -> CountTally:
    hist: dict[int, np.ndarray] = {}
    for m, cur in _dense_levels(pat, n, through):
        _bincount_into(hist, m, cur[0])
    return _histogram_tally(hist)


def count_all(pat: PatternSet, n: int) -> CountTally:
    """Tally of hit counts over every permutation of lengths 1..n."""
    if n > _DENSE_MAX_N:
        raise ValueError(
            f"count_all holds whole m! levels below n; use count_all_lowmem for n={n}")
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
    b, mask = layout.bits, layout.mask
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
        # the deletion chain: dels[r] is the host with its r-th largest
        # letter deleted, each one from the last in O(1) via the inverse
        dels = [0] * (min(g + 1, m) + 1)
        if m >= 1:
            d = kill_pos(word, (inv_word >> (b * (m - 1))) & mask, layout)
            dels[1] = d
            for r in range(2, len(dels)):
                vdel = m - r + 1
                d = insert_pos(d, (inv_word >> (b * vdel)) & mask, vdel, layout)
                d = kill_pos(d, (inv_word >> (b * (vdel - 1))) & mask, layout)
                dels[r] = d
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
    b, mask = layout.bits, layout.mask
    yield pack([1], layout), 1, 1
    while parents:
        word, m, inv_word = parents.popleft()
        clen = m + 1
        top = b * m
        shifts = range(b * max(0, m - k), top, b)  # the top k values' blocks
        for i in range(1, clen + 1):
            ci = inv_word
            for shift in shifts:
                if (ci >> shift) & mask >= i:
                    ci += 1 << shift
            yield insert_pos(word, i, clen, layout), clen, ci | (i << top)


def _padded(prof: tuple[int, ...], k: int) -> HitProfile:
    return HitProfile(prof + (0,) * (k + 2 - len(prof)))


def _count_stream(stream: Iterable[tuple[PackedPerm, PartialInverse | None]],
                  pat: PatternSet, through: frozenset[int] = frozenset(),
                  emit: Callable[[PackedPerm, HitProfile], None] | None = None,
                  stats: dict | None = None) -> CountTally:
    """``_profile_hosts`` over (perm, partial inverse) pairs; an inverse
    shallower than the top k+1 values is recomputed.  ``stats`` receives
    ``profile_entries``, the number of P values computed."""
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

    tally = CountTally({})
    entries = 0
    for (word, m, _), prof in _profile_hosts(hosts(), pat, through):
        entries += len(prof)
        tally.add(m, prof[0])
        if emit is not None:
            emit(PackedPerm(word, m, layout), _padded(prof, k))
    if stats is not None:
        stats["profile_entries"] = entries
    return tally


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
    layout = pat.layout
    _check_n(n, layout)
    result = BoundedHits(budget, {m: set() for m in range(1, n + 1)}, {})
    parents: deque[tuple[int, int, int]] = deque()
    hosts = _max_insertion_hosts(layout, pat.k, parents)
    for host, prof in _profile_hosts(hosts, pat, budget=budget):
        word, m, _ = host
        q = PackedPerm(word, m, layout)
        result.levels[m].add(q)
        result.profiles[q] = _padded(prof, pat.k)
        if m < n:
            parents.append(host)
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
    tally = CountTally({})
    entries = 0
    parents: deque[tuple[int, int, int]] = deque()
    hosts = _max_insertion_hosts(pat.layout, pat.k, parents)
    for host, prof in _profile_hosts(hosts, pat):
        m = host[1]
        entries += len(prof)
        tally.add(m, prof[0])
        if m < n:
            parents.append(host)
    if stats is not None:
        stats["profile_entries"] = entries
    return tally


# ---------------------------------------------------------------------------
# low-memory engine: depth-first batches over the inclusion tree

_LOWMEM_RUN = 1 << 13  # hosts per run of sibling batches stepped at once

def count_all_lowmem(pat: PatternSet, n: int, stats: dict | None = None) -> CountTally:
    """Same tally as ``count_all`` holding O(n^{k+1}) profile rows.

    The k-level descendants of a tree node form one dense batch (indexed by
    the node-relative suffix of the insertion code); a node's batch is
    computed from its parent's and freed on backtrack.  Sibling batches are
    consecutive in the index, so a node's children are computed together in
    runs of at most _LOWMEM_RUN hosts (at least one child each), which
    keeps per-call overhead off the small batches of short patterns.  The
    live rows are level k plus one run per deeper level along the path, a
    run being at most max(2^13, one child's batch) hosts; the deepest level
    is only tallied.  ``stats`` receives ``max_live_profile_rows`` (a row is
    one host's k+1 profile values).
    """
    _check_n(n, pat.layout)
    return _lowmem_tally(pat, n, frozenset(), stats)


def _lowmem_tally(pat: PatternSet, n: int, through: frozenset[int],
                  stats: dict | None) -> CountTally:
    k = pat.k
    if n < k:
        if stats is not None:
            stats["max_live_profile_rows"] = (
                factorial(n) + (factorial(n - 1) if n >= 2 else 0))
        return _dense_tally(pat, n, through)

    hist: dict[int, np.ndarray] = {}
    for m, base in _dense_levels(pat, k, through, keep_last=True):
        _bincount_into(hist, m, base[0])
    tables = _DeletionTables()
    live = peak = base[0].size

    def visit(m: int, parent: list[np.ndarray]) -> None:
        # parent is the batch of C^k(v), |v| = m: level m+k of the dense
        # index below v's prefix.  The children u = v ^ p, p = 1..m+1, have
        # batches C^k(u) of `size` hosts at level M = m+1+k, and child p is
        # hosts [(p-1)*size, p*size) of the M!/m! below v, so a run of
        # consecutive children is one range [a, b) stepped at once.
        # Deleting one of the top k letters keeps each host's digit p, so it
        # lands in the parent's rows [a/M, b/M); deleting the (k+1)-st
        # largest, u's own maximum, drops p and rewrites the digits above,
        # so the rank-(k+1) table indexes the parent itself.
        nonlocal live, peak
        M = m + 1 + k
        top = tables[M, k + 1]
        size = top.size // (m + 1)
        step = max(1, _LOWMEM_RUN // size) * size
        for a in range(0, top.size, step):
            b = min(a + step, top.size)
            run = _profile_step(
                k, None, b - a, through,
                lambda i: (parent[k].take(top[a:b]) if i == k else
                           _gather(parent[i][a // M:b // M], tables[M, i + 1], M)),
                keep=M < n)
            _bincount_into(hist, M, run[0])
            live += b - a
            peak = max(peak, live)
            if M < n:
                for j in range(0, b - a, size):
                    visit(m + 1, [x[j:j + size] for x in run])
            live -= b - a

    if n > k:
        visit(0, base)
    if stats is not None:
        stats["max_live_profile_rows"] = peak
    return _histogram_tally(hist)
