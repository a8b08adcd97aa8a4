"""Building and counting pattern-avoiding permutations.

Three engines, all producing the avoiders of each length 1..n:

* ``build_avoiders_basic`` - breadth-first insertion of the new maximum with
  a per-candidate membership test against the previous level (quadratic
  per-avoider, the straightforward dynamic program).
* ``count_avoiders_fast`` / ``enumerate_avoiders_fast`` - the extension-map
  engine: each avoider carries a bit map over insertion positions saying
  which children avoid, assembled by AND-ing shifted maps of its one-letter
  deletions.  Counting a level is a popcount; materializing children reads
  the positions of each map's set bits from a table.  O(k) work per
  avoider.  A level keeps no words, only maps, letter positions and
  pointers to each avoider's deletions in the level below (no sort, no
  search), from the empty permutation on; the recurrence misses only
  children that are themselves patterns, whose bits a walk per pattern
  clears below length k.  A level of fewer than ``_VECTOR_MIN_LEVEL``
  avoiders is stepped on Python ints, larger ones in numpy, with 16-bit maps
  up to n = 16 and 32-bit ones above.  No word layout bounds the numpy step,
  so n = 16 counts on the WIDE layout run vectorized too.  It works through
  its level in blocks of ``_BLOCK`` = 2^13 parents.  A count only tallies
  the maps of its last level (length n-1) and never holds them.
  ``avoider_rows`` lists on the same steps: a level's letters are one
  gather from its parents' rows plus the new maximum, and
  ``enumerate_avoiders_fast`` builds its records from those arrays.
* ``count_avoiders_lowmem`` - the same pointer steps run as a depth-first
  traversal of the inclusion tree from length k-1, keeping extension maps
  only along one root-to-leaf path (O(n^k) live maps instead of a whole
  level).

Hosts may be restricted to any downset via ``downset_filter``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate, groupby
from typing import Callable, Iterable, Iterator

import numpy as np

from .permcore import (
    NIBBLE,
    PackedPerm,
    PartialInverse,
    PermCapacityError,
    PermLayout,
    delete_down,
    deletion_chain,
    insert_pos,
    insert_up,
    kill_pos,
    pack,
    pack_rows,
    parse_perm,
    unpack,
    upfix,
)

_PATTERN_TOKEN = re.compile(r"\[[^\]]*\]|[^\s,]+")


@dataclass(frozen=True)
class PatternSet:
    """A set of forbidden patterns, with per-size tables of their upfixes.

    ``upfix_table(i)`` holds the packed standardizations of the i-upfix of
    every pattern with at least i letters; engines use it to recognize, in
    constant time per size, whether a host's i-upfix could still begin a hit.
    They are built on the first call and kept (the extension-map engine never
    reads them); not being fields, they take no part in equality or hashing.
    """

    patterns: tuple[PackedPerm, ...]
    k: int
    words: frozenset[int]

    @classmethod
    def build(cls, patterns: Iterable[PackedPerm]) -> "PatternSet":
        by_word = {p.word: p for p in patterns}
        pats = tuple(sorted(by_word.values(), key=lambda p: (p.length, p.word)))
        if not pats:
            raise ValueError("a pattern set needs at least one pattern")
        if not pats[0].length:
            raise ValueError("the empty permutation is not a pattern: "
                             "every permutation contains it")
        if len({p.layout for p in pats}) != 1:
            raise ValueError("patterns mix word layouts")
        return cls(pats, max(p.length for p in pats), frozenset(by_word))

    @classmethod
    def parse(cls, text: str, layout: PermLayout = NIBBLE) -> "PatternSet":
        tokens = _PATTERN_TOKEN.findall(text)
        if not tokens:
            raise ValueError(f"no patterns in {text!r}")
        return cls.build([parse_perm(tok[1:-1].strip() if tok.startswith("[") else tok, layout)
                          for tok in tokens])

    @property
    def layout(self) -> PermLayout:
        return self.patterns[0].layout

    @cached_property
    def _tables(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(upfix(p, i).word for p in self.patterns if p.length >= i)
                     for i in range(1, self.k + 1))

    @cached_property
    def _codes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_insertion_code(p.word, p.length, p.layout.bits)
                     for p in self.patterns if p.length >= 2)

    def upfix_table(self, i: int) -> frozenset[int]:
        return self._tables[i - 1] if 1 <= i <= self.k else frozenset()

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({p.length for p in self.patterns}))

    def __iter__(self) -> Iterator[PackedPerm]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, p: PackedPerm) -> bool:
        return p.word in self.words


@lru_cache(maxsize=None)
def _insertion_code(word: int, length: int, bits: int) -> tuple[int, ...]:
    """(c_1, ..., c_j) of a pattern of length j: c_t is the position of
    letter t among its letters 1..t, so inserting each new maximum t at c_t
    builds the pattern from the empty permutation."""
    letters = [(word >> (bits * i)) & ((1 << bits) - 1) for i in range(length)]
    return tuple(1 + sum(v < t for v in letters[:letters.index(t)])
                 for t in range(1, length + 1))


@dataclass(frozen=True)
class ExtensionMap:
    """Bit map over insertion positions 1..width; bit i set means inserting
    the new maximum at position i leaves an avoider."""

    bits: int
    width: int

    def test(self, i: int) -> bool:
        if not 1 <= i <= self.width:
            raise IndexError(f"position {i} out of 1..{self.width}")
        return bool((self.bits >> (i - 1)) & 1)

    def positions(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.width + 1) if self.test(i))

    def popcount(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return "".join("1" if self.test(i) else "0" for i in range(1, self.width + 1))


@dataclass(frozen=True)
class AvoiderRecord:
    """One streamed avoider: the permutation, a partial inverse valid in its
    top min(length, k) values (blocks below them are zero), and its
    extension map (None at the final level, where maps are never
    computed)."""

    perm: PackedPerm
    inverse: PartialInverse
    extension_map: ExtensionMap | None


@dataclass(frozen=True)
class AvoiderLevel:
    """All avoiders of one length, as (permutation, inverse, map) records."""

    length: int
    records: tuple[AvoiderRecord, ...]

    def perms(self) -> set[PackedPerm]:
        return {r.perm for r in self.records}

    def __len__(self) -> int:
        return len(self.records)


def collect_avoider_levels(pat: "PatternSet", n: int) -> list[AvoiderLevel]:
    """Materialize the stream of ``enumerate_avoiders_fast`` per length."""
    buckets: dict[int, list[AvoiderRecord]] = {m: [] for m in range(1, n + 1)}
    enumerate_avoiders_fast(pat, n, lambda r: buckets[r.perm.length].append(r))
    return [AvoiderLevel(m, tuple(buckets[m])) for m in range(1, n + 1)]


def _check_n(n: int, layout: PermLayout) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > layout.capacity:
        raise PermCapacityError(f"n={n} exceeds layout capacity {layout.capacity}")


# ---------------------------------------------------------------------------
# plain detection + breadth-first builder

def detect_avoider(p: PackedPerm, pat: PatternSet, below: "set[int] | frozenset[int]") -> bool:
    """Is p an avoider, given the packed words of all shorter avoiders?

    p avoids iff p is not itself a pattern and deleting each of the
    min(k+1, n) largest letters leaves an avoider.  Costs one O(n) partial
    inverse, then O(k): the deletions are read off the chain.
    """
    if p.word in pat.words:
        return False
    n = p.length
    limit = min(pat.k + 1, n)
    inv = PartialInverse.from_perm(p, limit)
    dels = deletion_chain(p.word, n, inv.word, limit, p.layout)
    return all(d in below for d in dels[1:])


def build_avoiders_basic(pat: PatternSet, n: int,
                         downset_filter: Callable[[PackedPerm], bool] | None = None,
                         ) -> dict[int, set[PackedPerm]]:
    """All avoiders of lengths 1..n (optionally intersected with a downset).

    Breadth-first in length: every candidate is an avoider of the previous
    level with the new maximum inserted somewhere, tested by deleting each of
    the k+1 largest letters.  ``downset_filter`` is applied to a candidate
    before the avoidance test and must define a downset.
    """
    layout = pat.layout
    _check_n(n, layout)
    levels: dict[int, set[PackedPerm]] = {m: set() for m in range(1, n + 1)}
    seen: set[int] = {0}
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    while queue:
        word, m = queue.popleft()
        clen = m + 1
        for i in range(1, clen + 1):
            q = PackedPerm(insert_pos(word, i, clen, layout), clen, layout)
            if downset_filter is not None and not downset_filter(q):
                continue
            if detect_avoider(q, pat, seen):
                seen.add(q.word)
                levels[clen].add(q)
                if clen < n:
                    queue.append((q.word, clen))
    return levels


# ---------------------------------------------------------------------------
# extension-map engine (level-synchronous)

def _advance_level(m: int, words: list[int], psis: list[int], pat: PatternSet,
                   layout: PermLayout) -> tuple[list[int], list[int]]:
    """Level m+1 (words and extension maps) from level m on packed words:
    the reference schedule (``vectorized=False``).  A child's map ANDs the
    shifted maps of its deletions of the min(m+1, k) largest letters, found
    by word, and drops the insertions that are patterns.  Children come
    grouped by parent in increasing insertion position.  Each deletion
    follows from the one before: to delete letter v instead of v+1, put v
    where v+1 was and cut it out of its own place.
    """
    psi_of = dict(zip(words, psis))
    new_len = m + 1
    c_words, c_psis = [], []
    for w, psi in zip(words, psis):
        for i in range(1, new_len + 1):
            if not (psi >> (i - 1)) & 1:
                continue
            cw = insert_pos(w, i, new_len, layout)
            letters = unpack(cw, new_len, layout)
            psi_c, d, q = (1 << (new_len + 1)) - 1, cw, 0
            for v in range(new_len, max(new_len - pat.k, 0), -1):
                moved, q = q, letters.index(v) + 1
                d = kill_pos(insert_pos(d, moved, v, layout) if moved else d, q, layout)
                src = psi_of[d]
                psi_c &= (src & ((1 << q) - 1)) | ((src >> (q - 1)) << q)
            for j in range(1, new_len + 2) if new_len < pat.k else ():
                if insert_pos(cw, j, new_len + 1, layout) in pat.words:
                    psi_c &= ~(1 << (j - 1))
            c_words.append(cw)
            c_psis.append(psi_c)
    return c_words, c_psis


# A level holding fewer avoiders than this is stepped by _python_step: below
# it the fixed cost of the numpy step's few dozen array calls exceeds the work
# saved.  Counting 100 recorded S_4 sweep classes per stratum at n = 16
# (2-core machine, each value timed on the same classes in turn), the
# 1,000-3,000-avoider classes took 2.19 ms each with 30 here, 2.20-2.23 with
# 20-40, 2.31 with 60 and 2.74 with 100; with 10 the tiny classes (under 150
# avoiders) took 3x as long, and from 20 up they did not move.
_VECTOR_MIN_LEVEL = 30

_popcount = partial(np.bitwise_count, signature=(np.uint32, np.uint8))  # its uint16 loop: 2x slower


def count_avoiders_fast(pat: PatternSet, n: int,
                        vectorized: bool | None = None) -> list[int]:
    """[|S_1|, ..., |S_n|] via extension maps; levels are tallied by popcount
    and the final level is never materialized: |S_n| is the popcount total
    of level n-1's maps, which the last step tallies without holding them.

    ``_levels`` gives the schedule.  ``vectorized=True`` runs numpy from the
    first level that carries all k-1 pointer ranks, ``False`` runs the
    packed-word reference to the end; counts agree.
    """
    _check_n(n, pat.layout)
    counts = [0] * n
    for m, (tally, _, _) in enumerate(_levels(pat, n, vectorized)):
        counts[m] = tally
    return counts


def avoider_rows(pat: PatternSet, n: int,
                 ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Every avoider of lengths 1..n as letter arrays, one length at a time.

    Yields, for m = 1..n, a (|S_m|, m) uint8 array whose rows are the
    one-line letters of the avoiders of length m, and their extension maps
    (uint32, bit i-1 for insertion position i), None at m = n.  Rows come in
    ``count_avoiders_fast``'s level order (grouped by the avoider left by
    deleting the maximum, in increasing insertion position), not sorted.
    """
    _check_n(n, pat.layout)
    m = 0
    for tally, maps, letters in _levels(pat, n, rows=True):
        maps = np.asarray(maps, dtype=np.uint32)
        if m:
            yield letters, maps
        m += 1
    # the level above the last one stepped: its maps give the insertion
    # positions, read _BLOCK parents at a time straight into the output
    grown = np.empty((int(np.bitwise_count(maps).sum(dtype=np.int64)), m), np.uint8)
    hi = 0
    for a in range(0, maps.size, _BLOCK):
        parent, ins = _children(maps[a:a + _BLOCK])
        lo, hi = hi, hi + ins.size
        _grow_rows(letters[a:a + _BLOCK], ins, parent, grown[lo:hi])
    letters = grown
    for m in range(m, n + 1):
        yield letters, None if m == n else np.zeros(0, np.uint32)
        letters = np.zeros((0, m + 1), np.uint8)


def enumerate_avoiders_fast(pat: PatternSet, n: int,
                            sink: Callable[[AvoiderRecord], None]) -> None:
    """Stream every avoider of lengths 1..n to sink, levels in increasing
    order (order within a level is unspecified).

    Records are read off ``avoider_rows``: words and partial inverses (valid
    in the top min(m, k) values) are packed from each level's letters.
    """
    layout, k = pat.layout, pat.k
    for m, (letters, maps) in enumerate(avoider_rows(pat, n), start=1):
        depth = min(m, k)
        inv = np.zeros_like(letters)
        # argsort of a row is its inverse: column v-1 holds where v sits
        inv[:, m - depth:] = np.argsort(letters, axis=1)[:, m - depth:] + 1
        psis = [None] * len(letters) if maps is None else maps.tolist()
        for w, iv, psi in zip(pack_rows(letters, layout), pack_rows(inv, layout), psis):
            sink(AvoiderRecord(PackedPerm(w, m, layout), PartialInverse(iv, depth),
                               None if psi is None else ExtensionMap(psi, m + 1)))


def _levels(pat: PatternSet, n: int, vectorized: bool | None = None,
            rows: bool = False):
    """The level schedule that counting and listing share.

    Every level is in pointer form from the empty permutation (length 0) on.
    It is built by ``_python_step`` while the level it steps from holds fewer
    than ``_VECTOR_MIN_LEVEL`` avoiders, and by ``_pointer_step`` in numpy
    from the first one that holds more and carries all k-1 pointer ranks
    (length k-1 or more; it does not switch back).  The recurrence misses
    only children that are themselves patterns; ``_walk`` clears their bits
    in the levels below length k.  ``vectorized=False`` is the reference:
    packed words (``_advance_level``) at every level.

    Yields, for m = 0, 1, ..., ``(tally, maps, letters)``: the extension
    maps of the avoiders of length m (a list of ints before the numpy step,
    after it a uint16 array up to n = 16, else uint32), ``tally`` = |S_{m+1}|
    (their popcount total), and with ``rows`` the (|S_m|, m) uint8 letters of
    the level, else None.  Stops after level n-1 or after a level with no
    children.  Without ``rows`` the last step only tallies its level (once
    it has no pattern bit to clear), so that level's maps come as None; with
    ``rows`` it keeps the pointer rank that ``_grow_rows`` reads.
    """
    layout, k = pat.layout, pat.k
    maps_b, level, walks = _seed(pat)
    if vectorized is False:
        words, psis = [0], level[0]
        for m in range(n):
            tally = sum(psi.bit_count() for psi in psis)
            yield tally, psis, _unpack_rows(words, m, layout) if rows else None
            if m + 1 == n or tally == 0:
                return
            words, psis = _advance_level(m, words, psis, pat, layout)
    letters = np.zeros((1, 0), np.uint8) if rows else None
    numpy_step = False
    for m in range(n):
        maps = level[0]
        tally = (int(_popcount(maps).sum(dtype=np.int64)) if numpy_step
                 else sum(map(int.bit_count, maps)))
        yield tally, maps, letters
        if m + 1 == n or tally == 0:
            return
        ranks = k - 1 if m + 2 < n or m + 1 < k else 1 if rows else 0
        if not numpy_step and m >= k - 1 and (vectorized or len(maps) >= _VECTOR_MIN_LEVEL):
            numpy_step = True
            dtype = np.uint16 if n <= 16 else np.uint32  # maps below level n have <= n bits
            maps_b, level = np.array(maps_b, dtype), _as_arrays(level, k, dtype)
        maps_b, level = (_pointer_step if numpy_step else _python_step)(maps_b, level, k, ranks)
        if not ranks:
            yield level, None, None
            return
        if walks:
            walks = _walk(walks, maps_b, level[0], m + 1)
        if rows:
            # the largest letter sits at the insertion position; D_1 is the parent
            if numpy_step:
                ins, parent = level[1][0], level[2][0]
            else:
                ins, parent = np.array([link[0] for link in level[1]], np.intp).reshape(-1, 2).T
            letters = _grow_rows(letters, ins, parent)


def _seed(pat: PatternSet):
    """Level 0 in pointer form, below it no level, and a walk per pattern
    of length 2 or more: the empty permutation's one child avoids unless the
    pattern 1 is in the set."""
    psi = 0 if pack([1], pat.layout) in pat.words else 1
    return [], ([psi], [[]]), [(code, 0) for code in pat._codes]


def _walk(walks, maps_b: list[int], maps: list[int], t: int):
    """Clear the bits of the patterns of length t+1 in level t, just built
    from level t-1 (`maps_b`), and return the walks still open.

    A walk (code, g) follows one pattern up the levels: g indexes, in level
    t-1, the pattern's letters 1..t-1 (standardized), so its letters 1..t
    are child off[g] + popcount(maps_b[g] below bit c_t) of level t.  A
    pattern of length j is then bit c_j of the map of its letters 1..j-1.  A
    walk that meets a clear bit holds a shorter pattern and ends there.
    """
    off = list(accumulate(map(int.bit_count, maps_b), initial=0))
    still = []
    for code, g in walks:
        src, bit = maps_b[g], 1 << (code[t - 1] - 1)
        if not src & bit:
            continue
        g = off[g] + (src & (bit - 1)).bit_count()
        if len(code) == t + 1:
            maps[g] &= ~(1 << (code[t] - 1))
        else:
            still.append((code, g))
    return still


def _unpack_rows(words: list[int], m: int, layout: PermLayout) -> np.ndarray:
    return np.array([unpack(w, m, layout) for w in words],
                    dtype=np.uint8).reshape(len(words), m)


def _grow_rows(letters: np.ndarray, ins: np.ndarray, parent: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Letters of a level's children: row `parent` of `letters` with the new
    maximum inserted at position `ins` (1-based), one child per entry,
    written into `out` if given."""
    m = letters.shape[1]
    src = np.take(letters, parent, axis=0)
    if out is None:
        out = np.empty((src.shape[0], m + 1), np.uint8)
    out[:, 1:] = src
    np.copyto(out[:, :m], src, where=np.arange(1, m + 1) < ins[:, None])
    out[np.arange(out.shape[0]), ins - 1] = m + 1
    return out


# Pointer levels.  The numpy step keeps no words.  A level of length-m
# avoiders is (psi, pos, dele): extension maps (uint16 up to n = 16, else
# uint32), and for r = 1..k-1 the position of the r-th largest letter
# (uint8) and the index in level m-1 of the avoider that deleting it leaves
# (int32; r = 1 is the parent).  The children of a level are stored grouped
# by parent in increasing insertion position, so child (p, i) sits at
# off[p] + popcount(psi[p] below bit i-1).
# A step builds the children of _BLOCK consecutive parents at a time, so its
# temporaries are a fixed working set whatever the level's size; only the
# lookups into the two levels below (their maps and child offsets) span a
# whole level.  The block size is set by page faults, not by cache: a block
# allocates about 15 child-sized temporaries per rank, and glibc serves
# arrays above its mmap threshold (128 KiB to 32 MiB, adapting) with fresh
# mappings, or trims them off the heap top when they are freed, so every
# block faults its working set in again.  On 16 counts at n = 14-15 (2-core
# machine, fresh processes), blocks of 2^15 parents (60-130k children) took
# about 6.6k minor faults per count, 2^13 parents 1.9k and 12% less time;
# 2^12 and 2^14 fell between, 2^11 (more numpy calls per child) was no
# faster than 2^15 and 2^16 was slower.  Indices inside a block are intp,
# as numpy casts an int32 index array on every gather; the stored pointers
# stay int32.  A child's insertion position, the j-th set bit of its
# parent's map, is read from _POSITIONS.  The last level of a count is only
# tallied, block by block, and never held; the last level of a listing
# keeps only rank 1 and is grown into its output in blocks of the same size.

_BLOCK = 1 << 13


def _position_table() -> np.ndarray:
    """Row v lists the 1-based positions of v's set bits, lowest first and
    zero-padded, for every 16-bit v: rows 2^b.. are rows ..2^b-1 plus b+1."""
    table = np.zeros((1, 16), np.uint8)
    for b in range(16):
        rows = np.arange(1 << b)
        high = table.copy()
        high[rows, np.bitwise_count(rows)] = b + 1
        table = np.concatenate([table, high])
    return table.reshape(-1)


_POSITIONS = _position_table()


def _offsets(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Children per avoider, and where each avoider's children start in the
    next level."""
    width = _popcount(psi)
    off = np.zeros(psi.size, np.int64)
    np.cumsum(width[:-1], dtype=np.int64, out=off[1:])  # dtype: no uint64 temporary
    return width, off


def _children(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent (intp) and insertion position (1-based, uint8) of each child
    of a level, in the children's order: the set bits of each map, lowest
    first.  Child j is entry 16 psi[p] + j - off[p] of _POSITIONS, p its
    parent; maps of 17 bits or more (n >= 18) are read as two 16-bit maps."""
    width, off = _offsets(psi)
    par = np.repeat(np.arange(psi.size), width)
    if psi.max() >> 16:
        half, ins = _children(np.stack([psi & np.uint32(0xFFFF), psi >> 16], axis=1).ravel())
        return par, ins + (half.astype(np.uint8) & 1) * np.uint8(16)
    idx = ((psi.astype(np.intp) << 4) - off).take(par)
    idx += np.arange(par.size)
    return par, _POSITIONS.take(idx)


def _shifted(src: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Deletion maps `src` re-indexed in place by insertion position in the
    host: the positions just before and after the deleted letter (q) share a bit."""
    up = src << 1
    src ^= up
    src &= (src.dtype.type(1) << q) - 1
    src ^= up
    return src


def _pointer_step(psi_b: np.ndarray, level, k: int, ranks: int):
    """Level m+1 from level m by following deletion pointers: no words, no
    sort, no search.

    `psi_b` holds the maps of level m-1 and `level` is level m in pointer
    form.  Deleting the r-th largest letter (r >= 2) of the child that
    inserts the maximum into parent p at position i gives the child of
    g = D_{r-1}(p) at position i' = i - [q < i], where q is that letter's
    position in p.  Returns the maps of level m and the new level, with the
    pointers of its first `ranks` ranks (k-1 for a level that is stepped
    again).  With `ranks` = 0 (the last level of a count) the new level is
    never held and its place is taken by its popcount total, |S_{m+2}|.
    Every deletion of an avoider is an avoider, so a pointer to a position
    that g's map does not allow means the levels are inconsistent:
    RuntimeError.
    """
    psi, pos, dele = level
    before_b = _offsets(psi_b)[1] - 1  # the index just before each first child
    tally = hi = 0
    if ranks:
        total = int(_popcount(psi).sum(dtype=np.int64))
        out = np.empty(total, psi.dtype)
        new_pos = [np.empty(total, np.uint8) for _ in range(ranks)]
        new_del = [np.empty(total, np.int32) for _ in range(ranks)]
    for a in range(0, psi.size, _BLOCK):
        blk = slice(a, a + _BLOCK)
        p = psi[blk]
        par, ins = _children(p)
        lo, hi = hi, hi + ins.size
        maps = _shifted(p.take(par), ins)
        if ranks:
            new_pos[0][lo:hi] = ins
            np.add(par, a, out=new_del[0][lo:hi])
        for r in range(2, k + 1):
            qp = pos[r - 2][blk].take(par)
            g = dele[r - 2][blk].astype(np.intp)
            before = qp < ins
            # g's map through bit i'-1, where the pointer lands (uint16 1 << 16 is 0)
            low = (psi.dtype.type(1) << (ins - before)) - 1
            y = psi_b[g].take(par) & low
            if not (y > low >> 1).all():
                raise RuntimeError("deletion pointer lands outside its source map: "
                                   "inconsistent avoider levels")
            idx = before_b[g].take(par) + _popcount(y)
            q = qp + ~before
            maps &= _shifted(psi.take(idx), q)
            if r <= ranks:
                new_pos[r - 1][lo:hi] = q
                new_del[r - 1][lo:hi] = idx
        if ranks:
            out[lo:hi] = maps
        else:
            tally += int(_popcount(maps).sum(dtype=np.int64))
    return psi, (out, new_pos, new_del) if ranks else tally


def _python_step(psi_b: list[int], level, k: int, ranks: int,
                 parents: Iterable[int] | None = None):
    """``_pointer_step`` on Python ints, one child at a time, for levels too
    small to pay for numpy's fixed cost per call: the same recurrence and
    the same check before each pointer is followed.  A level of length m is
    (maps, links), links[c] the (position, index in the level below) pairs
    of avoider c's ranks 1..min(m, k-1); `ranks` = 0 only tallies the new
    level.  With `parents` only those avoiders (increasing indices) step."""
    psi, links = level
    off_b = list(accumulate((src.bit_count() for src in psi_b), initial=0))
    out, new_links, tally = [], [], 0
    for p in range(len(psi)) if parents is None else parents:
        parent = psi[p]
        if not parent:
            continue
        # per rank r = 2..min(m+1, k): the deleted letter's position in p,
        # and the map and first child index of g = D_{r-1}(p)
        deps = [(qp, psi_b[g], off_b[g]) for qp, g in links[p]]
        bits = parent
        while bits:
            low = bits & -bits
            bits ^= low
            i = low.bit_length()
            child = (parent & ((low << 1) - 1)) | ((parent >> (i - 1)) << i)
            new = [(i, p)]
            for qp, src, base in deps:
                sh, q = (i - 2, qp) if qp < i else (i - 1, qp + 1)
                if not (src >> sh) & 1:
                    raise RuntimeError("deletion pointer lands outside its source map: "
                                       "inconsistent avoider levels")
                idx = base + (src & ((1 << sh) - 1)).bit_count()
                s = psi[idx]
                child &= (s & ((1 << q) - 1)) | ((s >> (q - 1)) << q)
                new.append((q, idx))
            if not ranks:
                tally += child.bit_count()
                continue
            if len(new) == k:
                new.pop()  # D_k is read only for the map
            out.append(child)
            new_links.append(new)
    return psi, (out, new_links) if ranks else tally


def _as_arrays(level, k: int, dtype):
    """A level of ``_python_step`` in ``_pointer_step``'s form, maps as `dtype`."""
    psi, links = level
    both = np.array(links, np.int64).reshape(len(links), k - 1, 2)
    return (np.array(psi, dtype), [both[:, r, 0].astype(np.uint8) for r in range(k - 1)],
            [both[:, r, 1].astype(np.int32) for r in range(k - 1)])


# ---------------------------------------------------------------------------
# low-memory engine: depth-first over the inclusion tree

def count_avoiders_lowmem(pat: PatternSet, n: int,
                          stats: dict | None = None) -> list[int]:
    """Same counts as ``count_avoiders_fast`` in O(n^k) space.

    Levels 0..k-1 are the pointer schedule's.  From there the avoiders are
    visited depth first over the inclusion tree: a batch is the avoiders of
    one length m whose smallest m-k+1 letters form one tree node, and it
    splits into groups by where its letter m-k+2, the (k-1)-th largest, sits
    among the letters below it (read off the stored pointer positions).
    A level is ordered by insertion code (by parent, then by insertion
    position) and that position is the batch's leading free digit, so each
    group is one run of consecutive avoiders.  Each group steps alone
    (``_python_step`` over its range, the level below zeroed outside the
    batch's own group, so every pointer lands in the batch, and one that
    does not raises) and is dropped on backtrack; the deepest step only
    tallies.
    ``stats``, if given, receives ``max_live_extension_maps``: the most maps
    held at once by level k-1 and the groups' children on the current path
    (the zeroed copies of each batch's level below are not counted).
    """
    _check_n(n, pat.layout)
    k = pat.k
    counts = [0] * n
    maps_b, level, walks = _seed(pat)
    for m in range(min(k, n)):
        counts[m] = sum(map(int.bit_count, level[0]))
        if m + 1 == min(k, n) or not counts[m]:
            break
        maps_b, level = _python_step(maps_b, level, k, 1)
        walks = _walk(walks, maps_b, level[0], m + 1)
    live = peak = len(level[0])

    def visit(maps_b, level, m):
        nonlocal live, peak
        maps, links = level
        keys = [link[-1][0] - sum(q < link[-1][0] for q, _ in link[:-1]) for link in links]
        ends = list(accumulate((len(list(run)) for _, run in groupby(keys)), initial=0))
        ranks = 0 if m + 2 == n else 1
        for a, b in zip(ends, ends[1:]):
            _, child = _python_step(maps_b, level, k, ranks, range(a, b))
            if not ranks:
                counts[m + 1] += child
                continue
            counts[m + 1] += sum(map(int.bit_count, child[0]))
            own = [0] * a + maps[a:b] + [0] * (len(maps) - b)
            live += len(child[0])
            peak = max(peak, live)
            visit(own, child, m + 1)
            live -= len(child[0])

    if n > k and counts[k - 1]:
        visit(maps_b, level, k - 1)
    if stats is not None:
        stats["max_live_extension_maps"] = peak
    return counts


# ---------------------------------------------------------------------------
# reference extension maps (small inputs; engines compute these incrementally)

def extension_map(p: PackedPerm, pat: PatternSet) -> ExtensionMap:
    """Which insertions of the new maximum into p leave an avoider."""
    levels = build_avoiders_basic(pat, p.length + 1)
    if p.length >= 1 and p not in levels[p.length]:
        raise ValueError(f"{p} does not avoid the pattern set")
    top = {q.word for q in levels[p.length + 1]}
    bits = 0
    for i in range(1, p.length + 2):
        if insert_up(p, i).word in top:
            bits |= 1 << (i - 1)
    return ExtensionMap(bits, p.length + 1)


def ignoring_extension_map(p: PackedPerm, pat: PatternSet, value: int) -> ExtensionMap:
    """Which insertions avoid once hits through the letter `value` are
    forgiven: bit i is set when deleting `value` from the child leaves an
    avoider."""
    n = p.length
    if not 1 <= value <= n:
        raise ValueError(f"ignored value {value} out of 1..{n}")
    levels = build_avoiders_basic(pat, n)
    same = {q.word for q in levels[n]}
    bits = 0
    for i in range(1, n + 2):
        child = insert_up(p, i)
        if delete_down(child, n + 2 - value).word in same:
            bits |= 1 << (i - 1)
    return ExtensionMap(bits, n + 1)
