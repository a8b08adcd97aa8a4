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
  avoider.  Levels are built on packed words only until the membership
  fix-up is done (length k-1, where a child's children may themselves be
  patterns).  From there a level keeps no words, only maps, letter
  positions and pointers to each avoider's deletions in the level below
  (no sort, no search): a level of fewer than ``_VECTOR_MIN_LEVEL``
  avoiders is stepped on Python ints, larger ones in numpy.  No word layout
  bounds the numpy step, so n = 16 counts on the WIDE layout run vectorized
  too.  It works through its level in blocks of ``_BLOCK`` = 2^13 parents:
  larger blocks make each temporary big enough that the allocator maps it
  afresh (or trims it when freed), so every block page-faults its working
  set in again.  A count only tallies the maps of its last level (length
  n-1) and never holds them.
  ``avoider_rows`` lists on the same steps: a level's letters are one
  gather from its parents' rows plus the new maximum, and
  ``enumerate_avoiders_fast`` builds its records from those arrays.
* ``count_avoiders_lowmem`` - the same recurrence run as a depth-first
  traversal of the inclusion tree, keeping extension maps only along one
  root-to-leaf path (O(n^k) live maps instead of a whole level).

Hosts may be restricted to any downset via ``downset_filter``.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Iterator

import numpy as np

from .permcore import (
    NIBBLE,
    PackedPerm,
    PartialInverse,
    PermCapacityError,
    PermLayout,
    delete_down,
    insert_pos,
    insert_up,
    kill_pos,
    pack,
    pack_rows,
    parse_perm,
    unpack,
    upfix,
    _delete_down_word,
    _scan_upfixes,
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
        if len({p.layout for p in pats}) != 1:
            raise ValueError("patterns mix word layouts")
        return cls(pats, max(p.length for p in pats), frozenset(by_word))

    @classmethod
    def parse(cls, text: str, layout: PermLayout = NIBBLE) -> "PatternSet":
        tokens = _PATTERN_TOKEN.findall(text)
        if not tokens:
            raise ValueError(f"no patterns in {text!r}")
        perms = []
        for tok in tokens:
            if tok.startswith("["):
                perms.append(parse_perm(tok[1:-1].strip(), layout))
            else:
                perms.append(parse_perm(tok, layout))
        return cls.build(perms)

    @property
    def layout(self) -> PermLayout:
        return self.patterns[0].layout

    @cached_property
    def _tables(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(upfix(p, i).word for p in self.patterns if p.length >= i)
                     for i in range(1, self.k + 1))

    def upfix_table(self, i: int) -> frozenset[int]:
        if 1 <= i <= self.k:
            return self._tables[i - 1]
        return frozenset()

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({p.length for p in self.patterns}))

    def __iter__(self) -> Iterator[PackedPerm]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, p: PackedPerm) -> bool:
        return p.word in self.words


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

def detect_avoider(p: PackedPerm, pat: PatternSet, below: "set[int] | frozenset[int]",
                   upfix_cutoff: bool = False) -> bool:
    """Is p an avoider, given the packed words of all shorter avoiders?

    p avoids iff p is not itself a pattern and deleting each of the
    min(k+1, n) largest letters leaves an avoider.  With ``upfix_cutoff``
    the deletion tests stop once p's upfix can no longer begin any hit;
    the answer is unchanged.
    """
    if p.word in pat.words:
        return False
    n = p.length
    limit = min(pat.k + 1, n)
    if upfix_cutoff:
        inv = PartialInverse.from_perm(p)
        matched = _scan_upfixes(n, inv.word, min(pat.k, n), p.layout,
                                lambda i, st: st in pat.upfix_table(i))
        limit = min(limit, matched + 1)
    word = p.word
    for rank in range(1, limit + 1):
        if _delete_down_word(word, n, rank, p.layout) not in below:
            return False
    return True


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

def _seed_level(pat: PatternSet, layout: PermLayout):
    psi = 0 if pack([1], layout) in pat.words else 1
    return [0], [0], [psi]


def _advance_level(m: int, words: list[int], invs: list[int], psis: list[int],
                   pat: PatternSet, layout: PermLayout,
                   psi_of: dict[int, int] | None = None):
    """Build level m+1 (words, partial inverses, extension maps) from level m.

    ``psi_of`` maps every length-m avoider the deletions may reach to its
    extension map; it defaults to the given level.  Children come grouped by
    parent in increasing insertion position.
    """
    k = pat.k
    if psi_of is None:
        psi_of = dict(zip(words, psis))
    new_len = m + 1
    full = (1 << (new_len + 1)) - 1
    check_membership = new_len + 1 <= k
    b, mask = layout.bits, layout.mask
    c_words: list[int] = []
    c_invs: list[int] = []
    c_parents: list[int] = []
    for w, iv, psi in zip(words, invs, psis):
        bits = psi
        while bits:
            low = bits & -bits
            i = low.bit_length()
            bits ^= low
            ci = iv
            for v in range(max(1, new_len + 1 - k), new_len):
                shift = b * (v - 1)
                if (ci >> shift) & mask >= i:
                    ci += 1 << shift
            c_words.append(insert_pos(w, i, new_len, layout))
            c_invs.append(ci | (i << (b * (new_len - 1))))
            c_parents.append(w)
    c_psis: list[int] = []
    for cw, ci, parent in zip(c_words, c_invs, c_parents):
        psi_c = full
        d = parent
        for r in range(1, min(new_len, k) + 1):
            vdel = new_len - r + 1
            q = (ci >> (b * (vdel - 1))) & mask
            if r > 1:
                pos_a = (ci >> (b * vdel)) & mask
                d = insert_pos(d, pos_a, vdel, layout)
                d = kill_pos(d, q, layout)
            src = psi_of[d]
            psi_c &= (src & ((1 << q) - 1)) | ((src >> (q - 1)) << q)
            if not psi_c:
                break
        if check_membership and psi_c:
            bits = psi_c
            while bits:
                low = bits & -bits
                i = low.bit_length()
                bits ^= low
                if insert_pos(cw, i, new_len + 1, layout) in pat.words:
                    psi_c ^= low
        c_psis.append(psi_c)
    return c_words, c_invs, c_psis


# A level holding fewer avoiders than this is stepped by _python_step: below
# it the fixed cost of the numpy step's few dozen array calls exceeds the work
# saved.  Counting 100 recorded S_4 sweep classes per stratum at n = 16
# (2-core machine, each value timed on the same classes in turn), the
# 1,000-3,000-avoider classes took 2.19 ms each with 30 here, 2.20-2.23 with
# 20-40, 2.31 with 60 and 2.74 with 100; with 10 the tiny classes (under 150
# avoiders) took 3x as long, and from 20 up they did not move.
_VECTOR_MIN_LEVEL = 30

_ONE = np.uint32(1)  # maps are uint32, so the numpy step needs n < 32


def count_avoiders_fast(pat: PatternSet, n: int,
                        vectorized: bool | None = None) -> list[int]:
    """[|S_1|, ..., |S_n|] via extension maps; levels are tallied by popcount
    and the final level is never materialized: |S_n| is the popcount total
    of level n-1's maps, which the last step tallies without holding them.

    ``_levels`` gives the schedule.  ``vectorized=True`` runs numpy from the
    first pointer level, ``False`` stays on words to the end; counts agree.
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

    Levels are built on words (``_advance_level``) through length
    max(k-1, 1), where the membership fix-up ends, then turned into pointer
    form once (``_pointer_level``).  Each later level is built by
    ``_python_step`` while the level it steps from holds fewer than
    ``_VECTOR_MIN_LEVEL`` avoiders, and by ``_pointer_step`` in numpy from the
    first one that holds more (it does not switch back).

    Yields, for m = 0, 1, ..., ``(tally, maps, letters)``: the extension
    maps of the avoiders of length m (a list of ints before the numpy step,
    a uint32 array after), ``tally`` = |S_{m+1}| (their popcount total), and
    with ``rows`` the (|S_m|, m) uint8 letters of the level, else None.
    Stops after level n-1 or after a level with no children.  Without
    ``rows`` the last step only tallies its level, so that level's maps come
    as None; with ``rows`` it keeps the pointer rank that ``_grow_rows`` reads.
    """
    layout, k = pat.layout, pat.k
    words, invs, psis = _seed_level(pat, layout)
    below = None
    for m in range(0, n):
        tally = sum(psi.bit_count() for psi in psis)
        letters = _unpack_rows(words, m, layout) if rows else None
        yield tally, psis, letters
        if m + 1 == n or tally == 0:
            return
        if vectorized is not False and below is not None and m + 2 > k:
            break
        below = words, psis
        words, invs, psis = _advance_level(m, words, invs, psis, pat, layout)
    psi_b, level = below[1], (psis, _pointer_level(below[0], words, invs, m, k, layout))
    numpy_step = False
    for m in range(m + 1, n):
        ranks = k - 1 if m + 1 < n else 1 if rows else 0
        if not numpy_step and n < 32 and (vectorized or len(level[0]) >= _VECTOR_MIN_LEVEL):
            numpy_step = True
            psi_b, level = np.array(psi_b, np.uint32), _as_arrays(level, k)
        psi_b, level = (_pointer_step if numpy_step else _python_step)(psi_b, level, k, ranks)
        if not ranks:
            yield level, None, None
            return
        maps = level[0]
        if rows:
            # the largest letter sits at the insertion position; D_1 is the parent
            _, pos, dele = level if numpy_step else _as_arrays(level, k)
            letters = _grow_rows(letters, pos[0], dele[0])
        tally = (int(np.bitwise_count(maps).sum(dtype=np.int64)) if numpy_step
                 else sum(map(int.bit_count, maps)))
        yield tally, maps, letters
        if tally == 0:
            return


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
# avoiders is (psi, pos, dele): extension maps (uint32), and for r = 1..k-1
# the position of the r-th largest letter (uint8) and the index in level m-1
# of the avoider that deleting it leaves (int32; r = 1 is the parent).  The
# children of a level are stored grouped by parent in increasing insertion
# position, so child (p, i) sits at off[p] + popcount(psi[p] below bit i-1).
# A step builds the children of _BLOCK consecutive parents at a time, so its
# temporaries are a fixed working set whatever the level's size; only the
# lookups into the two levels below (their maps and child offsets) span a
# whole level.  The block size is set by page faults, not by cache: a block
# allocates about 25 child-sized temporaries per rank, and glibc serves
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
    width = np.bitwise_count(psi)
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


def _pointer_level(below_words: list[int], words: list[int], invs: list[int],
                   m: int, k: int, layout: PermLayout) -> list[list[tuple[int, int]]]:
    """The links of level m for ``_python_step``, from its words and partial
    inverses (``_advance_level``): for r = 1..k-1, where each avoider's r-th
    largest letter sits and the index in level m-1 (`below_words`) of the
    avoider that deleting it leaves.  D_r follows from D_{r-1} in O(1) word
    operations: the letter m-r+1 moves to where m-r+2 was."""
    index = {w: j for j, w in enumerate(below_words)}
    b, mask = layout.bits, layout.mask
    links = []
    for w, iv in zip(words, invs):
        d = q = 0
        link = []
        for v in range(m, m - k + 1, -1):
            moved, q = q, (iv >> (b * (v - 1))) & mask
            d = kill_pos(insert_pos(d, moved, v, layout) if moved else w, q, layout)
            link.append((q, index[d]))
        links.append(link)
    return links


def _shifted(src: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Maps of deletions, re-indexed by insertion position in the host: the
    positions just before and just after the deleted letter (q) share a bit."""
    return (src & ((_ONE << q) - _ONE)) | ((src >> (q - 1)) << q)


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
    off_b = _offsets(psi_b)[1]
    tally = hi = 0
    if ranks:
        total = int(np.bitwise_count(psi).sum(dtype=np.int64))
        out = np.empty(total, np.uint32)
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
            src_b = psi_b[g].take(par)
            before = qp < ins
            sh = ins - before - 1
            if not ((src_b >> sh) & _ONE).all():
                raise RuntimeError("deletion pointer lands outside its source map: "
                                   "inconsistent avoider levels")
            idx = off_b[g].take(par) + np.bitwise_count(src_b & ((_ONE << sh) - _ONE))
            q = qp + ~before
            maps &= _shifted(psi.take(idx), q)
            if r <= ranks:
                new_pos[r - 1][lo:hi] = q
                new_del[r - 1][lo:hi] = idx
        if ranks:
            out[lo:hi] = maps
        else:
            tally += int(np.bitwise_count(maps).sum(dtype=np.int64))
    return psi, (out, new_pos, new_del) if ranks else tally


def _python_step(psi_b: list[int], level, k: int, ranks: int):
    """``_pointer_step`` on Python ints, one child at a time, for levels too
    small to pay for numpy's fixed cost per call: the same recurrence and
    the same check before each pointer is followed.  A level is (maps,
    links), links[c] the (position, index in the level below) pairs of
    avoider c's ranks 1..k-1; `ranks` = 0 only tallies the new level."""
    psi, links = level
    off_b = list(accumulate((src.bit_count() for src in psi_b), initial=0))
    out, new_links, tally = [], [], 0
    for p, (parent, link) in enumerate(zip(psi, links)):
        if not parent:
            continue
        # per rank r = 2..k: the deleted letter's position in p, and the map
        # and first child index of g = D_{r-1}(p)
        deps = [(qp, psi_b[g], off_b[g]) for qp, g in link]
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
            if ranks:
                new.pop()  # D_k is read only for the map
                out.append(child)
                new_links.append(new)
            else:
                tally += child.bit_count()
    return psi, (out, new_links) if ranks else tally


def _as_arrays(level, k: int):
    """A level of ``_python_step`` in ``_pointer_step``'s form."""
    psi, links = level
    both = np.array(links, np.int64).reshape(len(links), k - 1, 2)
    return (np.array(psi, np.uint32), [both[:, r, 0].astype(np.uint8) for r in range(k - 1)],
            [both[:, r, 1].astype(np.int32) for r in range(k - 1)])


# ---------------------------------------------------------------------------
# low-memory engine: depth-first over the inclusion tree

def count_avoiders_lowmem(pat: PatternSet, n: int,
                          stats: dict | None = None) -> list[int]:
    """Same counts as ``count_avoiders_fast`` in O(n^k) space.

    Avoiders are grouped by the pattern of their smallest letters; the group
    of maps for a tree node is built from its parent's group and discarded
    on backtrack, so only one root-to-leaf path of groups is ever live.
    ``stats``, if given, receives ``max_live_extension_maps``.
    """
    layout = pat.layout
    _check_n(n, layout)
    k = pat.k
    if n < k:
        counts = count_avoiders_fast(pat, n, vectorized=False)
        if stats is not None:
            stats["max_live_extension_maps"] = sum(counts)
        return counts

    counts = [0] * n
    words, invs, psis = _seed_level(pat, layout)
    for m in range(0, k - 1):
        counts[m] = sum(psi.bit_count() for psi in psis)
        words, invs, psis = _advance_level(m, words, invs, psis, pat, layout)
    # `words` is now S_{k-1}(Pi), the group of the single tree node of size
    # zero; its popcounts tally |S_k|.
    counts[k - 1] = sum(psi.bit_count() for psi in psis)

    state = {"live": len(words), "peak": len(words)}
    b, mask = layout.bits, layout.mask

    def build_group(group_words, group_invs, group_psis, psi_of, child_len):
        """Extend a group one letter: children words/inverses/maps, plus the
        popcount total that tallies level child_len + 1."""
        c_words, c_invs, c_psis = _advance_level(
            child_len - 1, group_words, group_invs, group_psis, pat, layout, psi_of)
        state["live"] += len(c_words)
        state["peak"] = max(state["peak"], state["live"])
        return c_words, c_invs, c_psis, sum(psi.bit_count() for psi in c_psis)

    def visit(v_len, batch_words, batch_invs, batch_psis):
        # batch: the avoiders of length v_len + k - 1 whose smallest v_len
        # letters form the current tree node
        if v_len == n - k:
            return
        member_len = v_len + k - 1
        psi_of = dict(zip(batch_words, batch_psis))
        groups: dict[int, list[int]] = {}
        for t, iv in enumerate(batch_invs):
            pos = (iv >> (b * v_len)) & mask
            shift_down = 0
            for vv in range(v_len + 2, member_len + 1):
                if (iv >> (b * (vv - 1))) & mask < pos:
                    shift_down += 1
            groups.setdefault(pos - shift_down, []).append(t)
        for key in sorted(groups):
            sel = groups[key]
            gw = [batch_words[t] for t in sel]
            gi = [batch_invs[t] for t in sel]
            gp = [batch_psis[t] for t in sel]
            cw, ci, cp, total = build_group(gw, gi, gp, psi_of, member_len + 1)
            counts[member_len + 1] += total
            visit(v_len + 1, cw, ci, cp)
            state["live"] -= len(cw)

    if n - k >= 1 and words:
        psi_of_root = dict(zip(words, psis))
        cw, ci, cp, total = build_group(words, invs, psis, psi_of_root, k)
        counts[k] += total
        visit(1, cw, ci, cp)
        state["live"] -= len(cw)
    if stats is not None:
        stats["max_live_extension_maps"] = state["peak"]
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
