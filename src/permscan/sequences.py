"""Conjecture mining: avoidance sequences matched against a local OEIS dump.

Pattern sets related by inverse, reverse, or complement (applied to every
pattern) have identical avoidance counts, so sets are first folded into
symmetry classes under the order-8 group those maps generate.  For each
class the counts |S_5|..|S_n| are computed, sequences of polynomial growth
(degree at most 3) are filtered out, and the rest are looked up in a local
copy of the OEIS "stripped" file, allowing the OEIS entry to start up to 14
positions before the query.
"""

from __future__ import annotations

import gzip
import time
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .avoiders import PatternSet, count_avoiders_fast
from .permcore import (
    PackedPerm,
    complement_perm,
    format_perm,
    inverse_perm,
    layout_for,
    reverse_perm,
)

SETTLE_N = 10        # growth degree must have settled by this length
MAX_DEGREE = 3       # growth of cubic or smaller degree is filtered out
FIRST_TERM_N = 5     # sequences start at |S_5|: |S_4| depends only on |Pi|


# ---------------------------------------------------------------------------
# the symmetry group

def _compose(f: Callable, g: Callable) -> Callable:
    return lambda p: f(g(p))


def symmetry_group() -> tuple[Callable[[PackedPerm], PackedPerm], ...]:
    """The 8 maps generated by inverse, reverse, and complement (the
    symmetries of the permutation matrix), identity first."""
    probe = [PackedPerm.from_letters(t) for t in permutations(range(1, 5))]

    def key(f):
        return tuple(f(p).word for p in probe)

    identity = lambda p: p
    elems = {key(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for f in frontier:
            for g in (inverse_perm, reverse_perm, complement_perm):
                h = _compose(g, f)
                kk = key(h)
                if kk not in elems:
                    elems[kk] = h
                    nxt.append(h)
        frontier = nxt
    group = tuple(elems.values())
    assert len(group) == 8
    return group


_GROUP: tuple[Callable, ...] | None = None


def _group() -> tuple[Callable, ...]:
    global _GROUP
    if _GROUP is None:
        _GROUP = symmetry_group()
    return _GROUP


@dataclass(frozen=True)
class SymmetryClass:
    """Canonical representative of a pattern set: the lexicographically
    least of the 8 symmetric images, where patterns compare by their
    one-line letters and an image is its ascending tuple of patterns."""

    patterns: tuple[PackedPerm, ...]

    @property
    def words(self) -> tuple[int, ...]:
        return tuple(p.word for p in self.patterns)

    def __str__(self) -> str:
        return " ".join(format_perm(p) for p in self.patterns)


def canonicalize(patterns: "PatternSet | Iterable[PackedPerm]") -> SymmetryClass:
    perms = list(patterns)
    best: list[PackedPerm] | None = None
    best_key: tuple[tuple[int, ...], ...] | None = None
    for g in _group():
        image = sorted((g(p) for p in perms), key=lambda p: p.letters())
        kk = tuple(p.letters() for p in image)
        if best_key is None or kk < best_key:
            best_key = kk
            best = image
    assert best is not None
    return SymmetryClass(tuple(best))


# ---------------------------------------------------------------------------
# symmetry-class enumeration over subsets of S_k (bit-mask sweep)

def _mask_tables(k: int):
    # bit j holds the j-th pattern in DESCENDING one-line order, so that the
    # integer-largest mask of an orbit decodes to the lexicographically
    # least sorted pattern tuple (the same representative canonicalize picks)
    perms = sorted((PackedPerm.from_letters(t) for t in permutations(range(1, k + 1))),
                   key=lambda p: p.letters(), reverse=True)
    index = {p.word: i for i, p in enumerate(perms)}
    moves = [tuple(index[g(p).word] for p in perms) for g in _group()[1:]]
    return perms, moves


def _byte_tables(move: Sequence[int], nbits: int) -> list[np.ndarray]:
    tables = []
    for byte_idx in range((nbits + 7) // 8):
        tb = np.zeros(256, dtype=np.uint32)
        for byte in range(256):
            acc = 0
            for bit in range(8):
                j = byte_idx * 8 + bit
                if j < nbits and (byte >> bit) & 1:
                    acc |= 1 << move[j]
            tb[byte] = acc
        tables.append(tb)
    return tables


def _canonical_masks(k: int, min_size: int, include_full: bool,
                     ) -> tuple[list[PackedPerm], Iterator[np.ndarray]]:
    """The patterns of S_k by bit, and the canonical masks (each the largest
    of its orbit) of classes with at least min_size patterns, as ascending
    arrays, one per chunk of 2**20 masks, computed as they are consumed."""
    if k > 4:
        raise ValueError("class sweeps enumerate all subsets of S_k; k > 4 "
                         "is astronomically large")
    perms, moves = _mask_tables(k)
    nbits = len(perms)
    tables = [_byte_tables(mv, nbits) for mv in moves]
    total = 1 << nbits
    chunk = 1 << 20

    def chunks() -> Iterator[np.ndarray]:
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
            # a mask is canonical when no image is larger; drop it at the
            # first image that is, so later images see only the survivors
            for tbs in tables:
                img = tbs[0].take(idx & 255)
                for t in range(1, len(tbs)):
                    img |= tbs[t].take((idx >> 8 * t) & 255)
                idx = idx[img <= idx]
            masks = idx[np.bitwise_count(idx) >= min_size]
            if not include_full and start + chunk >= total:
                masks = masks[masks != total - 1]
            yield masks

    return perms, chunks()


def count_symmetry_classes(k: int, min_size: int, include_full: bool = False) -> int:
    """Number of symmetry classes of pattern sets within S_k having at
    least min_size patterns.

    The full set S_k is excluded by default: forbidding every pattern makes
    the avoidance sequence identically zero from n = k on, so the sweep has
    nothing to learn from it.
    """
    _, chunks = _canonical_masks(k, min_size, include_full)
    return sum(masks.size for masks in chunks)


def enumerate_symmetry_classes(k: int, min_size: int,
                               include_full: bool = False,
                               ) -> Iterator[tuple[PackedPerm, ...]]:
    """Canonical representatives, each sorted ascending by one-line letters,
    in a fixed deterministic order (full set S_k excluded by default, as in
    ``count_symmetry_classes``)."""
    perms, chunks = _canonical_masks(k, min_size, include_full)
    # bit j is the j-th pattern in descending letter order, so a mask's bits
    # read from the top down are its members sorted ascending; each byte of
    # the (at most 24-bit) masks decodes through a table of member tuples
    lo, mid, hi = ([tuple(perms[j] for j in range(8 * t + 7, 8 * t - 1, -1)
                          if (byte >> (j - 8 * t)) & 1 and j < len(perms))
                    for byte in range(256)] for t in range(3))
    for masks in chunks:
        for a, b, c in zip((masks >> np.uint32(16)).tolist(),
                           ((masks >> np.uint32(8)) & np.uint32(255)).tolist(),
                           (masks & np.uint32(255)).tolist()):
            yield hi[a] + mid[b] + lo[c]


# ---------------------------------------------------------------------------
# avoidance sequences and the growth filter

@dataclass(frozen=True)
class SequenceRecord:
    """Avoidance counts |S_5|..|S_n_max| of one canonical pattern set."""

    pattern_set: SymmetryClass
    terms: tuple[int, ...]
    n_max: int

    def __post_init__(self) -> None:
        if len(self.terms) != self.n_max - (FIRST_TERM_N - 1):
            raise ValueError("terms must run from n=5 through n_max")


def avoidance_record(patterns: Iterable[PackedPerm], n_max: int,
                     counter: Callable[[PatternSet, int], list[int]] = count_avoiders_fast,
                     ) -> SequenceRecord:
    cls = canonicalize(patterns)
    if n_max < FIRST_TERM_N:
        raise ValueError(f"n_max must be at least {FIRST_TERM_N}")
    layout = layout_for(n_max)
    pat = PatternSet.build([PackedPerm.from_letters(p.letters(), layout)
                            for p in cls.patterns])
    counts = counter(pat, n_max)
    return SequenceRecord(cls, tuple(counts[FIRST_TERM_N - 1:]), n_max)


def growth_degree(terms: Sequence[int], start_n: int = FIRST_TERM_N,
                  settle_n: int = SETTLE_N) -> int | None:
    """Polynomial degree d <= 3 of the sequence, or None for faster growth.

    Degree d means the (d+1)-st finite difference vanishes at every index
    from settle_n on (early terms may misbehave; only the settled tail
    counts).  Raises if the sequence is too short to check even degree 0 at
    settle_n, i.e. shorter than through n = settle_n + 1.
    """
    terms = list(terms)
    if start_n + len(terms) - 1 < settle_n + 1:
        raise ValueError(
            f"need terms through n={settle_n + 1} to test growth at n={settle_n}")
    for d in range(MAX_DEGREE + 1):
        diff = terms
        for _ in range(d + 1):
            diff = [b - a for a, b in zip(diff, diff[1:])]
        # diff[j] is the (d+1)-st difference at n = start_n + j
        tail = [x for j, x in enumerate(diff) if start_n + j >= settle_n]
        if tail and all(x == 0 for x in tail):
            return d
        if not tail:
            # cannot certify this or any higher degree; growth unknown
            raise ValueError(
                f"need terms through n={settle_n + d + 1} to test degree {d}")
    return None


# ---------------------------------------------------------------------------
# local OEIS dump

class OeisFormatError(ValueError):
    pass


@dataclass(frozen=True)
class OeisEntry:
    anum: int
    terms: tuple[int, ...]


# OEIS index words: the low _HASH_BITS bits of a term above the flat
# (entry, shift) position of that term
_HASH_BITS = 32
_LOW = (1 << _HASH_BITS) - 1


@dataclass
class OeisDb:
    """A loaded OEIS "stripped" dump: one line per sequence,
    ``A000045 ,0,1,1,2,3,5,...,`` with ``#`` comment lines."""

    entries: list[OeisEntry]
    _sorted: list[OeisEntry] = field(default_factory=list, repr=False)
    _indexes: dict[int, tuple[int, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        anums = [e.anum for e in self.entries]
        if len(set(anums)) != len(anums):
            raise OeisFormatError("duplicate A-numbers in OEIS db")
        self._sorted = sorted(self.entries, key=lambda e: e.anum)

    @classmethod
    def load(cls, path: str) -> "OeisDb":
        if str(path).endswith(".gz"):
            fh: TextIO = gzip.open(path, "rt", encoding="utf-8")
        else:
            fh = open(path, "rt", encoding="utf-8")
        with fh:
            return cls.parse(fh)

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "OeisDb":
        entries = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, rest = line.split(None, 1)
                if not name.startswith("A"):
                    raise ValueError("line must start with an A-number")
                anum = int(name[1:])
                terms = tuple(int(t) for t in rest.strip().strip(",").split(",") if t)
            except ValueError as exc:
                raise OeisFormatError(f"malformed OEIS line {lineno}: {exc}") from exc
            entries.append(OeisEntry(anum, terms))
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def _term_index(self, max_shift: int) -> tuple[int, np.ndarray]:
        """``(stride, words)``: every term at positions 0..max_shift of
        every entry, as one sorted ``uint64`` array, built on first use for
        each max_shift and kept.

        The term at position s of the entry of rank r in A-number order is
        the word ``(term mod 2**32) << 32 | r * stride + s``, where stride is
        the number of positions kept per entry.  Sorting groups the words of
        equal low term bits and orders each group by A-number, then shift.
        """
        cached = self._indexes.get(max_shift)
        if cached is None:
            longest = max((len(e.terms) for e in self._sorted), default=0)
            stride = min(max_shift + 1, longest)
            if len(self._sorted) * stride > _LOW + 1:
                raise ValueError("OEIS db too large for a 32-bit term index")
            words = np.fromiter(
                ((t & _LOW) << _HASH_BITS | (r * stride + s)
                 for r, e in enumerate(self._sorted)
                 for s, t in enumerate(e.terms[:stride])),
                dtype=np.uint64)
            words.sort()
            cached = self._indexes[max_shift] = (stride, words)
        return cached


def _check_match_args(max_shift: int, min_overlap: int) -> None:
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be at least 1, got {min_overlap}")
    if max_shift < 0:
        raise ValueError(f"max_shift must be at least 0, got {max_shift}")


def oeis_match(terms: Sequence[int], db: OeisDb, max_shift: int = 14,
               min_overlap: int = 8) -> tuple[int, int] | None:
    """Smallest A-number matching the query at some left shift 0..max_shift.

    A match at shift s compares the query against the entry's terms starting
    at position s, over the whole overlap: all query terms when the entry is
    long enough, otherwise every remaining entry term (at least min_overlap
    of them; entries in the wild run out of terms).  Ties go to the smallest
    A-number, then the smallest shift.  Raises ValueError when min_overlap
    is below 1 or max_shift below 0.

    Cost: a match needs the entry term at its shift to equal the first query
    term, so only those (entry, shift) pairs are checked.  They are found by
    a binary search over the db's term index (``OeisDb._term_index``), which
    the first lookup for a given max_shift builds (about 0.13 s and 4.3 MB
    for 37,000 entries at max_shift 14).  A later lookup costs two binary
    searches plus one exact comparison, about a microsecond, per candidate;
    entries whose term only agrees in its low 32 bits are candidates that
    the comparison rejects.
    """
    _check_match_args(max_shift, min_overlap)
    q = tuple(terms)
    if not q:
        return None
    need = min(len(q), min_overlap)
    stride, words = db._term_index(max_shift)
    key = (int(q[0]) & _LOW) << _HASH_BITS
    lo = np.searchsorted(words, np.uint64(key), side="left")
    hi = np.searchsorted(words, np.uint64(key | _LOW), side="right")
    for flat in (words[lo:hi] & np.uint64(_LOW)).tolist():
        r, s = divmod(flat, stride)
        entry = db._sorted[r]
        e = entry.terms
        overlap = min(len(q), len(e) - s)
        if overlap >= need and e[s:s + overlap] == q[:overlap]:
            return entry.anum, s
    return None


# ---------------------------------------------------------------------------
# the mining pipeline

@dataclass
class MineRow:
    """One symmetry class: its sequence, growth degree (None when growth is
    superpolynomial), whether the degree filter removed it, and the OEIS
    match for surviving rows.  ``annotation`` is free text for downstream
    joins (e.g. external solvability filters)."""

    patterns: tuple[PackedPerm, ...]
    terms: tuple[int, ...]
    degree: int | None
    degree_checked: bool
    filtered: bool
    anum: int | None
    shift: int | None
    annotation: str = ""


def mine_row(patterns: Sequence[PackedPerm], terms: Sequence[int],
             db: OeisDb | None, max_shift: int = 14,
             min_overlap: int = 8) -> MineRow:
    """The report row of one class from its terms |S_5|..|S_n|: the growth
    filter, then the OEIS lookup for classes it keeps (no lookup when db is
    None)."""
    terms = tuple(terms)
    try:
        degree = growth_degree(terms)
        checked = True
    except ValueError:
        degree, checked = None, False
    filtered = checked and degree is not None
    anum = shift = None
    if not filtered and db is not None:
        hit = oeis_match(terms, db, max_shift=max_shift, min_overlap=min_overlap)
        if hit is not None:
            anum, shift = hit
    return MineRow(tuple(patterns), terms, degree, checked, filtered, anum, shift)


def mine(pattern_length: int, min_size: int, n_max: int, db: OeisDb | None,
         max_shift: int = 14, min_overlap: int = 8,
         progress: Callable[[int, float, float], None] | None = None) -> list[MineRow]:
    """Sweep all symmetry classes of pattern sets in S_pattern_length with
    at least min_size patterns: counts |S_5|..|S_n_max| per class, then
    ``mine_row``.  ``progress`` gets, after each class, the number of
    classes done and the seconds spent so far counting (``PatternSet.build``
    and ``count_avoiders_fast``) and in ``mine_row`` (growth filter and
    OEIS lookup)."""
    _check_match_args(max_shift, min_overlap)
    layout = layout_for(n_max)
    rows = []
    counting = lookup = 0.0
    for done, patterns in enumerate(enumerate_symmetry_classes(pattern_length, min_size)):
        t0 = time.perf_counter()
        pat = PatternSet.build([PackedPerm.from_letters(p.letters(), layout)
                                for p in patterns])
        counts = count_avoiders_fast(pat, n_max)
        t1 = time.perf_counter()
        rows.append(mine_row(patterns, counts[FIRST_TERM_N - 1:], db,
                             max_shift, min_overlap))
        counting += t1 - t0
        lookup += time.perf_counter() - t1
        if progress is not None:
            progress(done + 1, counting, lookup)
    return rows


REPORT_HEADER = "canonical_patterns,terms,degree,oeis_anum,shift"


def write_report(rows: Iterable[MineRow], out: TextIO) -> None:
    out.write(REPORT_HEADER + "\n")
    for row in rows:
        pats = " ".join(format_perm(p) for p in row.patterns)
        terms = ";".join(str(t) for t in row.terms)
        if row.degree is not None:
            degree = str(row.degree)
        elif row.degree_checked:
            degree = "superpolynomial"
        else:
            degree = ""
        anum = f"A{row.anum:06d}" if row.anum is not None else ""
        shift = str(row.shift) if row.shift is not None else ""
        out.write(f"{pats},{terms},{degree},{anum},{shift}\n")
