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
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
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

def symmetry_group() -> tuple[Callable[[PackedPerm], PackedPerm], ...]:
    """The 8 maps generated by inverse, reverse, and complement (the
    symmetries of the permutation matrix), identity first.  Reverse and
    complement commute and inverse swaps them, so the group is id, r, c,
    r.c and each of these after inverse."""
    flips = (lambda p: p, reverse_perm, complement_perm,
             lambda p: reverse_perm(complement_perm(p)))
    return flips + tuple(lambda p, f=f: f(inverse_perm(p)) for f in flips)


_group = cache(symmetry_group)


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
    if k > 4:
        raise ValueError("class sweeps enumerate all subsets of S_k; k > 4 "
                         "is astronomically large")
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

    Counted by Burnside's lemma, enumerating no sets: a symmetry fixes
    exactly the sets that are unions of its cycles on S_k, so its fixed
    sets by size are the coefficients of the product of (1 + x^len) over
    those cycles, and the classes of each size are their average over the
    group.
    """
    perms, moves = _mask_tables(k)
    nbits = len(perms)
    fixed = [0] * (nbits + 1)
    for move in [range(nbits), *moves]:
        poly = [1] + [0] * nbits
        seen = [False] * nbits
        for start in range(nbits):
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = move[j]
                length += 1
            if length:
                for d in range(nbits, length - 1, -1):
                    poly[d] += poly[d - length]
        fixed = [f + c for f, c in zip(fixed, poly)]
    classes = sum(fixed[max(min_size, 0):]) // len(_group())
    if not include_full and nbits >= min_size:
        classes -= 1  # the full set is a class of its own
    return classes


def enumerate_symmetry_classes(k: int, min_size: int,
                               include_full: bool = False,
                               ) -> Iterator[tuple[PackedPerm, ...]]:
    """Canonical representatives, each sorted ascending by one-line letters,
    in a fixed deterministic order (full set S_k excluded by default, as in
    ``count_symmetry_classes``).  Classes are decoded as they are consumed;
    a k that cannot be swept raises here, before the first one."""
    perms, chunks = _canonical_masks(k, min_size, include_full)
    # bit j is the j-th pattern in descending letter order, so a mask's bits
    # read from the top down are its members sorted ascending; each byte of
    # the (at most 24-bit) masks decodes through a table of member tuples
    lo, mid, hi = ([tuple(perms[j] for j in range(8 * t + 7, 8 * t - 1, -1)
                          if (byte >> (j - 8 * t)) & 1 and j < len(perms))
                    for byte in range(256)] for t in range(3))
    return (hi[a] + mid[b] + lo[c] for masks in chunks
            for a, b, c in zip((masks >> np.uint32(16)).tolist(),
                               ((masks >> np.uint32(8)) & np.uint32(255)).tolist(),
                               (masks & np.uint32(255)).tolist()))


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


def avoidance_record(patterns: Iterable[PackedPerm], n_max: int) -> SequenceRecord:
    check_mine_args(n_max)
    cls = canonicalize(patterns)
    _, terms = _class_terms(cls.patterns, n_max)
    return SequenceRecord(cls, terms, n_max)


def _class_terms(patterns: tuple[PackedPerm, ...], n_max: int,
                 ) -> tuple[tuple[PackedPerm, ...], tuple[int, ...]]:
    """A class with its terms |S_5|..|S_n_max|, counted on the patterns
    in ``layout_for(n_max)`` (rebuilt only if on another layout).
    Module-level, so that a process pool can run it."""
    layout = layout_for(n_max)
    pat = PatternSet.build([p if p.layout == layout
                            else PackedPerm.from_letters(p.letters(), layout)
                            for p in patterns])
    return patterns, tuple(count_avoiders_fast(pat, n_max)[FIRST_TERM_N - 1:])


def growth_degree(terms: Sequence[int]) -> int | None:
    """Polynomial degree d <= 3 of the terms |S_5|, |S_6|, ..., or None for
    faster growth.

    Degree d means the (d+1)-st finite difference vanishes at every length
    from SETTLE_N on (early terms may misbehave; only the settled tail
    counts).  Raises if the terms are too short to check even degree 0 at
    SETTLE_N, i.e. shorter than through n = SETTLE_N + 1.
    """
    terms = list(terms)
    if FIRST_TERM_N + len(terms) - 1 < SETTLE_N + 1:
        raise ValueError(
            f"need terms through n={SETTLE_N + 1} to test growth at n={SETTLE_N}")
    for d in range(MAX_DEGREE + 1):
        diff = terms
        for _ in range(d + 1):
            diff = [b - a for a, b in zip(diff, diff[1:])]
        # diff[j] is the (d+1)-st difference at n = FIRST_TERM_N + j
        tail = diff[SETTLE_N - FIRST_TERM_N:]
        if tail and all(x == 0 for x in tail):
            return d
        if not tail:
            # cannot certify this or any higher degree; growth unknown
            raise ValueError(
                f"need terms through n={SETTLE_N + d + 1} to test degree {d}")
    return None


# ---------------------------------------------------------------------------
# local OEIS dump

class OeisFormatError(ValueError):
    pass


@dataclass(frozen=True)
class OeisEntry:
    anum: int
    terms: tuple[int, ...]


def _parse_line(line: str, lineno: int) -> OeisEntry | None:
    """The entry of one dump line, or None for a blank or ``#`` comment
    line.  Raises OeisFormatError naming the line when it is malformed."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    try:
        name, rest = line.split(None, 1)
        if not name.startswith("A"):
            raise ValueError("line must start with an A-number")
        anum = int(name[1:])
        terms = tuple(int(t) for t in rest.strip().strip(",").split(",") if t)
    except ValueError as exc:
        raise OeisFormatError(f"malformed OEIS line {lineno}: {exc}") from exc
    return OeisEntry(anum, terms)


def _bad_pairs() -> np.ndarray:
    """The byte pairs that cannot stand next to each other in a plain entry
    line ``A<digits> ,<t>,...,<t>,`` with terms ``-?<digits>``, as a bool
    table indexed by the little-endian ``uint16`` of the pair.  Any byte may
    follow a newline."""
    digits = b"0123456789"
    ok = np.zeros((256, 256), dtype=bool)   # [second byte, first byte]
    for first, second in ((b"\n", bytes(range(256))), (b"A", digits),
                          (digits, digits + b" ,"), (b" ", b","),
                          (b",", digits + b"-\n"), (b"-", digits)):
        ok[np.ix_(list(second), list(first))] = True
    return ~ok.ravel()


_BAD_PAIR = _bad_pairs()
_SCAN_BYTES = 1 << 20   # bytes per block of the load scan
_INDEX_ENTRIES = 1024   # entries per block of the term index build
_MAX_NAME_DIGITS = 18   # a plain line's A-number fits in int64

# OEIS index words: the low _HASH_BITS bits of a term above the flat
# (entry, shift) position of that term
_HASH_BITS = 32
_LOW = (1 << _HASH_BITS) - 1


def _scan(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per line of the newline-terminated ``data``: its start, its end (the
    offset of its newline), its A-number and whether it is a plain entry
    line.  The A-number is only meaningful on plain lines.  Byte arrays are
    scanned in blocks of ``_SCAN_BYTES``."""
    b = np.frombuffer(data, dtype=np.uint8)
    newlines, bad, spaces = [], [], []
    for lo in range(0, len(b), _SCAN_BYTES):
        hi = min(lo + _SCAN_BYTES, len(b) - 1)   # pairs that start in [lo, hi)
        newlines.append(np.flatnonzero(b[lo:hi] == ord("\n")) + lo)
        spaces.append(np.flatnonzero(b[lo:hi] == ord(" ")) + lo)
        for first in (lo, lo + 1):
            pairs = np.frombuffer(data, dtype="<u2", offset=first,
                                  count=max(0, (hi - first + 1) // 2))
            bad.append(np.flatnonzero(_BAD_PAIR[pairs]) * 2 + first)
    ends = np.concatenate(newlines + [np.array([len(b) - 1])])
    starts = np.concatenate(([0], ends[:-1] + 1))
    spaces = np.concatenate(spaces)
    line_of_space = np.searchsorted(ends, spaces)
    space = np.zeros(len(ends), dtype=np.int64)
    space[line_of_space] = spaces
    # plain: no bad pair, one space, and only digits, at most
    # _MAX_NAME_DIGITS, between the "A" and the space
    plain = ((b[starts] == ord("A"))
             & (np.bincount(line_of_space, minlength=len(ends)) == 1))
    plain[np.searchsorted(ends, np.concatenate(bad))] = False
    digits = space - starts - 1
    plain &= digits <= _MAX_NAME_DIGITS
    anums = np.zeros(len(ends), dtype=np.int64)
    for j in range(int(digits[plain].max()) if plain.any() else 0):
        live = plain & (j < digits)
        d = b[np.minimum(starts + 1 + j, len(b) - 1)] - np.uint8(ord("0"))
        plain &= ~live | (d < 10)
        anums = np.where(live, anums * 10 + d, anums)
    return starts, ends, anums, plain


def _decimal_low_bits(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``int(b[lo:hi]) mod 2**32`` of each span of decimal digits, by Horner
    steps in wrapping ``uint32``, longest spans first."""
    lo = np.maximum(lo, hi - _HASH_BITS)   # 10**32 is a multiple of 2**32
    length = (hi - lo).astype(np.uint8)
    order = np.argsort(length, kind="stable")   # a radix sort on uint8
    length, lo = length[order], lo[order]
    val = np.zeros(len(order), dtype=np.uint32)
    for j in range(int(length[-1]) if len(order) else 0):
        live = np.searchsorted(length, j, side="right")
        v = val[live:]
        v *= np.uint32(10)
        v += b[lo[live:] + j] - np.uint8(48)
    out = np.empty_like(val)
    out[order] = val
    return out


class OeisDb:
    """A loaded OEIS "stripped" dump: one line per sequence,
    ``A000045 ,0,1,1,2,3,5,...,`` with ``#`` comment lines.

    The dump is kept as its bytes, with the lines of its entries sorted by
    A-number.  ``load`` checks every line but converts no term: a line in
    the plain form ``A<digits> ,<term>,...,<term>,`` (terms ``-?<digits>``)
    is checked by a vectorized byte scan, and any other line goes through
    the line parser, which rejects it or yields an entry that is stored in
    the plain form.  A lookup converts only the terms it compares
    (``_matches_at``); every term becomes an exact int only when
    ``entries`` or ``_sorted`` is read.
    """

    def __init__(self, entries: Iterable[OeisEntry] = ()) -> None:
        self._setup(b"", _NO_LINES, list(enumerate(entries, start=1)))

    @classmethod
    def load(cls, path: str) -> "OeisDb":
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            data.decode("utf-8")   # a dump that is not UTF-8 fails here
        if b"\r" in data:         # universal newlines, as in text mode
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if data and not data.endswith(b"\n"):
            data += b"\n"
        if not data:
            return cls()
        starts, ends, anums, plain = _scan(data)
        parsed = []
        for n in np.flatnonzero(~plain & (ends > starts)).tolist():
            if data[starts[n]] == ord("#"):
                continue
            entry = _parse_line(data[starts[n]:ends[n]].decode("utf-8"), n + 1)
            if entry is not None:
                parsed.append((n + 1, entry))
        lines = np.flatnonzero(plain)
        db = cls.__new__(cls)
        db._setup(data, (anums[lines], starts[lines], ends[lines], lines + 1), parsed)
        return db

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "OeisDb":
        parsed = [(n, e) for n, line in enumerate(lines, start=1)
                  if (e := _parse_line(line, n)) is not None]
        db = cls.__new__(cls)
        db._setup(b"", _NO_LINES, parsed)
        return db

    def _setup(self, text: bytes, plain: tuple[np.ndarray, ...],
               parsed: list[tuple[int, OeisEntry]]) -> None:
        """Store, sorted by A-number, the plain lines of ``text`` (arrays of
        A-numbers, starts, ends and line numbers) and the ``(line number,
        entry)`` pairs of ``parsed``, which are appended to the text as
        plain lines."""
        anums, starts, ends, linenos = plain
        if parsed:
            for n, e in parsed:
                if not -(1 << 63) <= e.anum < 1 << 63:
                    raise OeisFormatError(f"malformed OEIS line {n}: A-number out of range")
            tail = [f"A{e.anum} ," + "".join(f"{t}," for t in e.terms) + "\n"
                    for _, e in parsed]
            lengths = np.array([len(t) for t in tail], dtype=np.int64)
            tail_ends = len(text) + np.cumsum(lengths)
            anums = np.concatenate((anums, [e.anum for _, e in parsed]))
            starts = np.concatenate((starts, tail_ends - lengths))
            ends = np.concatenate((ends, tail_ends - 1))
            linenos = np.concatenate((linenos, [n for n, _ in parsed]))
            text += "".join(tail).encode()
        order = np.argsort(anums, kind="stable")
        self._text = text
        self._anums, self._starts, self._ends, self._linenos = (
            a[order] for a in (anums, starts, ends, linenos))
        dup = np.flatnonzero(self._anums[1:] == self._anums[:-1])
        if dup.size:
            later = np.maximum(self._linenos[dup], self._linenos[dup + 1])
            r = dup[np.argmin(later)]
            raise OeisFormatError(f"duplicate A-number A{self._anums[r]:06d} "
                                  f"on OEIS line {later.min()}")
        self._indexes: dict[int, tuple[int, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._anums)

    def _matches_at(self, r: int, s: int, q: tuple[int, ...], need: int) -> bool:
        """Whether the terms of the entry of rank r in A-number order, from
        position s on, equal the query over their overlap, and that overlap
        holds at least ``need`` terms.  Converts only the overlap's terms,
        stopping at the first that differs."""
        line = self._text[self._starts[r]:self._ends[r]]
        at = line.index(b",")
        for _ in range(s):
            at = line.index(b",", at + 1)
        fields = line[at + 1:].split(b",", len(q))   # a plain line ends with ","
        overlap = min(len(q), len(fields) - 1)
        return overlap >= need and all(int(f) == t for f, t in zip(fields[:overlap], q))

    @cached_property
    def _sorted(self) -> list[OeisEntry]:
        return [_parse_line(self._text[a:b].decode("ascii"), n) for a, b, n in
                zip(self._starts.tolist(), self._ends.tolist(), self._linenos.tolist())]

    @cached_property
    def entries(self) -> list[OeisEntry]:
        """The entries in the order of their lines."""
        return [self._sorted[r] for r in np.argsort(self._linenos).tolist()]

    def _term_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per block of ``_INDEX_ENTRIES`` lines in text order: their ranks,
        the offsets of the commas in their span of the text, the index of
        each line's first comma in that array, and each line's term count."""
        text_order = np.argsort(self._starts)
        b = np.frombuffer(self._text, dtype=np.uint8)
        for i in range(0, len(text_order), _INDEX_ENTRIES):
            ranks = text_order[i:i + _INDEX_ENTRIES]
            starts, ends = self._starts[ranks], self._ends[ranks]
            lo = starts[0]
            commas = np.flatnonzero(b[lo:ends[-1]] == ord(",")) + lo
            first = np.searchsorted(commas, starts)
            yield ranks, commas, first, np.searchsorted(commas, ends) - first - 1

    def _term_index(self, max_shift: int) -> tuple[int, np.ndarray]:
        """``(stride, words)``: every term at positions 0..max_shift of
        every entry, as one sorted ``uint64`` array, built on first use for
        each max_shift and kept.

        The term at position s of the entry of rank r in A-number order is
        the word ``(term mod 2**32) << 32 | r * stride + s``, where stride is
        the number of positions kept per entry.  Sorting groups the words of
        equal low term bits and orders each group by A-number, then shift.
        The low term bits come straight from each term's digits, a block of
        entries at a time.
        """
        cached = self._indexes.get(max_shift)
        if cached is None:
            stride = 0   # min(max_shift + 1, most terms of an entry)
            for *_, nterms in self._term_blocks():
                stride = max(stride, min(max_shift + 1, int(nterms.max())))
                if stride == max_shift + 1:
                    break
            if len(self) * stride > _LOW + 1:
                raise ValueError("OEIS db too large for a 32-bit term index")
            b = np.frombuffer(self._text, dtype=np.uint8)
            words = np.empty(len(self) * stride, dtype=np.uint64)
            filled = 0
            for ranks, commas, first, nterms in self._term_blocks():
                k = np.minimum(nterms, stride)
                owner = np.repeat(np.arange(len(k)), k)
                s = np.arange(len(owner)) - np.repeat(np.cumsum(k) - k, k)
                comma = first[owner] + s
                lo, hi = commas[comma] + 1, commas[comma + 1]
                neg = b[lo] == ord("-")
                low = _decimal_low_bits(b, lo + neg, hi)
                np.negative(low, out=low, where=neg)
                block = words[filled:filled + len(low)]
                np.left_shift(low, _HASH_BITS, out=block, dtype=np.uint64)
                block |= (ranks[owner] * stride + s).astype(np.uint64)
                filled += len(low)
            words = words[:filled]
            words.sort()
            cached = self._indexes[max_shift] = (stride, words)
        return cached


_NO_LINES = tuple(np.zeros(0, dtype=np.int64) for _ in range(4))


def check_match_args(max_shift: int, min_overlap: int) -> None:
    if min_overlap < 1:
        raise ValueError(f"min_overlap must be at least 1, got {min_overlap}")
    if max_shift < 0:
        raise ValueError(f"max_shift must be at least 0, got {max_shift}")


def check_mine_args(n_max: int, max_shift: int = 14, min_overlap: int = 8) -> None:
    """Raise ValueError unless n_max is FIRST_TERM_N or more and fits the
    wide layout, and the lookup arguments are valid."""
    if n_max < FIRST_TERM_N:
        raise ValueError(f"n_max must be at least {FIRST_TERM_N}")
    layout_for(n_max)
    check_match_args(max_shift, min_overlap)


def _holders(words: np.ndarray, term: int) -> np.ndarray:
    """The ascending flat positions of the index words whose term has the
    low bits of ``term``: two binary searches."""
    key = (int(term) & _LOW) << _HASH_BITS
    lo = np.searchsorted(words, np.uint64(key), side="left")
    hi = np.searchsorted(words, np.uint64(key | _LOW), side="right")
    return words[lo:hi] & np.uint64(_LOW)


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
    binary searches over the db's term index (``OeisDb._term_index``), which
    the first lookup for a given max_shift builds from the dump's digits (see
    README, "OEIS input", for its measured cost).  When the overlap must hold
    two terms, a pair whose next term is in the index but lacks the second
    query term's low bits is dropped without reading its entry.  Each pair
    left, in A-number order until one matches, gets an exact comparison that
    converts the entry's terms from text up to the first that differs;
    entries whose terms only agree in their low 32 bits are candidates that
    the comparison rejects.
    """
    check_match_args(max_shift, min_overlap)
    q = tuple(terms)
    if not q:
        return None
    need = min(len(q), min_overlap)
    stride, words = db._term_index(max_shift)
    flats = _holders(words, q[0])
    if need >= 2 and flats.size:
        # the entry term after the first must equal q[1]; where the index
        # holds that term, it is among q[1]'s holders
        beyond = flats % np.uint64(stride) == np.uint64(stride - 1)
        flats = flats[beyond | np.isin(flats + np.uint64(1), _holders(words, q[1]))]
    for flat in flats.tolist():
        r, s = divmod(flat, stride)
        if db._matches_at(r, s, q, need):
            return int(db._anums[r]), s
    return None


# ---------------------------------------------------------------------------
# the mining pipeline

@dataclass
class MineRow:
    """One symmetry class: its sequence, growth degree (None when growth is
    superpolynomial), whether the degree filter removed it, and the OEIS
    match for surviving rows."""

    patterns: tuple[PackedPerm, ...]
    terms: tuple[int, ...]
    degree: int | None
    degree_checked: bool
    filtered: bool
    anum: int | None
    shift: int | None


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


def mine_rows(classes: Iterable[tuple[PackedPerm, ...]], n_max: int,
              db: OeisDb | None, *, max_shift: int = 14, min_overlap: int = 8,
              progress: Callable[[int, float, float], None] | None = None,
              imap: Callable = map) -> Iterator[MineRow]:
    """The report rows of a class stream, in its order.  ``imap(f, classes)``
    counts each class through n_max (builtin ``map``, or a process pool's
    ordered ``imap``: f pickles); ``mine_row`` runs in this process.
    ``progress`` gets, after each class, the classes done and the seconds
    spent so far waiting for counts and in ``mine_row``.  The arguments are
    checked (``check_mine_args``) at the call, before anything is counted."""
    check_mine_args(n_max, max_shift, min_overlap)
    counted = imap(partial(_class_terms, n_max=n_max), classes)

    def rows() -> Iterator[MineRow]:
        counting = lookup = 0.0
        t0 = time.perf_counter()
        for done, (patterns, terms) in enumerate(counted, start=1):
            t1 = time.perf_counter()
            row = mine_row(patterns, terms, db, max_shift, min_overlap)
            counting += t1 - t0
            lookup += time.perf_counter() - t1
            if progress is not None:
                progress(done, counting, lookup)
            yield row
            t0 = time.perf_counter()

    return rows()


def mine(pattern_length: int, min_size: int, n_max: int, db: OeisDb | None,
         max_shift: int = 14, min_overlap: int = 8) -> list[MineRow]:
    """``mine_rows`` over all symmetry classes of pattern sets in
    S_pattern_length with at least min_size patterns, as a list, in this
    process and without progress reports."""
    return list(mine_rows(enumerate_symmetry_classes(pattern_length, min_size), n_max, db,
                          max_shift=max_shift, min_overlap=min_overlap))


REPORT_HEADER = "canonical_patterns,terms,degree,oeis_anum,shift"
_pattern_text = lru_cache(maxsize=1024)(format_perm)  # rows share a few dozen patterns


def write_report(rows: Iterable[MineRow], out: TextIO) -> None:
    out.write(REPORT_HEADER + "\n")
    for row in rows:
        pats = " ".join(_pattern_text(p) for p in row.patterns)
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
