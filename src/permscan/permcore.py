"""Packed-integer permutations and the constant-time letter operations.

A permutation of {1..n} is stored in a single integer, one letter per
fixed-width bit block, block 1 in the least-significant position.  All other
modules build on the raw-word helpers here: inserting/removing a letter,
``deletion_chain`` (the "delete the r-th largest letter" permutations),
``max_insertion_inverses`` (partial inverses under max-insertion), and
incrementally standardizing upfixes (the largest i letters in position order).

Words are canonical: blocks above position n are zero, so word equality is
permutation equality and words can key hash tables directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np


class PermCapacityError(ValueError):
    """Permutation does not fit the configured word layout."""


@dataclass(frozen=True)
class PermLayout:
    """Block layout of a packed word.

    ``bits`` is the block width; letters are stored 1-based, so at most
    ``2**bits - 1`` distinct letters exist and ``capacity`` may not exceed
    that.  The default is one nibble per letter in a 64-bit word (n <= 15);
    ``WIDE`` switches to 5-bit blocks in a 128-bit word for n up to 25.
    """

    bits: int = 4
    capacity: int = 15

    def __post_init__(self) -> None:
        if self.capacity > (1 << self.bits) - 1:
            raise ValueError("capacity exceeds what 1-based letters allow")

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def ones(self, count: int) -> int:
        """Word with letter value 1 in each of the first `count` blocks."""
        return ((1 << (self.bits * count)) - 1) // ((1 << self.bits) - 1)


NIBBLE = PermLayout(bits=4, capacity=15)
WIDE = PermLayout(bits=5, capacity=25)


def layout_for(n: int) -> PermLayout:
    """Smallest standard layout able to hold length-n permutations."""
    if n <= NIBBLE.capacity:
        return NIBBLE
    if n <= WIDE.capacity:
        return WIDE
    raise PermCapacityError(f"no standard layout holds n={n}")


# ---------------------------------------------------------------------------
# raw word helpers (letters and positions are 1-based throughout)

def get_letter(word: int, i: int, layout: PermLayout = NIBBLE) -> int:
    return (word >> (layout.bits * (i - 1))) & layout.mask


def insert_pos(word: int, i: int, value: int, layout: PermLayout = NIBBLE) -> int:
    """Slide blocks i.. one position up and write `value` into block i."""
    b = layout.bits
    low = word & ((1 << (b * (i - 1))) - 1)
    high = (word >> (b * (i - 1))) << (b * i)
    return low | high | (value << (b * (i - 1)))


def kill_pos(word: int, i: int, layout: PermLayout = NIBBLE) -> int:
    """Erase block i, sliding the blocks above it one position down.

    Raw splice only: the surviving letters keep their values, so the result
    of killing a non-maximal letter is generally not a permutation.
    """
    b = layout.bits
    return (word & ((1 << (b * (i - 1))) - 1)) + ((word >> (i * b)) << (b * (i - 1)))


def pack(letters: Sequence[int], layout: PermLayout = NIBBLE) -> int:
    word = 0
    b = layout.bits
    for i, v in enumerate(letters):
        word |= v << (b * i)
    return word


def unpack(word: int, n: int, layout: PermLayout = NIBBLE) -> tuple[int, ...]:
    b, m = layout.bits, layout.mask
    return tuple((word >> (b * i)) & m for i in range(n))


def pack_rows(letters: np.ndarray, layout: PermLayout = NIBBLE) -> list[int]:
    """``pack`` of every row of a 2-D array of letters, 64 bits of blocks at
    a time (WIDE words of more than 12 letters exceed 64 bits)."""
    b = layout.bits
    per = 64 // b
    words = [0] * letters.shape[0]
    for start in range(0, letters.shape[1], per):
        block = letters[:, start:start + per].astype(np.uint64)
        shift = np.arange(block.shape[1], dtype=np.uint64) * np.uint64(b)
        part = np.bitwise_or.reduce(block << shift, axis=1).tolist()
        words = [w | (p << (b * start)) for w, p in zip(words, part)]
    return words


# ---------------------------------------------------------------------------
# public value types

@dataclass(frozen=True)
class PackedPerm:
    """A permutation of {1..n} in one packed word.

    Instances are immutable plain values; every operation on them is a pure
    function, so they are safe to share across threads.
    """

    word: int
    length: int
    layout: PermLayout = field(default=NIBBLE)

    def __post_init__(self) -> None:
        if self.length > self.layout.capacity:
            raise PermCapacityError(
                f"length {self.length} exceeds layout capacity {self.layout.capacity}")
        if self.word >> (self.layout.bits * self.length):
            raise ValueError("nonzero blocks above the permutation length")

    @classmethod
    def from_letters(cls, letters: Iterable[int], layout: PermLayout = NIBBLE) -> "PackedPerm":
        seq = tuple(letters)
        if sorted(seq) != list(range(1, len(seq) + 1)):
            raise ValueError(f"{seq!r} is not a permutation of 1..{len(seq)}")
        if len(seq) > layout.capacity:
            raise PermCapacityError(f"length {len(seq)} exceeds capacity {layout.capacity}")
        return cls(pack(seq, layout), len(seq), layout)

    @classmethod
    def identity(cls, n: int, layout: PermLayout = NIBBLE) -> "PackedPerm":
        return cls.from_letters(range(1, n + 1), layout)

    @classmethod
    def empty(cls, layout: PermLayout = NIBBLE) -> "PackedPerm":
        return cls(0, 0, layout)

    def letters(self) -> tuple[int, ...]:
        return unpack(self.word, self.length, self.layout)

    def letter(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise IndexError(f"position {i} out of 1..{self.length}")
        return get_letter(self.word, i, self.layout)

    def __str__(self) -> str:
        return format_perm(self)

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class UpfixBitmap:
    """Positions (as an n-bit map) holding the i largest letters of a host.

    Bit p-1 is set when position p carries one of the top i values; the
    number of set bits is always the current upfix size.  The incremental
    upfix standardization grows one of these a letter at a time, using a
    popcount of the bits below the incoming letter's position to find where
    value 1 splices into the previous standardization.
    """

    bits: int = 0

    def marked(self, pos: int) -> bool:
        return bool((self.bits >> (pos - 1)) & 1)

    def mark(self, pos: int) -> "UpfixBitmap":
        return UpfixBitmap(self.bits | (1 << (pos - 1)))

    def rank_below(self, pos: int) -> int:
        """How many marked positions lie strictly before pos."""
        return (self.bits & ((1 << (pos - 1)) - 1)).bit_count()

    def size(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class PartialInverse:
    """Positions of the largest `valid_count` letters, packed by value.

    Block v holds the position of letter v whenever v is among the largest
    `valid_count` values of the underlying permutation; lower blocks may be
    stale.  Engines keep only the top k (or k+1) blocks correct, which is all
    the delete-chain and extension-map updates ever read.
    """

    word: int
    valid_count: int

    @classmethod
    def from_perm(cls, p: PackedPerm, depth: int | None = None) -> "PartialInverse":
        depth = p.length if depth is None else min(depth, p.length)
        b = p.layout.bits
        word = 0
        lo = p.length - depth + 1
        for i, v in enumerate(p.letters(), start=1):
            if v >= lo:
                word |= i << (b * (v - 1))
        return cls(word, depth)

    def position_of(self, value: int, layout: PermLayout = NIBBLE) -> int:
        return get_letter(self.word, value, layout)


# ---------------------------------------------------------------------------
# text round trip

def parse_perm(text: str, layout: PermLayout = NIBBLE) -> PackedPerm:
    """Parse "13524" (one digit per letter) or "1 3 5 2 4" / "1,3,5,2,4"."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if any(sep in text for sep in (" ", ",")):
        parts = text.replace(",", " ").split()
        letters = [int(part) for part in parts]
    else:
        if not text.isdigit():
            raise ValueError(f"bad permutation text {text!r}")
        letters = [int(ch) for ch in text]
        if 0 in letters:
            raise ValueError(f"bad permutation text {text!r}: letter 0")
    return PackedPerm.from_letters(letters, layout)


def format_perm(p: PackedPerm) -> str:
    letters = p.letters()
    if p.length <= 9:
        return "".join(str(v) for v in letters)
    return " ".join(str(v) for v in letters)


# ---------------------------------------------------------------------------
# the up/down operators

def standardize(letters: Iterable[int], layout: PermLayout = NIBBLE) -> PackedPerm:
    """Pack the unique permutation order-isomorphic to `letters`.

    st(5397) = 2143: each letter is replaced by its rank.
    """
    seq = tuple(letters)
    if len(set(seq)) != len(seq):
        raise ValueError(f"letters {seq!r} are not distinct")
    if len(seq) > layout.capacity:
        raise PermCapacityError(f"length {len(seq)} exceeds capacity {layout.capacity}")
    rank = {v: r for r, v in enumerate(sorted(seq), start=1)}
    return PackedPerm(pack([rank[v] for v in seq], layout), len(seq), layout)


def insert_up(p: PackedPerm, i: int) -> PackedPerm:
    """Insert the new maximum n+1 in position i."""
    n = p.length
    if not 1 <= i <= n + 1:
        raise IndexError(f"insert position {i} out of 1..{n + 1}")
    if n + 1 > p.layout.capacity:
        raise PermCapacityError(f"length {n + 1} exceeds capacity {p.layout.capacity}")
    return PackedPerm(insert_pos(p.word, i, n + 1, p.layout), n + 1, p.layout)


def delete_down(p: PackedPerm, rank: int) -> PackedPerm:
    """Remove the rank-th largest letter and standardize."""
    n = p.length
    if not 1 <= rank <= n:
        raise IndexError(f"deletion rank {rank} out of 1..{n}")
    return PackedPerm(_delete_down_word(p.word, n, rank, p.layout), n - 1, p.layout)


def _delete_down_word(word: int, n: int, rank: int, layout: PermLayout) -> int:
    """``delete_down`` on a packed word of length n."""
    b, m = layout.bits, layout.mask
    value = n - rank + 1
    pos = 1
    while (word >> (b * (pos - 1))) & m != value:
        pos += 1
    word = kill_pos(word, pos, layout)
    out = 0
    for i in range(n - 1):
        v = (word >> (b * i)) & m
        out |= (v - 1 if v > value else v) << (b * i)
    return out


def delete_down_next(p: PackedPerm, prev: PackedPerm, inv: PartialInverse, rank: int) -> PackedPerm:
    """Step the deletion chain: from prev = p del_rank produce p del_(rank+1)
    in constant time (one step of ``deletion_chain``)."""
    n = p.length
    if rank + 1 > n:
        raise IndexError(f"deletion rank {rank + 1} out of 1..{n}")
    if inv.valid_count < rank + 1:
        raise ValueError(f"inverse valid for top {inv.valid_count} < {rank + 1} values")
    word = deletion_chain(prev.word, n, inv.word, rank + 1, p.layout, start=rank)[-1]
    return PackedPerm(word, n - 1, p.layout)


def deletion_chain(word: int, n: int, inv_word: int, depth: int,
                   layout: PermLayout = NIBBLE, start: int = 0) -> list[int]:
    """[D_start, ..., D_depth] of a length-n permutation from ``word`` =
    D_start: D_0 is the permutation and D_r deletes its r-th largest letter.
    To delete v instead of v+1, put v back where v+1 was and cut v out of
    its own place; the inverse, valid in the top ``depth`` values, gives
    both positions, so each step is constant time."""
    b = layout.bits
    mask = (1 << b) - 1
    chain = [word]
    for v in range(n - start, n - depth, -1):
        if v < n:  # insert_pos of v where v+1 was, inlined: this is the hot loop
            s = b * ((inv_word >> (b * v)) & mask) - b
            word = (word & ((1 << s) - 1)) | (word >> s << s + b) | (v << s)
        s = b * ((inv_word >> (b * (v - 1))) & mask) - b  # kill_pos of v
        word = (word & ((1 << s) - 1)) | (word >> s + b << s)
        chain.append(word)
    return chain


def full_inverse(p: PackedPerm) -> PackedPerm:
    word = 0
    b = p.layout.bits
    for i, v in enumerate(p.letters(), start=1):
        word |= i << (b * (v - 1))
    return PackedPerm(word, p.length, p.layout)


def update_inverse(inv: PartialInverse, p: PackedPerm, i: int,
                   keep: int | None = None) -> PartialInverse:
    """Inverse of p up^i from the inverse of p, valid in one more top value
    (at most ``keep``); one child of ``max_insertion_inverses``."""
    n = p.length
    target = min(inv.valid_count + 1, n + 1, n + 1 if keep is None else keep)
    word = max_insertion_inverses(inv.word, n, target, p.layout)[i - 1]
    return PartialInverse(word, target)


def max_insertion_inverses(inv_word: int, n: int, depth: int,
                           layout: PermLayout = NIBBLE) -> list[int]:
    """Inverse words of p up^1, ..., p up^(n+1), p of length n, valid in
    the top ``depth`` values, from p's (canonical, valid in its top
    depth-1).  Child i records i for the new maximum and adds one to each
    window block holding a position >= i: what child i-1 added, less the
    blocks holding i-1.  The n+1 inverses cost O(n + depth) together."""
    b, mask = layout.bits, layout.mask
    top = b * n
    at = [0] * (n + 2)  # at[q]: a one in each window block holding q
    bump = 0
    for shift in range(b * max(0, n - depth + 1), top, b):
        at[(inv_word >> shift) & mask] += 1 << shift
        bump += 1 << shift
    out = []
    for i in range(1, n + 2):
        out.append((inv_word + bump) | (i << top))
        bump -= at[i]
    return out


def upfix_standardize_scan(p: PackedPerm, inv: PartialInverse, r: int,
                           table_lookup: Callable[[int, int], bool]) -> int:
    """Largest i <= r whose upfix standardizations all pass `table_lookup`.

    Builds st(i-upfix) for i = 1, 2, ... incrementally: a bitmap marks the
    positions holding the i largest letters, and a popcount of the bits below
    the incoming letter's position says where to splice value 1 into the
    previous standardization (all of whose letters shift up by one).  Each
    step costs O(1); `table_lookup(i, st_word)` decides whether to continue.
    """
    limit = min(r, p.length)
    if inv.valid_count < limit:
        raise ValueError(f"inverse valid for top {inv.valid_count} < {limit} values")
    return _scan_upfixes(p.length, inv.word, limit, p.layout, table_lookup)


def _scan_upfixes(n: int, inv_word: int, r: int, layout: PermLayout,
                  table_lookup: Callable[[int, int], bool]) -> int:
    """``upfix_standardize_scan`` of a length-n permutation, given the word
    of an inverse valid in its top r values."""
    b, m = layout.bits, layout.mask
    bitmap = 0
    st = 0
    matched = 0
    for i in range(1, r + 1):
        pos = (inv_word >> (b * (n - i))) & m
        below = (bitmap & ((1 << (pos - 1)) - 1)).bit_count()
        st = insert_pos(st + layout.ones(i - 1), below + 1, 1, layout)
        bitmap |= 1 << (pos - 1)
        if not table_lookup(i, st):
            break
        matched = i
    return matched


def upfix(p: PackedPerm, i: int) -> PackedPerm:
    """st of the subword formed by the i largest letters, in position order."""
    if not 0 <= i <= p.length:
        raise IndexError(f"upfix size {i} out of 0..{p.length}")
    lo = p.length - i + 1
    return standardize([v for v in p.letters() if v >= lo], p.layout)


# ---------------------------------------------------------------------------
# the symmetries generating Wilf-equivalent pattern sets

def inverse_perm(p: PackedPerm) -> PackedPerm:
    return full_inverse(p)


def reverse_perm(p: PackedPerm) -> PackedPerm:
    return PackedPerm.from_letters(reversed(p.letters()), p.layout)


def complement_perm(p: PackedPerm) -> PackedPerm:
    n = p.length
    return PackedPerm.from_letters((n + 1 - v for v in p.letters()), p.layout)
