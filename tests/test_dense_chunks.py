"""The dense engine tallies its last level in pieces of whole deletion-table
rows.  These tests move the piece size (one row, seven rows of the n = 8,
k = 3 table so that the last piece is partial, and the default)
and check every dense entry point against references that never cut a
level: the low-memory engine and the hash-table step over the
max-insertion stream."""

from collections import Counter
from functools import lru_cache
from math import factorial

import pytest

from permscan import counting
from permscan.avoiders import PatternSet
from permscan.counting import _count_stream, _lowmem_tally, count_all, count_all_lowmem
from permscan.permcore import NIBBLE, WIDE, PackedPerm, parse_perm
from permscan.vincular import (
    CovincularPattern,
    covincular_count_all,
    covincular_count_set,
)
from conftest import max_insertion_stream

CHUNKS = [1, 7 * 1680, counting._CHUNK_HOSTS]
SETS = ["1", "12", "21 123", "1 2413", "132 2413", "123 3142 4321", "2413 3142", "12345"]


def _sizes(k):
    return sorted({n for n in (1, k - 1, k, k + 1, 8) if n >= 1})


def _on(layout, text):
    return PatternSet.build([PackedPerm.from_letters(parse_perm(w).letters(), layout)
                             for w in text.split()])


def _upto(tally, n):
    return {m: lvl for m, lvl in tally.by_length.items() if m <= n}


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c}")
def chunk(request, monkeypatch):
    monkeypatch.setattr(counting, "_CHUNK_HOSTS", request.param)
    return request.param


def test_last_level_pieces_are_whole_rows(chunk):
    """Pieces cover the level in order, each a whole number of rows of the
    rank-(k+1) table, at most max(chunk, one row) hosts."""
    pat = PatternSet.parse("132 2413")
    rows = 8 * 7 * 6 * 5 * 4
    pieces = [cur[0].size for m, cur in counting._dense_levels(pat, 8) if m == 8]
    assert sum(pieces) == factorial(8)
    assert all(size % rows == 0 and size <= max(chunk, rows) for size in pieces)
    if chunk < factorial(8):
        assert len(pieces) > 1


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", SETS)
def test_count_all_in_pieces(chunk, layout, text):
    pat = _on(layout, text)
    want = count_all_lowmem(pat, 8)
    for n in _sizes(pat.k):
        assert count_all(pat, n).by_length == _upto(want, n), (text, n)


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", ["1", "21", "132", "2413"])
def test_covincular_count_all_in_pieces(chunk, layout, text):
    """Pass-through at rank 0 (adjacency k), at the top rank (adjacency 0)
    and at every rank, on the dense path against the low-memory one."""
    pattern = PackedPerm.from_letters(parse_perm(text).letters(), layout)
    k = pattern.length
    for adj in ({k}, {0}, set(range(k + 1))):
        cov = CovincularPattern(pattern, frozenset(adj))
        through = frozenset(i for i in range(k + 1) if cov.passes_through(i))
        want = _lowmem_tally(PatternSet.build([pattern]), 8, through, None)
        for n in _sizes(k):
            assert covincular_count_all(cov, n).by_length == _upto(want, n), (text, adj, n)


COVS = [CovincularPattern(parse_perm("12"), frozenset({1})),
        CovincularPattern(parse_perm("321"), frozenset({0}))]


@lru_cache
def _summed_stream_tally(n):
    """Histogram of the per-host totals of COVS over the hash-table step."""
    stream = [(p, None) for p in max_insertion_stream(n)]
    totals = Counter()
    for c in COVS:
        through = frozenset(i for i in range(c.k + 1) if c.passes_through(i))

        def emit(q, prof):
            totals[q.length, q.word] += prof.p0

        _count_stream(stream, PatternSet.build([c.pattern]), through, emit=emit)
    want = {}
    for (m, _), hits in totals.items():
        lvl = want.setdefault(m, {})
        lvl[hits] = lvl.get(hits, 0) + 1
    return want


@pytest.mark.parametrize("n", [7, 8])
def test_covincular_count_set_pieces_line_up(chunk, n):
    """Patterns of lengths 2 and 3 cut the last level at the same places."""
    assert covincular_count_set(COVS, n).by_length == _summed_stream_tally(n)


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", ["123", "1342 2413"])
def test_no_level_above_k_comes_whole(layout, text):
    """Above level k, every array _dense_levels yields is one window of at
    most max(_CHUNK_HOSTS, one (k+1)-digit row) hosts, and each level's
    windows add up to the whole level."""
    pat = _on(layout, text)
    k = pat.k
    hosts = Counter()
    for m, cur in counting._dense_levels(pat, 10):
        if m > k:
            row = factorial(m) // factorial(m - k - 1)
            assert {x.size for x in cur} == {cur[0].size}, (text, m)
            assert cur[0].size <= max(counting._CHUNK_HOSTS, row), (text, m, cur[0].size)
        hosts[m] += cur[0].size
    assert hosts == {m: factorial(m) for m in range(1, 11)}
