"""The dense and low-memory counting engines start each host's profile from
P_j, j = min(k, m), read off the last j digits of its insertion code through
``counting._top_codes`` instead of gathering it.  These tests check the
table against brute-force standardization, every engine that takes this
step against the hash-table references ``count_downset`` and
``covincular_count_downset`` over S_<=n, and that no deletion table above
rank k is built."""

from collections import Counter
from functools import lru_cache
from math import factorial

import pytest

from permscan import counting
from permscan.avoiders import PatternSet
from permscan.counting import (
    _count_stream,
    _lowmem_tally,
    _top_codes,
    count_all,
    count_all_lowmem,
    count_downset,
)
from permscan.permcore import NIBBLE, WIDE, PackedPerm, parse_perm
from permscan.vincular import (
    CovincularPattern,
    covincular_count_all,
    covincular_count_downset,
    covincular_count_set,
)
from conftest import max_insertion_stream

N_MAX = 8
LAYOUTS = pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
SETS = ["1", "12", "21", "1 12", "21 123", "1 2413", "12 321", "12 132 2413",
        "132 2413", "123 3142 4321"]
PATTERNS = ["1", "12", "21", "132", "231", "2413"]


def _code(letters):
    """Level-j index of a permutation: its insertion code as a mixed-radix
    numeral, the digit of letter t being how many smaller letters precede t."""
    index = 0
    for t in range(1, len(letters) + 1):
        index = index * t + sum(v < t for v in letters[:letters.index(t)])
    return index


def _level(m):
    """The letters of every permutation of length m in insertion-code order."""
    level = [()]
    for t in range(1, m + 1):
        level = [p[:i] + (t,) + p[i:] for p in level for i in range(t)]
    return level


@pytest.mark.parametrize("m", range(1, N_MAX + 1))
def test_top_codes_standardize_the_top_letters(m):
    level = _level(m)
    assert [_code(p) for p in level] == list(range(factorial(m)))
    for j in range(1, min(5, m) + 1):
        table = _top_codes(m, j)
        period = factorial(m) // factorial(m - j)
        assert table.size == period
        for index, letters in enumerate(level):
            top = tuple(v - (m - j) for v in letters if v > m - j)
            assert table[index % period] == _code(top), (m, j, letters)


def _on(layout, text):
    return PatternSet.build([PackedPerm.from_letters(parse_perm(w).letters(), layout)
                             for w in text.split()])


def _sizes(k):
    return sorted({n for n in (k - 1, k, k + 1, N_MAX) if n >= 1})


def _upto(hist, n):
    return {m: lvl for m, lvl in hist.items() if m <= n}


@lru_cache
def _stream(layout):
    return [(p, None) for p in max_insertion_stream(N_MAX, layout)]


@lru_cache
def _reference(layout, text):
    return count_downset(_stream(layout), _on(layout, text)).by_length


@pytest.fixture(params=["one", "default"])
def run(request, monkeypatch):
    """The low-memory engine's run budget: one child per run, or 2^13 hosts."""
    if request.param == "one":
        monkeypatch.setattr(counting, "_LOWMEM_RUN", 1)
    return request.param


@LAYOUTS
@pytest.mark.parametrize("text", SETS)
def test_engines_match_count_downset(run, layout, text):
    pat = _on(layout, text)
    want = _reference(layout, text)
    for n in _sizes(pat.k):
        assert count_all(pat, n).by_length == _upto(want, n), (text, n)
        assert count_all_lowmem(pat, n).by_length == _upto(want, n), (text, n)


def _adjacency_sets(k):
    """{0}, {k}, {0, k} and {1..k-1}: P_k passes through, P_0 does, both
    do, and every rank in between does."""
    return [{0}, {k}, {0, k}, set(range(1, k))]


def _through(cov):
    return frozenset(i for i in range(cov.k + 1) if cov.passes_through(i))


@lru_cache
def _cov_reference(cov):
    return covincular_count_downset(_stream(cov.pattern.layout), cov).by_length


@LAYOUTS
@pytest.mark.parametrize("text", PATTERNS)
def test_covincular_engines_match_downset(run, layout, text):
    pattern = PackedPerm.from_letters(parse_perm(text).letters(), layout)
    k = pattern.length
    for adj in _adjacency_sets(k):
        cov = CovincularPattern(pattern, frozenset(adj))
        want = _cov_reference(cov)
        for n in _sizes(k):
            assert covincular_count_all(cov, n).by_length == _upto(want, n), (text, adj, n)
            got = _lowmem_tally(PatternSet.build([pattern]), n, _through(cov), None)
            assert got.by_length == _upto(want, n), (text, adj, n)


COV_SETS = [
    [("1", {0}), ("12", {1})],
    [("21", {2}), ("132", {0})],
    [("1", {1}), ("21", {0, 2}), ("2413", {1, 2, 3})],
    [("12", set()), ("231", {0, 3}), ("2413", {4})],
]


@LAYOUTS
@pytest.mark.parametrize("spec", COV_SETS, ids=lambda s: "+".join(t for t, _ in s))
def test_covincular_count_set_mixed_lengths(layout, spec):
    """Per-host totals of patterns of different lengths, from the hash-table
    step with each pattern's pass-through set."""
    covs = [CovincularPattern(PackedPerm.from_letters(parse_perm(t).letters(), layout),
                              frozenset(adj)) for t, adj in spec]
    totals = Counter()

    def emit(q, prof):
        totals[q.length, q.word] += prof.p0

    for cov in covs:
        _count_stream(_stream(layout), PatternSet.build([cov.pattern]), _through(cov),
                      emit=emit)
    want = {}
    for (m, _), hits in totals.items():
        want.setdefault(m, Counter())[hits] += 1
    k = max(c.k for c in covs)
    for n in _sizes(k):
        got = covincular_count_set(covs, n).by_length
        assert got == {m: dict(lvl) for m, lvl in want.items() if m <= n}, (spec, n)


def test_levels_above_k_hold_no_top_profile():
    """Level m keeps P_0..P_m up to k, P_m being the membership vector,
    and P_0..P_{k-1} above k."""
    pat = PatternSet.parse("1 132 2413")
    kept = [len(cur) for _, cur in counting._dense_levels(pat, 7)]
    assert kept == [2, 3, 4, 5, 4, 4, 4]


def test_no_table_above_rank_k(monkeypatch):
    """count_all and count_all_lowmem of a k = 4 set at n = 10 build
    deletion tables of ranks up to 4 only, and a second call builds none."""
    table = counting._deletion_table
    table.cache_clear()
    _top_codes.cache_clear()
    keys = []

    def recorded(m, rank):
        keys.append((m, rank))
        return table(m, rank)

    monkeypatch.setattr(counting, "_deletion_table", recorded)
    pat = PatternSet.parse("1342 2413")
    want = count_all(pat, 10).by_length
    assert count_all_lowmem(pat, 10).by_length == want
    assert {rank for _, rank in keys} == {2, 3, 4}  # rank 1 is a repeat
    assert table.cache_info().currsize == len(set(keys))
    built, codes = table.cache_info().misses, _top_codes.cache_info().misses
    assert codes == 6  # _top_codes(m, 4) for m = 5..10
    assert count_all(pat, 10).by_length == want
    assert count_all_lowmem(pat, 10).by_length == want
    assert table.cache_info().misses == built
    assert _top_codes.cache_info().misses == codes
