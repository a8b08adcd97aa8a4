"""The low-memory counting engine steps a node's consecutive children
together, in runs of at most _LOWMEM_RUN hosts.  These tests move that
budget (one child per run, two children of a three-child node so that the
last run is partial, the default, and every child in one run) and check the
engine against the dense one, which never cuts a level by tree node."""

from functools import lru_cache
from math import factorial

import pytest

from permscan import counting
from permscan.avoiders import PatternSet
from permscan.counting import _dense_tally, _lowmem_tally, count_all, count_all_lowmem
from permscan.permcore import NIBBLE, WIDE, PackedPerm, parse_perm
from permscan.vincular import CovincularPattern

SETS = ["1", "21", "12 321", "1 2413", "132 2413", "123", "1234",
        "2413 3142", "123 3142 4321", "12345"]
N_MAX = 9


def _split(k):
    """Two whole children of size (k+3)!/3! and one host more: the three
    children of a depth-2 node fill one run of two and one of one."""
    return 2 * factorial(k + 3) // factorial(3) + 1


def _budgets(k):
    return [1, _split(k), counting._LOWMEM_RUN, 1 << 30]


def _on(layout, text):
    return PatternSet.build([PackedPerm.from_letters(parse_perm(w).letters(), layout)
                             for w in text.split()])


def _sizes(k):
    return sorted({n for n in (1, k - 1, k, k + 1, 8, N_MAX) if n >= 1})


@lru_cache
def _dense(layout, text):
    return count_all(_on(layout, text), N_MAX).by_length


def _upto(hist, n):
    return {m: lvl for m, lvl in hist.items() if m <= n}


@pytest.mark.parametrize("budget", range(4), ids=["one", "split", "default", "all"])
@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", SETS)
def test_lowmem_runs_match_dense(monkeypatch, budget, layout, text):
    pat = _on(layout, text)
    monkeypatch.setattr(counting, "_LOWMEM_RUN", _budgets(pat.k)[budget])
    want = _dense(layout, text)
    for n in _sizes(pat.k):
        assert count_all_lowmem(pat, n).by_length == _upto(want, n), (text, n)


@pytest.mark.parametrize("budget", range(4), ids=["one", "split", "default", "all"])
@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", ["1", "21", "132", "2413"])
def test_lowmem_runs_pass_through(monkeypatch, budget, layout, text):
    """Pass-through at rank 0 (adjacency k), at the top rank (adjacency 0),
    at rank k-1 (adjacency 1) and at every rank."""
    pattern = PackedPerm.from_letters(parse_perm(text).letters(), layout)
    k = pattern.length
    pat = PatternSet.build([pattern])
    monkeypatch.setattr(counting, "_LOWMEM_RUN", _budgets(k)[budget])
    for adj in ({k}, {0}, {1}, set(range(k + 1))):
        cov = CovincularPattern(pattern, frozenset(adj))
        through = frozenset(i for i in range(k + 1) if cov.passes_through(i))
        want = _dense_tally(pat, N_MAX, through).by_length
        for n in _sizes(k):
            got = _lowmem_tally(pat, n, through, None).by_length
            assert got == _upto(want, n), (text, adj, n)


@pytest.mark.parametrize("text,n,rows", [
    ("1234", 7, 1_344), ("1234", 10, 11_088), ("123", 7, 420), ("123", 10, 1_980),
])
def test_one_child_per_run_keeps_live_rows(monkeypatch, text, n, rows):
    """A budget of 1 steps one tree node's batch at a time."""
    monkeypatch.setattr(counting, "_LOWMEM_RUN", 1)
    stats = {}
    count_all_lowmem(PatternSet.parse(text), n, stats)
    assert stats["max_live_profile_rows"] == rows


@pytest.mark.parametrize("text,n", [("123", 10), ("1234", 10), ("12 321", 9), ("2413 3142", 7)])
def test_live_rows_within_one_run_per_level(text, n):
    """Along the path, at most one run per level is live: level k whole,
    then at most max(budget, one child's batch) hosts at each level
    M = k+1..n, a child's batch at level M being M!/(M-k)! hosts."""
    pat = PatternSet.parse(text)
    k = pat.k
    stats = {}
    count_all_lowmem(pat, n, stats)
    bound = factorial(k) + sum(max(counting._LOWMEM_RUN, factorial(M) // factorial(M - k))
                               for M in range(k + 1, n + 1))
    assert stats["max_live_profile_rows"] <= bound
