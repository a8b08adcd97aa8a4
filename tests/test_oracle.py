import random
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan.avoiders import PatternSet
from permscan.oracle import (
    SubseqCounter,
    hit_census,
    oracle_avoider_levels,
    oracle_contains,
    oracle_count_covincular,
    oracle_count_hits,
    oracle_hit_histogram,
)
from permscan.permcore import PackedPerm, parse_perm, reverse_perm, standardize
from conftest import all_perms, perms_upto


def test_reference_hits():
    host = parse_perm("18365472")
    assert oracle_contains(host, PatternSet.parse("123"))
    assert oracle_contains(host, PatternSet.parse("312"))
    assert not oracle_contains(host, PatternSet.parse("3124"))
    assert oracle_count_hits(parse_perm("1234"), PatternSet.parse("123")) == 4
    assert oracle_count_hits(parse_perm("4321"), PatternSet.parse("123")) == 0


def test_single_letter_pattern():
    pat = PatternSet.parse("1")
    for p in perms_upto(5):
        assert oracle_contains(p, pat)
        assert oracle_count_hits(p, pat) == p.length


def test_contains_iff_count_positive_exhaustive():
    s3 = all_perms(3)
    sets = []
    for mask in range(1, 64):
        sets.append(PatternSet.build([s3[j] for j in range(6) if (mask >> j) & 1]))
    for p in perms_upto(7):
        census = hit_census(p, 3)
        for pat in sets:
            total = sum(census.get(q.word, 0) for q in pat)
            assert oracle_contains(p, pat) == (total > 0)
            assert oracle_count_hits(p, pat) == total


def test_count_against_position_enumeration():
    host = parse_perm("18365472")
    letters = host.letters()
    want = sum(1 for c in combinations(range(8), 3)
               if standardize([letters[i] for i in c]) == parse_perm("312"))
    assert oracle_count_hits(host, PatternSet.parse("312")) == want


def test_mass_identity():
    cases = [(parse_perm("21"), 7), (parse_perm("231"), 7), (parse_perm("2413"), 7),
             (parse_perm("312"), 8)]
    for pi, nmax in cases:
        k = pi.length
        pat = PatternSet.build([pi])
        for n in range(1, nmax + 1):
            total = sum(oracle_count_hits(p, pat) for p in all_perms(n))
            assert total == factorial(n) * comb(n, k) // factorial(k), (str(pi), n)


def test_reverse_symmetry():
    for pi in (parse_perm("132"), parse_perm("2431")):
        rpat = PatternSet.build([reverse_perm(pi)])
        pat = PatternSet.build([pi])
        for p in perms_upto(6):
            assert oracle_count_hits(reverse_perm(p), rpat) == oracle_count_hits(p, pat)


def test_mixed_length_sets():
    pat = PatternSet.parse("21 123")
    for p in perms_upto(6):
        want = (oracle_count_hits(p, PatternSet.parse("21"))
                + oracle_count_hits(p, PatternSet.parse("123")))
        assert oracle_count_hits(p, pat) == want


def test_counter_instrumentation():
    counter = SubseqCounter()
    oracle_count_hits(parse_perm("18365472"), PatternSet.parse("312"), counter=counter)
    assert counter.examined > 0
    before = counter.examined
    oracle_contains(parse_perm("18365472"), PatternSet.parse("312"), counter=counter)
    assert counter.examined > before  # accumulates across calls


@pytest.mark.parametrize("text", ["231", "2431", "12 321", "1 2413"])
def test_sweep_counters_sum_the_per_permutation_counters(text):
    """A counter passed to a whole-of-S_<=n sweep ends at the sum of the
    counters of the per-permutation calls the sweep is made of."""
    pat = PatternSet.parse(text)
    n = 6
    for sweep, check in ((oracle_avoider_levels, oracle_contains),
                         (oracle_hit_histogram, oracle_count_hits)):
        want = 0
        for p in perms_upto(n):
            one = SubseqCounter()
            check(p, pat, counter=one)
            want += one.examined
        counter = SubseqCounter()
        assert sweep(pat, n, counter) == sweep(pat, n)
        assert counter.examined == want > 0


def test_cursor_invariant():
    # the partial standardization always equals st of the chosen letters
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(3, 7)
        letters = list(range(1, n + 1))
        rng.shuffle(letters)
        p = PackedPerm.from_letters(letters)
        trace = []
        oracle_count_hits(p, PatternSet.parse("231 1234"), trace=trace)
        assert trace
        for cur in trace:
            chosen = sorted(cur.positions)
            assert standardize([letters[q - 1] for q in chosen]).word == cur.st_word


def test_covincular_examples():
    for n in range(3, 9):
        assert oracle_count_covincular(
            PackedPerm.identity(n), parse_perm("123"), {0, 2}) == n - 2
    assert oracle_count_covincular(parse_perm("1342"), parse_perm("123"), {1}) == 0
    with pytest.raises(ValueError):
        oracle_count_covincular(parse_perm("123"), parse_perm("12"), {5})


def test_covincular_no_constraints_equals_plain_count():
    for p in perms_upto(6):
        for pi in (parse_perm("12"), parse_perm("231")):
            assert oracle_count_covincular(p, pi, set()) == \
                oracle_count_hits(p, PatternSet.build([pi]))


@settings(max_examples=100)
@given(st.integers(2, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_census_totals(letters):
    p = PackedPerm.from_letters(letters)
    census = hit_census(p, 3)
    n = p.length
    if n >= 3:
        assert sum(census.values()) == comb(n, 3)
    for word, cnt in census.items():
        pat = PatternSet.build([PackedPerm(word, 3)])
        assert oracle_count_hits(p, pat) == cnt
