"""Published enumerations as oracles for the extension-map engine.

The brute-force oracle stops near n = 8 and the differential tests compare
engines with each other, so neither sees a map that lost a bit in every
engine at once.  These closed forms fix the absolute counts at n = 13-15:

* Gessel (1990) for Av(1234) and, by reversal, Av(4321);
* Bona (1997), the generating function of Av(1342), which 2413 shares;
* Simion and Schmidt (1985) for every pair and triple of S_3.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from permscan.avoiders import PatternSet, count_avoiders_fast
from permscan.permcore import NIBBLE, WIDE
from permscan.sequences import enumerate_symmetry_classes


def gessel_1234(n):
    """a(n) = 2 sum_j C(2j,j) C(n,j)^2 (3j^2+2j+1-n-2jn) / ((j+1)^2 (j+2) (n-j+1))."""
    total = sum(Fraction(2 * comb(2 * j, j) * comb(n, j) ** 2 * (3 * j * j + 2 * j + 1 - n - 2 * j * n),
                         (j + 1) ** 2 * (j + 2) * (n - j + 1)) for j in range(n + 1))
    assert total.denominator == 1
    return int(total)


def bona_1342(n):
    """a_1..a_n of sum a_m x^m = 32x / (1 + 20x - 8x^2 - (1 - 8x)^(3/2))."""
    size = n + 2
    # (1 - 8x)^(3/2) = sum_i C(3/2, i) (-8x)^i, term by term
    root, c = [], Fraction(1)
    for i in range(size):
        root.append(c * (-8) ** i)
        c = c * (Fraction(3, 2) - i) / (i + 1)
    den = [-r for r in root]
    den[0] += 1
    den[1] += 20
    den[2] -= 8
    # den = x e(x) with e(0) = 32, so the series is 32 / e(x)
    assert den[0] == 0 and den[1] == 32
    e = den[1:]
    inv = [Fraction(1, 32)]
    for m in range(1, n + 1):
        inv.append(-sum(e[i] * inv[m - i] for i in range(1, m + 1)) / e[0])
    series = [32 * v for v in inv]
    assert all(v.denominator == 1 for v in series) and series[0] == 1
    return [int(v) for v in series[1:]]


def test_closed_forms_match_known_terms():
    assert [gessel_1234(n) for n in range(1, 7)] == [1, 2, 6, 23, 103, 513]
    assert gessel_1234(12) == 24_792_705 and gessel_1234(13) == 167_078_577
    assert bona_1342(6) == [1, 2, 6, 23, 103, 512]
    assert bona_1342(13)[10:] == [3_475_090, 22_214_707, 144_640_291]


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", ["1234", "4321"])
def test_gessel_av_1234(text, layout):
    got = count_avoiders_fast(PatternSet.parse(text, layout), 13)
    assert got == [gessel_1234(n) for n in range(1, 14)]
    assert got[11:] == [24_792_705, 167_078_577]


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("text", ["1342", "2413"])
def test_bona_av_1342(text, layout):
    n = 13 if layout is NIBBLE else 12
    assert count_avoiders_fast(PatternSet.parse(text, layout), n) == bona_1342(n)


S3 = ("123", "132", "213", "231", "312", "321")


def simion_schmidt(patterns, n):
    """|Av_n| of a pair or triple of S_3 (Simion and Schmidt 1985)."""
    pats = set(patterns)
    if {"123", "321"} <= pats:  # Erdos-Szekeres: none from n = 5
        small = [1, 2, 4, 4] if len(pats) == 2 else [1, 2, 3, 1]
        return small[n - 1] if n <= 4 else 0
    if len(pats) == 2:
        mono = pats & {"123", "321"}
        # 123 with 231 or 312, and their complements: 321 with 213 or 132
        if mono == {"123"} and pats & {"231", "312"} or mono == {"321"} and pats & {"132", "213"}:
            return 1 + comb(n, 2)
        return 2 ** (n - 1)
    if pats in ({"123", "132", "213"}, {"321", "231", "312"}):
        a, b = 1, 1
        for _ in range(n):
            a, b = b, a + b
        return a  # F_{n+1}
    return n


@pytest.mark.parametrize("size", [2, 3])
def test_simion_schmidt_s3(size):
    for layout in (NIBBLE, WIDE):
        for pats in combinations(S3, size):
            got = count_avoiders_fast(PatternSet.parse(" ".join(pats), layout), 15)
            assert got == [simion_schmidt(pats, n) for n in range(1, 16)], (pats, layout)


def test_s4_wilf_classes():
    """Symmetry classes of one, two and three patterns of S_4 and the
    distinct avoidance sequences among them through n = 10: 3 of 7
    singletons (Stankova 1994, West 1990), 38 of 56 pairs (Le 2005) and
    242 of 317 triples (Callan, Mansour and Shattuck 2017), which first all
    differ at n = 7, 8 and 9."""
    classes = {1: [], 2: [], 3: []}
    for cls in enumerate_symmetry_classes(4, 1):
        if len(cls) in classes:
            classes[len(cls)].append(cls)
    for size, n_classes, n_wilf, apart in [(1, 7, 3, 7), (2, 56, 38, 8), (3, 317, 242, 9)]:
        seqs = [tuple(count_avoiders_fast(PatternSet.build(cls), 10)) for cls in classes[size]]
        assert len(seqs) == n_classes, size
        assert len(set(seqs)) == n_wilf, size
        assert len({s[:apart - 1] for s in seqs}) < n_wilf == len({s[:apart] for s in seqs}), size
