"""Acceptance suite: one test per criterion, each printing a pass line
(run with -s to see them).  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import os
import random
import time
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

from permscan.avoiders import (
    PatternSet,
    build_avoiders_basic,
    count_avoiders_fast,
    count_avoiders_lowmem,
    detect_avoider,
    enumerate_avoiders_fast,
    extension_map,
    ignoring_extension_map,
)
from permscan.counting import (
    count_all,
    count_all_lowmem,
    count_downset,
    count_single_fast,
)
from permscan.oracle import oracle_count_covincular
from permscan.permcore import (
    WIDE,
    PackedPerm,
    delete_down,
    insert_up,
    parse_perm,
    standardize,
)
from permscan.sequences import OeisDb, count_symmetry_classes, oeis_match
from conftest import all_perms

CATALAN_13 = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900]


def _ok(num, text):
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------------------
# criterion 1

def test_criterion_1_catalan_reproduction():
    t0 = time.perf_counter()
    counts = count_avoiders_fast(PatternSet.parse("231"), 13)
    elapsed = time.perf_counter() - t0
    assert counts == CATALAN_13
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(1, f"231-avoider counts to n=13 exact in {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 2

def test_criterion_2_worked_examples():
    t0 = time.perf_counter()
    assert str(standardize([5, 3, 9, 7])) == "2143"
    assert str(insert_up(parse_perm("13524"), 2)) == "163524"
    assert str(delete_down(parse_perm("13524"), 2)) == "1342"

    pat123 = PatternSet.parse("123")
    below = {p.word for p in build_avoiders_basic(pat123, 4)[4]}
    assert detect_avoider(parse_perm("25143"), pat123, below)
    assert not detect_avoider(parse_perm("34215"), pat123, below)

    assert str(extension_map(parse_perm("12"), pat123)) == "110"
    assert str(ignoring_extension_map(parse_perm("53412"), pat123, 4)) == "111110"

    profile = {}
    stream = [(p, None) for m in range(1, 5) for p in all_perms(m)]
    count_downset(stream, pat123,
                  emit=lambda perm, prof: profile.__setitem__(perm.word, prof))
    assert profile[parse_perm("1234").word].values == (4, 3, 2, 1, 0)

    for n in range(3, 11):
        assert oracle_count_covincular(PackedPerm.identity(n),
                                       parse_perm("123"), {0, 2}) == n - 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(2, f"all golden worked examples exact in {elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence sweep at n = 8

N3 = 8


def _census_level(m):
    """letters matrix, packed words, and per-pattern hit-count matrices for
    subsequence lengths 3 and 4, over all of S_m."""
    perms = np.array(list(permutations(range(1, m + 1))), dtype=np.int8)
    rows = perms.shape[0]
    out = {}
    for k in (3, 4):
        pats = sorted(permutations(range(1, k + 1)))
        pairs = list(combinations(range(k), 2))
        code_of = {}
        for t, pat in enumerate(pats):
            code = 0
            for j, (a, b) in enumerate(pairs):
                if pat[a] < pat[b]:
                    code |= 1 << j
            code_of[code] = t
        lut = np.full(1 << len(pairs), -1, dtype=np.int8)
        for code, t in code_of.items():
            lut[code] = t
        counts = np.zeros((rows, len(pats)), dtype=np.int32)
        if m >= k:
            rng_rows = np.arange(rows)
            for combo in combinations(range(m), k):
                sub = perms[:, combo]
                code = np.zeros(rows, dtype=np.int16)
                for j, (a, b) in enumerate(pairs):
                    code |= (sub[:, a] < sub[:, b]).astype(np.int16) << j
                ids = lut[code]
                np.add.at(counts, (rng_rows, ids), 1)
        out[k] = (pats, counts)
    words = []
    for row in perms.tolist():
        w = 0
        for i, v in enumerate(row):
            w |= v << (4 * i)
        words.append(w)
    return words, out


@pytest.fixture(scope="module")
def census():
    levels = {}
    for m in range(1, N3 + 1):
        levels[m] = _census_level(m)
    return levels


def _truth_for(census_levels, pat, n):
    """(per-level avoider word sets, per-level hit histograms) by census"""
    sets = {}
    hists = {}
    for m in range(1, n + 1):
        words, by_k = census_levels[m]
        total = np.zeros(len(words), dtype=np.int64)
        for p in pat:
            k = p.length
            pats_k, counts_k = by_k[k]
            col = pats_k.index(p.letters())
            total += counts_k[:, col]
        mask = total == 0
        sets[m] = {w for w, good in zip(words, mask.tolist()) if good}
        vals, mults = np.unique(total, return_counts=True)
        hists[m] = dict(zip(vals.tolist(), mults.tolist()))
    return sets, hists


def _pattern_sets_for_criterion3():
    s3 = all_perms(3)
    sets = []
    for mask in range(1, 64):
        sets.append(PatternSet.build([s3[t] for t in range(6) if (mask >> t) & 1]))
    s4 = all_perms(4)
    rng = random.Random(0xACCE55)
    for _ in range(50):
        sets.append(PatternSet.build(rng.sample(s4, rng.randint(1, 8))))
    return sets


def test_criterion_3_oracle_equivalence_sweep(census):
    t0 = time.perf_counter()
    for pat in _pattern_sets_for_criterion3():
        truth_sets, truth_hists = _truth_for(census, pat, N3)
        want_counts = [len(truth_sets[m]) for m in range(1, N3 + 1)]

        basic = build_avoiders_basic(pat, N3)
        assert all({p.word for p in basic[m]} == truth_sets[m]
                   for m in range(1, N3 + 1))
        streamed = {m: set() for m in range(1, N3 + 1)}
        enumerate_avoiders_fast(pat, N3,
                                lambda r: streamed[r.perm.length].add(r.perm.word))
        assert streamed == truth_sets
        assert count_avoiders_fast(pat, N3) == want_counts
        assert count_avoiders_lowmem(pat, N3) == want_counts

        assert count_all(pat, N3).by_length == truth_hists
        assert count_all_lowmem(pat, N3).by_length == truth_hists
        if len(pat) == 1:
            assert count_single_fast(pat.patterns[0], N3).by_length == truth_hists
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(3, f"63 + 50 pattern sets, all engines == oracle at n<=8, "
           f"{elapsed:.1f}s (< 2min)")


# ---------------------------------------------------------------------------
# criterion 4

def test_criterion_4_mass_identity():
    for k in (2, 3, 4):
        for pi in all_perms(k):
            tally = count_all(PatternSet.build([pi]), 9)
            for m in range(1, 10):
                assert tally.hits_sum(m) == \
                    factorial(m) * comb(m, k) // factorial(k), (str(pi), m)
    _ok(4, "sum of hit counts = m! C(m,k)/k! for every pattern in "
           "S_2..S_4, m <= 9")


# ---------------------------------------------------------------------------
# criterion 5

@pytest.mark.slow
def test_criterion_5_symmetry_class_count():
    got = count_symmetry_classes(4, 5)
    assert got == 2_137_358
    _ok(5, "2,137,358 symmetry classes of pattern sets in S_4 with > 4 patterns")


# ---------------------------------------------------------------------------
# criterion 6

def test_criterion_6_level_4_size_rule():
    s4 = all_perms(4)
    rng = random.Random(0x5EED)
    for _ in range(1000):
        pats = rng.sample(s4, rng.randint(1, 24))
        counts = count_avoiders_fast(PatternSet.build(pats), 4, vectorized=False)
        assert counts[3] == 24 - len(pats)
    _ok(6, "|S_4(Pi)| = 24 - |Pi| on 1000 random pattern sets")


# ---------------------------------------------------------------------------
# criterion 7

def test_criterion_7_space_engines():
    s4 = all_perms(4)
    rng = random.Random(0x1007)
    k = 4
    for _ in range(20):
        pats = PatternSet.build(rng.sample(s4, rng.randint(1, 10)))

        fast = count_avoiders_fast(pats, 10)
        st7, st10 = {}, {}
        assert count_avoiders_lowmem(pats, 7, st7) == fast[:7]
        assert count_avoiders_lowmem(pats, 10, st10) == fast
        ratio7 = st7["max_live_extension_maps"] / 7 ** k
        assert st10["max_live_extension_maps"] <= 2 * ratio7 * 10 ** k, str(pats)

        dense = count_all(pats, 10)
        ct7, ct10 = {}, {}
        assert count_all_lowmem(pats, 7, ct7).by_length == \
            count_all(pats, 7).by_length
        assert count_all_lowmem(pats, 10, ct10).by_length == dense.by_length
        cratio7 = ct7["max_live_profile_rows"] * (k + 1) / (7 ** (k + 1) * k)
        assert ct10["max_live_profile_rows"] * (k + 1) <= \
            2 * cratio7 * 10 ** (k + 1) * k, str(pats)
    _ok(7, "low-memory engines match in-memory results at n=10 for 20 "
           "pattern sets within the space bounds")


# ---------------------------------------------------------------------------
# criterion 8

def test_criterion_8_single_pattern_work_bound():
    bound = 3 * sum(factorial(j) for j in range(1, 10))
    for m in range(3, 7):
        stats = {}
        count_single_fast(PackedPerm.identity(m), 9, stats)
        assert stats["profile_entries"] <= bound, (m, stats)
    _ok(8, f"profile entries <= 3 * sum(j!) = {bound} for identity patterns, n=9")


# ---------------------------------------------------------------------------
# criterion 9

def test_criterion_9_oeis_matcher_synthetic():
    prefix = [900 + j for j in range(14)]
    target = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]
    db = OeisDb.parse([
        "A000500 ," + ",".join(map(str, target)) + ",\n",
        "A000400 ," + ",".join(map(str, prefix + target)) + ",\n",
        "A000600 ," + ",".join(map(str, prefix + [0] + target)) + ",\n",
    ])
    assert oeis_match(target, db) == (400, 14)   # shift-14 + smallest A-number
    only_zero = OeisDb.parse(["A000500 ," + ",".join(map(str, target)) + ",\n"])
    assert oeis_match(target, only_zero) == (500, 0)
    needs_15 = OeisDb.parse(["A000600 ," + ",".join(map(str, prefix + [0] + target)) + ",\n"])
    assert oeis_match(target, needs_15) is None
    _ok(9, "synthetic db: shift 0 and 14 match, shift 15 does not, "
           "smallest A-number wins")


def _real_stripped_path():
    env = os.environ.get("PERMSCAN_OEIS_STRIPPED")
    if env and Path(env).exists():
        return env
    for name in ("stripped", "stripped.gz"):
        p = Path(__file__).parent / "data" / name
        if p.exists():
            return str(p)
    return None


@pytest.mark.slow
@pytest.mark.skipif(_real_stripped_path() is None,
                    reason="no local OEIS stripped file (set PERMSCAN_OEIS_STRIPPED)")
def test_criterion_9_real_db_match():
    # needs the wide word layout for n = 16; the count runs vectorized and
    # takes seconds although this avoider class grows Catalan-fast
    db = OeisDb.load(_real_stripped_path())
    pat = PatternSet.parse("2413 4132 1432 1342 1324", WIDE)
    counts = count_avoiders_fast(pat, 16)
    hit = oeis_match(counts[4:], db)
    assert hit is not None and hit[0] == 228180
    _ok(9, "n=5..16 terms of the sample class match A228180")


# ---------------------------------------------------------------------------
# criterion 10

def test_criterion_10_long_runs_are_scripts():
    root = Path(__file__).resolve().parents[1]
    sweep = root / "scripts" / "full_s4_sweep.py"
    timing = root / "scripts" / "timing_tables.py"
    assert sweep.exists() and timing.exists()
    assert "--limit" in sweep.read_text()
    _ok(10, "full sweep and timing tables shipped as documented long-run scripts")
