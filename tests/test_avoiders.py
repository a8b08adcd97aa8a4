import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan.avoiders import (
    AvoiderRecord,
    ExtensionMap,
    PatternSet,
    build_avoiders_basic,
    count_avoiders_fast,
    count_avoiders_lowmem,
    detect_avoider,
    enumerate_avoiders_fast,
    extension_map,
    ignoring_extension_map,
)
from permscan.oracle import hit_census, oracle_contains
from permscan.permcore import NIBBLE, WIDE, PermCapacityError, insert_up, parse_perm
from conftest import all_perms, random_pattern_sets

CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900]


def oracle_levels(pat, n):
    """Ground truth by censusing every host once."""
    k_values = sorted({p.length for p in pat})
    words = {p.word for p in pat}
    out = {}
    for m in range(1, n + 1):
        keep = set()
        for p in all_perms(m, pat.layout):
            total = 0
            for k in k_values:
                census = hit_census(p, k)
                total += sum(census.get(w, 0) for w in words)
            if total == 0:
                keep.add(p)
        out[m] = keep
    return out


def test_pattern_set_basics():
    pat = PatternSet.parse("123, 231")
    assert len(pat) == 2 and pat.k == 3
    assert parse_perm("123") in pat and parse_perm("321") not in pat
    assert pat.upfix_table(1) == {parse_perm("1").word}
    # top two letters of 123 and of 231 both read "12" after standardizing
    assert pat.upfix_table(2) == {parse_perm("12").word}
    assert PatternSet.parse("312").upfix_table(2) == {parse_perm("21").word}
    assert pat.upfix_table(4) == frozenset()
    mixed = PatternSet.parse("21 123")
    assert mixed.k == 3 and mixed.lengths() == (2, 3)
    # only patterns long enough contribute an upfix of each size
    assert mixed.upfix_table(3) == {parse_perm("123").word}
    with pytest.raises(ValueError):
        PatternSet.build([])
    # duplicates collapse
    assert len(PatternSet.parse("123 123")) == 1


def test_pattern_set_rejects_mixed_layouts_and_blank_text():
    with pytest.raises(ValueError, match="^patterns mix word layouts$"):
        PatternSet.build([parse_perm("12"), parse_perm("213", WIDE)])
    with pytest.raises(ValueError, match="^no patterns in '  '$"):
        PatternSet.parse("  ")


def test_count_past_nibble_capacity_is_refused():
    with pytest.raises(PermCapacityError, match="^n=16 exceeds layout capacity 15$"):
        count_avoiders_fast(PatternSet.parse("231"), 16)


def test_ignoring_extension_map_rejects_value_out_of_range():
    p, pat = parse_perm("213"), PatternSet.parse("123")
    for value in (0, 4):
        with pytest.raises(ValueError, match=rf"^ignored value {value} out of 1\.\.3$"):
            ignoring_extension_map(p, pat, value)


def test_pattern_set_bracket_syntax():
    pat = PatternSet.parse("[10 2 1 3 4 5 6 7 8 9] 123")
    assert pat.k == 10


def test_extension_map_type():
    em = ExtensionMap(0b011, 3)
    assert str(em) == "110"
    assert em.test(1) and em.test(2) and not em.test(3)
    assert em.positions() == (1, 2)
    assert em.popcount() == 2
    with pytest.raises(IndexError):
        em.test(4)


def test_extension_map_reference_values():
    pat = PatternSet.parse("123")
    assert str(extension_map(parse_perm("12"), pat)) == "110"
    assert str(ignoring_extension_map(parse_perm("53412"), pat, 4)) == "111110"
    with pytest.raises(ValueError):
        extension_map(parse_perm("123"), pat)  # not an avoider


def test_detect_avoider_figure_examples():
    pat = PatternSet.parse("123")
    below = {p.word for p in build_avoiders_basic(pat, 4)[4]}
    assert detect_avoider(parse_perm("25143"), pat, below)
    assert not detect_avoider(parse_perm("34215"), pat, below)
    assert not detect_avoider(parse_perm("1"), PatternSet.parse("1"), set())


def test_detect_avoider_matches_oracle():
    # every host of lengths 2..6, avoider or not, on random S_3 sets
    s3 = all_perms(3)
    rng = random.Random(2)
    sets = [PatternSet.build(rng.sample(s3, rng.randint(1, 4))) for _ in range(10)]
    for pat in sets:
        levels = build_avoiders_basic(pat, 6)
        for m in range(2, 7):
            below = {p.word for p in levels[m - 1]}
            for p in all_perms(m):
                assert detect_avoider(p, pat, below) == (not oracle_contains(p, pat)), str(p)


def test_build_basic_golden():
    pat = PatternSet.parse("231")
    levels = build_avoiders_basic(pat, 5)
    assert [len(levels[m]) for m in range(1, 6)] == [1, 2, 5, 14, 42]
    assert all(len(lv) == 0 for lv in build_avoiders_basic(PatternSet.parse("1"), 3).values())
    both = build_avoiders_basic(PatternSet.parse("123 321"), 5)
    assert [len(both[m]) for m in range(1, 6)] == [1, 2, 4, 4, 0]


def inversions(p):
    letters = p.letters()
    return sum(1 for i in range(len(letters)) for j in range(i + 1, len(letters))
               if letters[i] > letters[j])


def test_downset_filter_inversions():
    pat = PatternSet.parse("231")
    for j in range(0, 4):
        got = build_avoiders_basic(pat, 7, downset_filter=lambda p: inversions(p) <= j)
        for m in range(1, 8):
            want = {p for p in all_perms(m)
                    if inversions(p) <= j and not oracle_contains(p, pat)}
            assert got[m] == want, (j, m)


def test_engines_agree_with_oracle_s3():
    s3 = all_perms(3)
    for mask in range(1, 64):
        pat = PatternSet.build([s3[t] for t in range(6) if (mask >> t) & 1])
        truth = oracle_levels(pat, 6)
        want_counts = [len(truth[m]) for m in range(1, 7)]
        basic = build_avoiders_basic(pat, 6)
        assert {m: basic[m] for m in truth} == truth
        assert count_avoiders_fast(pat, 6, vectorized=False) == want_counts
        assert count_avoiders_fast(pat, 6, vectorized=True) == want_counts
        assert count_avoiders_lowmem(pat, 6) == want_counts
        streamed = {m: set() for m in range(1, 7)}
        enumerate_avoiders_fast(pat, 6,
                                lambda r: streamed[r.perm.length].add(r.perm))
        assert streamed == truth


def test_engines_agree_with_oracle_s4_samples(s4_patterns):
    for pats in random_pattern_sets(s4_patterns, 12, seed=0xA5):
        pat = PatternSet.build(pats)
        truth = oracle_levels(pat, 6)
        want = [len(truth[m]) for m in range(1, 7)]
        assert count_avoiders_fast(pat, 6) == want
        assert count_avoiders_lowmem(pat, 6) == want
        basic = build_avoiders_basic(pat, 6)
        assert {m: basic[m] for m in truth} == truth


def test_mixed_length_sets_agree():
    for text in ("21 123", "132 4312", "1 12", "12 321 4321"):
        pat = PatternSet.parse(text)
        truth = oracle_levels(pat, 6)
        want = [len(truth[m]) for m in range(1, 7)]
        assert count_avoiders_fast(pat, 6, vectorized=False) == want
        assert count_avoiders_fast(pat, 6, vectorized=True) == want
        assert count_avoiders_lowmem(pat, 6) == want


def test_extension_map_soundness():
    # streamed maps match bit-by-bit detection against the true level sets
    s3 = all_perms(3)
    for mask in (0b1, 0b10, 0b11, 0b101, 0b111, 0b110101, 0b111111):
        pat = PatternSet.build([s3[t] for t in range(6) if (mask >> t) & 1])
        levels = build_avoiders_basic(pat, 8)
        words_by_len = {m: {p.word for p in levels[m]} for m in levels}
        records = []
        enumerate_avoiders_fast(pat, 8, records.append)
        for rec in records:
            m = rec.perm.length
            if rec.extension_map is None:
                assert m == 8
                continue
            for i in range(1, m + 2):
                child = insert_up(rec.perm, i)
                want = detect_avoider(child, pat, words_by_len[m])
                assert rec.extension_map.test(i) == want, (str(rec.perm), i)


def test_sink_sees_levels_in_order():
    pat = PatternSet.parse("231")
    seen = []
    enumerate_avoiders_fast(pat, 6, lambda r: seen.append(r.perm.length))
    assert seen == sorted(seen)
    assert isinstance(AvoiderRecord(parse_perm("1"), None, None), AvoiderRecord)


def test_single_pattern_monotone_levels():
    for k in (2, 3, 4):
        for pi in all_perms(k):
            counts = count_avoiders_fast(PatternSet.build([pi]), 8)
            assert all(a <= b for a, b in zip(counts, counts[1:])), str(pi)


def test_s4_level_depends_only_on_size(s4_patterns):
    rng = random.Random(99)
    for _ in range(50):
        pats = rng.sample(s4_patterns, rng.randint(1, 24))
        counts = count_avoiders_fast(PatternSet.build(pats), 4)
        assert counts[3] == 24 - len(pats)


def test_catalan_reference():
    assert count_avoiders_fast(PatternSet.parse("231"), 13) == CATALAN
    assert count_avoiders_fast(PatternSet.parse("312"), 10) == CATALAN[:10]


def test_lowmem_stats_and_fallback():
    pat = PatternSet.parse("12345")
    stats = {}
    # n below the pattern length falls back to the in-memory engine
    assert count_avoiders_lowmem(pat, 3, stats) == [1, 2, 6]
    assert "max_live_extension_maps" in stats
    stats = {}
    counts = count_avoiders_lowmem(PatternSet.parse("231"), 10, stats)
    assert counts == CATALAN[:10]
    assert 0 < stats["max_live_extension_maps"] < sum(counts)


def test_wide_layout_engines():
    pat = PatternSet.parse("231", WIDE)
    assert count_avoiders_fast(pat, 16)[:13] == CATALAN
    assert pat.layout is WIDE


def test_wide_layout_catalan_n16():
    catalan_16 = CATALAN + [2674440, 9694845, 35357670]
    assert count_avoiders_fast(PatternSet.parse("231", WIDE), 16) == catalan_16[:16]


# Differential matrix for count_avoiders_fast.  Classes: mixed lengths, a
# length-2 and a length-1 pattern, the Erdos-Szekeres dead levels, a class
# whose levels never reach the numpy switch size, and two that cross it.
MATRIX_SETS = ("132 4321", "12 321 4321", "21 123", "1 12", "123 321",
               "123 132 231", "123 132")


@pytest.mark.parametrize("text", MATRIX_SETS)
def test_count_fast_paths_agree(text):
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        for n in sorted({pat.k - 1, pat.k, pat.k + 1, 15, 16}):
            if not 1 <= n <= layout.capacity:
                continue
            want = count_avoiders_fast(pat, n, vectorized=False)
            assert count_avoiders_fast(pat, n, vectorized=True) == want, (layout, n)
            assert count_avoiders_fast(pat, n) == want, (layout, n)


def test_count_fast_matrix_spans_the_switch():
    from permscan.avoiders import _VECTOR_MIN_LEVEL

    def largest_level(text):
        return max(count_avoiders_fast(PatternSet.parse(text), 14, vectorized=False))

    assert largest_level("123 132 231") < _VECTOR_MIN_LEVEL
    assert largest_level("123 132") >= _VECTOR_MIN_LEVEL
    assert largest_level("132 4321") >= _VECTOR_MIN_LEVEL


def test_count_fast_wide_n20():
    pat = PatternSet.parse("132 4321", WIDE)
    assert count_avoiders_fast(pat, 20) == count_avoiders_fast(pat, 20, vectorized=False)


def test_inconsistent_level_fails_loudly(monkeypatch):
    import permscan.avoiders as av

    real_step = av._pointer_step
    calls = []

    def corrupting_step(psi_b, level, k, maps_only=False):
        psi_b, level = real_step(psi_b, level, k, maps_only)
        if not calls:
            # the first step builds the length-3 avoiders of 231; claim that
            # every insertion into the first of them avoids
            level[0][0] = 0b1111
        calls.append(1)
        return psi_b, level

    monkeypatch.setattr(av, "_pointer_step", corrupting_step)
    with pytest.raises(RuntimeError, match="deletion pointer"):
        count_avoiders_fast(PatternSet.parse("231"), 8, vectorized=True)


def test_inconsistent_listing_fails_loudly(monkeypatch):
    import permscan.avoiders as av

    real_step = av._pointer_step
    calls = []

    def corrupting_step(psi_b, level, k, maps_only=False):
        psi_b, level = real_step(psi_b, level, k, maps_only)
        if not calls:
            # the first step builds the 132 length-6 avoiders of 231; claim
            # that every insertion into the first of them avoids
            level[0][0] = 0b1111111
        calls.append(1)
        return psi_b, level

    monkeypatch.setattr(av, "_pointer_step", corrupting_step)
    with pytest.raises(RuntimeError, match="deletion pointer"):
        enumerate_avoiders_fast(PatternSet.parse("231"), 9, lambda r: None)


@pytest.mark.parametrize("text,path,n,block,corrupt", [
    # 5 length-3 avoiders in blocks of 2: the last sits in block 3
    ("132", "count", 8, 2, 0b1111),
    # 132 length-6 avoiders in blocks of 16: the last sits in block 9
    ("132", "list", 9, 16, 0b1111111),
    # here a pointer lands one past the end of the level below
    ("123", "count", 8, 2, 0b1111),
])
def test_inconsistent_late_block_fails_loudly(monkeypatch, text, path, n, block, corrupt):
    """The deletion-pointer check runs on every block, not only the first,
    and before any pointer is followed."""
    import permscan.avoiders as av

    real_step = av._pointer_step
    calls = []

    def corrupting_step(psi_b, level, k, maps_only=False):
        psi_b, level = real_step(psi_b, level, k, maps_only)
        if not calls:
            # claim that every insertion into the level's last avoider avoids
            level[0][-1] = corrupt
        calls.append(1)
        return psi_b, level

    monkeypatch.setattr(av, "_BLOCK", block)
    monkeypatch.setattr(av, "_pointer_step", corrupting_step)
    pat = PatternSet.parse(text)
    with pytest.raises(RuntimeError, match="deletion pointer"):
        if path == "count":
            count_avoiders_fast(pat, n, vectorized=True)
        else:
            enumerate_avoiders_fast(pat, n, lambda r: None)


# Block-size differential: _pointer_step builds a level _BLOCK parents at a
# time.  Blocks of one parent, of three, and of a size that ends inside the
# larger levels must give the same counts, listed rows and pointer levels as
# one block spanning every level.
BLOCK_SETS = ("1 12", "21 123", "231", "123 132", "132 4321")


def _blocked_run(monkeypatch, pat, n, block, steps):
    """Counts, listed rows (bytes) and the pointer levels that every
    ``_pointer_step`` returned (bytes), with blocks of `block` parents."""
    import permscan.avoiders as av

    monkeypatch.setattr(av, "_BLOCK", block)
    steps.clear()
    counts = count_avoiders_fast(pat, n, vectorized=True)
    rows = [(letters.tobytes(), None if maps is None else maps.tobytes())
            for letters, maps in av.avoider_rows(pat, n)]
    levels = [new if isinstance(new, int) else
              (new[0].tobytes(), [a.tobytes() for a in new[1]],
               [a.tobytes() for a in new[2]])
              for new in steps]
    return counts, rows, levels


@pytest.mark.parametrize("text", BLOCK_SETS)
def test_block_size_does_not_change_levels(monkeypatch, text):
    import permscan.avoiders as av

    real_step = av._pointer_step
    steps = []

    def recording_step(psi_b, level, k, maps_only=False):
        psi_b, new = real_step(psi_b, level, k, maps_only)
        steps.append(new)
        return psi_b, new

    monkeypatch.setattr(av, "_pointer_step", recording_step)
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        for n in sorted({pat.k - 1, pat.k, pat.k + 1, 12} - {0}):
            whole = _blocked_run(monkeypatch, pat, n, 1 << 30, steps)
            assert whole[0] == count_avoiders_fast(pat, n, vectorized=False), (layout, n)
            # a block of one parent costs a Python round per parent, so the
            # n = 12 levels (16,796 parents at length 10 for 231) run the
            # larger blocks only
            for block in (3, 1000) if n == 12 else (1, 3, 1000):
                assert _blocked_run(monkeypatch, pat, n, block, steps) == whole, \
                    (layout, n, block)


def test_block_sizes_split_levels():
    """The differential above reaches the pointer step, and its block of
    1000 ends inside a level at n = 12."""
    from permscan.avoiders import _VECTOR_MIN_LEVEL

    levels = count_avoiders_fast(PatternSet.parse("231"), 12, vectorized=False)
    assert max(levels) >= _VECTOR_MIN_LEVEL
    assert any(size > 1000 and size % 1000 for size in levels[:-1])


@pytest.mark.parametrize("text", ["132 231", "132 4321"])
def test_block_size_does_not_change_wide_levels(monkeypatch, text):
    """The same differential at n = 18 on WIDE, where maps reach 17 bits and
    _children reads them as two 16-bit halves: levels of such maps span
    several blocks of 1000 and of 4096 parents."""
    import permscan.avoiders as av

    real_step = av._pointer_step
    steps = []
    wide_parents = []

    def recording_step(psi_b, level, k, ranks):
        if level[0].size and level[0].max() >> 16:
            wide_parents.append(level[0].size)
        psi_b, new = real_step(psi_b, level, k, ranks)
        steps.append(new)
        return psi_b, new

    monkeypatch.setattr(av, "_pointer_step", recording_step)
    pat = PatternSet.parse(text, WIDE)
    whole = _blocked_run(monkeypatch, pat, 18, 1 << 30, steps)
    assert whole[0] == count_avoiders_fast(pat, 18, vectorized=False)
    assert max(wide_parents) > 4096
    for block in (1000, 4096):
        assert _blocked_run(monkeypatch, pat, 18, block, steps) == whole, block


def test_erdos_szekeres_dead_levels():
    counts = count_avoiders_fast(PatternSet.parse("123 321"), 8)
    assert counts == [1, 2, 4, 4, 0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 24 - 1))
def test_fast_engine_random_s4_sets(mask):
    s4 = all_perms(4)
    pats = [s4[t] for t in range(24) if (mask >> t) & 1]
    if not pats:
        return
    pat = PatternSet.build(pats)
    truth = [sum(1 for p in all_perms(m) if not oracle_contains(p, pat))
             for m in range(1, 6)]
    assert count_avoiders_fast(pat, 5) == truth


def test_collect_avoider_levels():
    from permscan.avoiders import collect_avoider_levels

    pat = PatternSet.parse("231")
    levels = collect_avoider_levels(pat, 6)
    assert [len(lv) for lv in levels] == [1, 2, 5, 14, 42, 132]
    for lv in levels:
        assert len(lv.perms()) == len(lv)  # no duplicates
        assert all(r.perm.length == lv.length for r in lv.records)
    assert levels == sorted(levels, key=lambda lv: lv.length)


def test_engines_agree_at_n9():
    # cross-engine agreement one level beyond the oracle-checked sweep
    from permscan.counting import count_all, count_all_lowmem

    for text in ("123", "321 231", "2413 3142", "132"):
        pat = PatternSet.parse(text)
        fast = count_avoiders_fast(pat, 9)
        assert count_avoiders_lowmem(pat, 9) == fast
        assert count_avoiders_fast(pat, 9, vectorized=False) == fast
        tally = count_all(pat, 9)
        assert count_all_lowmem(pat, 9).by_length == tally.by_length
        zero = tally.zero_counts()
        assert [zero.get(m, 0) for m in range(1, 10)] == fast
        if len(pat) == 1:
            from permscan.counting import count_single_fast

            assert count_single_fast(pat.patterns[0], 9).by_length == tally.by_length


def test_enumerate_single_descending_chain():
    # avoiding 12 leaves exactly the decreasing permutation of each length
    pat = PatternSet.parse("12")
    seen = []
    enumerate_avoiders_fast(pat, 4, lambda r: seen.append(str(r.perm)))
    assert seen == ["1", "21", "321", "4321"]


@pytest.mark.parametrize("text,n", [("231", 8), ("21 123", 5), ("132 4321", 9)])
def test_enumerate_records_match_basic(text, n):
    """Records on both layouts, including a class above the pointer-step
    switch (132 4321): per level the basic engine's perms, inverses right on
    the top min(m, k) letters, and sampled maps equal to extension_map."""
    rng = random.Random(n)
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        basic = build_avoiders_basic(pat, n)
        by_len = {m: [] for m in range(1, n + 1)}
        order = []
        enumerate_avoiders_fast(pat, n, lambda r: (by_len[r.perm.length].append(r),
                                                   order.append(r.perm.length)))
        assert order == sorted(order)
        for m, records in by_len.items():
            assert len({r.perm for r in records}) == len(records)
            assert {r.perm for r in records} == basic[m], (layout, m)
            depth = min(m, pat.k)
            for r in records:
                letters = r.perm.letters()
                assert r.inverse.valid_count == depth
                for v in range(m - depth + 1, m + 1):
                    assert r.inverse.position_of(v, layout) == letters.index(v) + 1
                assert (r.extension_map is None) == (m == n)
            for r in rng.sample(records, min(3, len(records))) if m < n else ():
                assert r.extension_map == extension_map(r.perm, pat), (layout, str(r.perm))


# count_avoiders_lowmem against count_avoiders_fast: mixed lengths and
# patterns of length 1 or 2, on both layouts, at n in {k-1, k, k+1, 9}.
LOWMEM_SETS = ("1", "12", "21", "1 12", "21 123", "132 4321", "12 321 4321")


@pytest.mark.parametrize("text", LOWMEM_SETS)
def test_lowmem_matches_fast_on_both_layouts(text):
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        for n in sorted({pat.k - 1, pat.k, pat.k + 1, 9} - {0}):
            assert count_avoiders_lowmem(pat, n) == count_avoiders_fast(pat, n), (layout, n)


# Insertion positions: the pointer step reads each child's position from a
# table of set-bit positions.  The bit-peel loop it replaced is kept here as
# the reference.

def _peeled_insertions(psi, off, total):
    one = np.uint32(1)
    ins = np.empty(total, np.uint8)
    live = np.flatnonzero(psi)
    rem, dst = psi[live], off[live]
    while rem.size:
        low = rem & (~rem + one)
        ins[dst] = np.bitwise_count(low - one) + 1
        rem ^= low
        keep = rem != 0
        rem, dst = rem[keep], dst[keep] + 1
    return ins


@pytest.mark.parametrize("size", [1, 3, 1 << 15])
def test_insertion_table_matches_peel(size):
    import permscan.avoiders as av

    rng = np.random.default_rng(size)
    # from width 17 on, the full map (at least) reaches the two-halves path
    for width in range(1, 32):
        full = (1 << width) - 1
        dense = rng.integers(0, full + 1, size, dtype=np.uint32)
        sparse = dense & rng.integers(0, full + 1, size, dtype=np.uint32)
        for maps in (dense, sparse, np.zeros(size, np.uint32),
                     np.full(size, full, np.uint32)):
            w, o = av._offsets(maps)
            total = int(w.sum())
            parent, got = av._children(maps)
            assert np.array_equal(parent, np.repeat(np.arange(size), w))
            assert got.dtype == np.uint8 and got.shape == (total,)
            assert np.array_equal(got, _peeled_insertions(maps, o, total)), (width, size)


def _v_shapes(letters):
    """For rows that fall to their 1 and rise after it (Av(132, 231)), the
    set of letters left of the 1 as a bit mask, which fixes the row; None if
    some row is not of that shape."""
    bottom = letters.argmin(axis=1)[:, None]
    step = np.diff(letters.astype(np.int16), axis=1)
    if not np.where(np.arange(step.shape[1]) < bottom, step < 0, step > 0).all():
        return None
    left = np.arange(letters.shape[1]) < bottom
    return np.where(left, np.int64(1) << letters, 0).sum(axis=1)


def test_wide_maps_of_17_bits_and_more():
    """Av(132, 231) has 2^(m-1) avoiders of length m; at n = 18..20 the
    pointer step reads maps of 17 to 19 bits as two 16-bit halves."""
    from permscan.avoiders import avoider_rows

    pat = PatternSet.parse("132 231", WIDE)
    for n in (18, 19, 20):
        assert count_avoiders_fast(pat, n) == [2 ** (m - 1) for m in range(1, n + 1)]
    for m, (letters, maps) in enumerate(avoider_rows(pat, 20), start=1):
        assert letters.shape == (2 ** (m - 1), m), m
        assert (maps is None) == (m == 20)
        if m >= 17:
            shapes = _v_shapes(letters)
            assert shapes is not None and len(np.unique(shapes)) == len(letters), m


def test_last_levels_keep_only_what_is_read(monkeypatch):
    """A count's last pointer step only tallies; a listing's last step keeps
    rank 1 of its pointers; every earlier step keeps all k-1 ranks."""
    import permscan.avoiders as av
    from permscan.avoiders import avoider_rows

    real_step = av._pointer_step
    steps = []

    def recording_step(psi_b, level, k, ranks):
        psi_b, new = real_step(psi_b, level, k, ranks)
        steps.append(new)
        return psi_b, new

    monkeypatch.setattr(av, "_pointer_step", recording_step)
    pat = PatternSet.parse("1342 2413")
    count_avoiders_fast(pat, 10, vectorized=True)
    assert isinstance(steps[-1], int) and len(steps) > 2
    assert all(len(new[1]) == len(new[2]) == 3 for new in steps[:-1])
    steps.clear()
    list(avoider_rows(pat, 10))
    assert len(steps[-1][1]) == len(steps[-1][2]) == 1
    assert all(len(new[1]) == len(new[2]) == 3 for new in steps[:-1])


# Upfix tables are built on the first ``upfix_table`` call, not by ``build``.

def test_build_and_count_need_no_upfix(monkeypatch):
    import permscan.avoiders as av
    import permscan.permcore as pc

    def refuse(p, i):
        raise AssertionError("upfix called")

    monkeypatch.setattr(pc, "upfix", refuse)
    monkeypatch.setattr(av, "upfix", refuse)
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.build([parse_perm(t, layout) for t in ("1342", "2413", "231")])
        assert count_avoiders_fast(pat, 11) == \
            count_avoiders_fast(pat, 11, vectorized=False)


def _direct_upfix_words(pat, i, layout):
    from permscan.permcore import PackedPerm

    words = set()
    for p in pat:
        letters = p.letters()
        if len(letters) < i:
            continue
        top = [v for v in letters if v > len(letters) - i]
        words.add(PackedPerm.from_letters([v - (len(letters) - i) for v in top],
                                          layout).word)
    return words


@pytest.mark.parametrize("text", ["1", "12", "21", "1 12", "21 123", "12 321 4321",
                                  "132 4321", "2413 3142 21"])
def test_lazy_upfix_tables_match_direct(text):
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        for i in range(0, pat.k + 2):
            want = _direct_upfix_words(pat, i, layout) if 1 <= i <= pat.k else set()
            assert pat.upfix_table(i) == want, (text, layout, i)


def test_equality_and_hash_ignore_built_tables():
    a, b = PatternSet.parse("2413 3142 21"), PatternSet.parse("21 3142 2413")
    before, text = hash(a), repr(a)
    assert a == b and before == hash(b)
    a.upfix_table(2)
    assert a == b and hash(a) == before == hash(b) and repr(a) == text
    assert {a: 1}[b] == 1
    assert a != PatternSet.parse("2413 3142")


# Above the fix-up levels, levels under _VECTOR_MIN_LEVEL avoiders step on
# Python ints (_python_step) and larger ones in numpy (_pointer_step).  The
# default schedule must list and count what numpy from the earliest level
# (vectorized=True) and words all the way (vectorized=False) do.
SCHEDULE_SETS = ("1", "12", "1 12", "21 123", "123 321", "123 132 231",
                 "123 132", "132 4321")


def _schedule(pat, n, vectorized):
    """Every level that ``_levels`` yields while listing: its tally, maps
    and letters, as bytes."""
    import permscan.avoiders as av

    return [(tally, None if maps is None else np.asarray(maps, np.uint32).tobytes(),
             letters.tobytes())
            for tally, maps, letters in av._levels(pat, n, vectorized, rows=True)]


def _steps_taken(monkeypatch, pat, n):
    """How many levels the default count builds with each step."""
    import permscan.avoiders as av

    taken = {"python": 0, "numpy": 0}
    for name, key in (("_python_step", "python"), ("_pointer_step", "numpy")):
        def counted(psi_b, level, k, ranks, _real=getattr(av, name), _key=key):
            taken[_key] += 1
            return _real(psi_b, level, k, ranks)
        monkeypatch.setattr(av, name, counted)
    count_avoiders_fast(pat, n)
    monkeypatch.undo()
    return taken


@pytest.mark.parametrize("text", SCHEDULE_SETS)
def test_default_schedule_matches_numpy_and_words(text):
    from permscan.avoiders import avoider_rows

    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        for n in sorted({pat.k - 1, pat.k, pat.k + 1, 12} - {0}):
            want = count_avoiders_fast(pat, n, vectorized=False)
            assert count_avoiders_fast(pat, n) == want, (layout, n)
            assert count_avoiders_fast(pat, n, vectorized=True) == want, (layout, n)
            words = _schedule(pat, n, False)
            assert _schedule(pat, n, None) == words, (layout, n)
            assert _schedule(pat, n, True) == words, (layout, n)
            rows = list(avoider_rows(pat, n))
            assert [len(letters) for letters, _ in rows] == want, (layout, n)
            for (tally, maps, letters), (got, got_maps) in zip(words[1:], rows):
                assert got.tobytes() == letters and got_maps.tobytes() == maps


def test_schedule_matrix_spans_both_steps(monkeypatch):
    never = _steps_taken(monkeypatch, PatternSet.parse("123 132 231"), 12)
    assert never["python"] > 0 and never["numpy"] == 0
    for text in ("123 132", "132 4321"):
        both = _steps_taken(monkeypatch, PatternSet.parse(text), 12)
        assert both["python"] > 0 and both["numpy"] > 0, text


def test_random_s4_sets_default_matches_numpy():
    """A seeded sample of S_4 sets of 5 patterns or more, as in the S_4
    sweep: WIDE layout, n = 16."""
    rng = random.Random(8)
    s4 = all_perms(4, WIDE)
    for _ in range(200):
        pat = PatternSet.build(rng.sample(s4, rng.randint(5, 24)))
        assert count_avoiders_fast(pat, 16) == \
            count_avoiders_fast(pat, 16, vectorized=True), [str(p) for p in pat]


@pytest.mark.parametrize("text,path,at", [
    # the first Python step builds the 5 length-3 avoiders; claim that every
    # insertion into one of them avoids
    ("231", "count", 0),
    ("231", "list", 0),
    ("132", "list", -1),
    # here a pointer lands one past the end of the level below
    ("123", "count", -1),
])
def test_inconsistent_python_level_fails_loudly(monkeypatch, text, path, at):
    """The Python step checks each deletion pointer before following it."""
    import permscan.avoiders as av

    real_step = av._python_step
    calls = []

    def corrupting_step(psi_b, level, k, ranks):
        psi_b, level = real_step(psi_b, level, k, ranks)
        if not calls:
            level[0][at] = 0b1111
        calls.append(1)
        return psi_b, level

    monkeypatch.setattr(av, "_python_step", corrupting_step)
    pat = PatternSet.parse(text)
    with pytest.raises(RuntimeError, match="deletion pointer"):
        if path == "count":
            count_avoiders_fast(pat, 8)
        else:
            list(av.avoider_rows(pat, 8))
    assert len(calls) == 1


@pytest.mark.parametrize("text,n", [("231", 10), ("1342 2413", 9), ("132 4321", 13)])
def test_listing_last_level_in_blocks(monkeypatch, text, n):
    """avoider_rows grows its last level _BLOCK parents at a time straight
    into the output: blocks of 1, 3 and 1000 parents list the same bytes."""
    import permscan.avoiders as av

    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        assert count_avoiders_fast(pat, n)[-2] > 1000
        monkeypatch.setattr(av, "_BLOCK", 1 << 30)
        whole = [letters.tobytes() for letters, _ in av.avoider_rows(pat, n)]
        for block in (1, 3, 1000):
            monkeypatch.setattr(av, "_BLOCK", block)
            assert [letters.tobytes() for letters, _ in av.avoider_rows(pat, n)] == whole, \
                (layout, block)


# The empty permutation is contained once in every permutation, so a set
# holding it has no avoiders; it is refused as a pattern wherever a pattern
# set is built.

def test_empty_pattern_rejected():
    from permscan.cli import main
    from permscan.counting import count_single_fast
    from permscan.permcore import PackedPerm
    from permscan.sequences import avoidance_record

    for layout in (NIBBLE, WIDE):
        empty = PackedPerm.empty(layout)
        for pats in ([empty], [parse_perm("12", layout), empty]):
            with pytest.raises(ValueError, match="empty permutation"):
                PatternSet.build(pats)
        with pytest.raises(ValueError, match="empty permutation"):
            count_single_fast(empty, 5)
        with pytest.raises(ValueError, match="empty permutation"):
            avoidance_record([empty], 5)
        with pytest.raises(ValueError, match="empty permutation"):
            PatternSet.parse("12 []", layout)
    assert main(["avoid", "--patterns", "[]", "--max-n", "4"]) == 1


# Pointer levels from length 0: the membership fix-up below length k is one
# walk per pattern (_walk).  The default schedule and numpy from the earliest
# level must list and count what the packed-word reference does, for sets
# whose walks meet a bit already cleared by a shorter pattern, sets with
# patterns of length 1 or 2, and sets that die before length k.
WALK_SETS = ("12 123", "132 1432", "21 321 4321", "1", "21", "1 12", "12 231",
             "12 21 1324", "123 321 123456")


def test_insertion_codes():
    from permscan.avoiders import _insertion_code

    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse("1 21 231 1432", layout)
        assert pat._codes == ((1, 1), (1, 1, 2), (1, 2, 2, 2))
    assert _insertion_code(parse_perm("3142").word, 4, 4) == (1, 2, 1, 3)


def _walks_met_clear_bits(monkeypatch, pat, n):
    """How many walks of a count meet a bit already clear: a shorter
    pattern lies among the letters they have walked."""
    import permscan.avoiders as av

    real_walk, met = av._walk, []

    def recording_walk(walks, maps_b, maps, t):
        met.extend(code for code, g in walks if not (maps_b[g] >> (code[t - 1] - 1)) & 1)
        return real_walk(walks, maps_b, maps, t)

    monkeypatch.setattr(av, "_walk", recording_walk)
    count_avoiders_fast(pat, n)
    monkeypatch.undo()
    return len(met)


@pytest.mark.parametrize("text", WALK_SETS)
def test_pointer_schedule_matches_words(text):
    from permscan.avoiders import avoider_rows

    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        for n in sorted({1, pat.k - 1, pat.k, pat.k + 1, 12} - {0}):
            want = count_avoiders_fast(pat, n, vectorized=False)
            assert count_avoiders_fast(pat, n) == want, (layout, n)
            assert count_avoiders_fast(pat, n, vectorized=True) == want, (layout, n)
            words = _schedule(pat, n, False)
            assert _schedule(pat, n, None) == words, (layout, n)
            assert _schedule(pat, n, True) == words, (layout, n)
            rows = list(avoider_rows(pat, n))
            assert [len(letters) for letters, _ in rows] == want, (layout, n)
            for (tally, maps, letters), (got, got_maps) in zip(words[1:], rows):
                assert got.tobytes() == letters and got_maps.tobytes() == maps
            assert rows[-1][0].tobytes() == _reference_last_rows(pat, n), (layout, n)


def _reference_last_rows(pat, n):
    """The length-n rows of the word reference, in the engine's order: per
    avoider of length n-1, the new maximum at each allowed position."""
    import permscan.avoiders as av

    *_, (_, maps, letters) = av._levels(pat, n, False, rows=True)
    grown = [row[:i] + [n] + row[i:] for row, psi in zip(letters.tolist(), maps)
             for i in range(n) if psi >> i & 1]
    return np.array(grown, np.uint8).reshape(len(grown), n).tobytes()


def test_walks_meet_cleared_bits(monkeypatch):
    """The redundant sets above end walks on a bit a shorter pattern
    cleared; sets without a pattern inside another end none."""
    for text, met in (("12 123", 1), ("132 1432", 1), ("21 321 4321", 2),
                      ("12 231", 0), ("132 4321", 0)):
        assert _walks_met_clear_bits(monkeypatch, PatternSet.parse(text), 8) == met, text


# count_avoiders_lowmem steps each group of a batch alone over pointer
# levels.  Random S_3 and S_4 sets, some holding a pattern inside another,
# on both layouts; n runs to 12 where the class stays small enough for
# Python steps.

def _lowmem_cases():
    rng = random.Random(12)
    pool = all_perms(3) + all_perms(4)
    cases = []
    for _ in range(24):
        pats = rng.sample(pool, rng.randint(1, 6))
        if rng.random() < 0.3:
            # a pattern and one of its one-letter extensions
            p = rng.choice(all_perms(3))
            pats += [p, insert_up(p, rng.randint(1, 4))]
        cases.append(" ".join(str(p) for p in pats))
    return cases


@pytest.mark.parametrize("text", _lowmem_cases())
def test_lowmem_matches_fast_random_sets(text):
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        counts = count_avoiders_fast(pat, 12)
        top = max(n for n in range(1, 13) if sum(counts[:n - 1]) <= 30000)
        for n in sorted({1, pat.k - 1, pat.k, pat.k + 1, top} - {0}):
            stats = {}
            assert count_avoiders_lowmem(pat, n, stats) == counts[:n], (layout, n)
            assert stats["max_live_extension_maps"] >= 1


def test_lowmem_random_sets_reach_deep_levels():
    deep = [text for text in _lowmem_cases()
            if sum(count_avoiders_fast(PatternSet.parse(text), 12)[:11]) <= 30000]
    assert len(deep) >= 8


def _corrupt_group_step(monkeypatch, corrupt):
    """Run ``corrupt`` on the first new level that a group step of more
    than one batch group builds with pointers kept."""
    import permscan.avoiders as av

    real_step, done = av._python_step, []

    def corrupting_step(psi_b, level, k, ranks, parents=None):
        psi_b, new = real_step(psi_b, level, k, ranks, parents)
        if (not done and ranks and parents is not None
                and len(parents) < len(level[0]) and any(new[0])):
            corrupt(new, set(parents), len(level[0]))
            done.append(1)
        return psi_b, new

    monkeypatch.setattr(av, "_python_step", corrupting_step)
    return done


@pytest.mark.parametrize("text", ["231", "1234", "132 4321"])
def test_lowmem_corrupt_group_map_fails_loudly(monkeypatch, text):
    def claim_all(new, group, batch):
        c = next(c for c, psi in enumerate(new[0]) if psi)
        new[0][c] = (1 << 20) - 1

    done = _corrupt_group_step(monkeypatch, claim_all)
    with pytest.raises(RuntimeError, match="deletion pointer"):
        count_avoiders_lowmem(PatternSet.parse(text), 10)
    assert done


@pytest.mark.parametrize("text", ["231", "1234", "132 4321"])
def test_lowmem_pointer_outside_group_fails_loudly(monkeypatch, text):
    """A pointer into the batch, but outside the group it was built from,
    meets a zeroed map."""
    def leave_group(new, group, batch):
        c = next(c for c, psi in enumerate(new[0]) if psi)
        q, _ = new[1][c][1]
        new[1][c][1] = (q, next(p for p in range(batch) if p not in group))

    done = _corrupt_group_step(monkeypatch, leave_group)
    with pytest.raises(RuntimeError, match="deletion pointer"):
        count_avoiders_lowmem(PatternSet.parse(text), 10)
    assert done


# Map width: up to n = 16 the numpy step stores extension maps as uint16 (the
# maps of level n-1 have n bits), from n = 17 on as uint32.  A map that lost
# its top bit at the switch would change the counts of the longest levels.

@pytest.mark.parametrize("text", ["132 231", "132 4321"])
def test_map_width_boundary(text):
    import permscan.avoiders as av

    pat = PatternSet.parse(text, WIDE)
    counts = {}
    for n in (15, 16, 17):
        counts[n] = count_avoiders_fast(pat, n)
        assert counts[n] == count_avoiders_fast(pat, n, vectorized=False), n
        held = [maps.dtype for _, maps, _ in av._levels(pat, n, rows=True)
                if isinstance(maps, np.ndarray)]
        assert held and set(held) == {np.dtype(np.uint16 if n <= 16 else np.uint32)}, n
    assert counts[16] == counts[17][:16] and counts[15] == counts[16][:15]
    rows = {n: list(av.avoider_rows(pat, n))[:15] for n in (16, 17)}
    for m, ((l16, m16), (l17, m17)) in enumerate(zip(rows[16], rows[17]), start=1):
        assert m16.dtype == m17.dtype == np.uint32, m
        assert m16.tobytes() == m17.tobytes() and l16.tobytes() == l17.tobytes(), m
