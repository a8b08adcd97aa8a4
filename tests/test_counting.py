import random
from collections import deque
from math import comb, factorial

import pytest

from permscan.avoiders import PatternSet, build_avoiders_basic, enumerate_avoiders_fast
from permscan.counting import (
    ClosureViolationError,
    CountTally,
    _max_insertion_hosts,
    build_bounded_hits,
    count_all,
    count_all_lowmem,
    count_downset,
    count_profile,
    count_single_fast,
)
from permscan.cli import main
from permscan.oracle import hit_census, oracle_count_hits, oracle_hit_histogram
from permscan.permcore import NIBBLE, WIDE, PackedPerm, PartialInverse, get_letter, parse_perm
from conftest import all_perms, max_insertion_stream, random_pattern_sets


def census_histogram(pat, n):
    k_values = sorted({p.length for p in pat})
    words = {p.word for p in pat}
    out = {}
    for m in range(1, n + 1):
        lvl = {}
        for p in all_perms(m, pat.layout):
            total = 0
            for k in k_values:
                census = hit_census(p, k)
                total += sum(census.get(w, 0) for w in words)
            lvl[total] = lvl.get(total, 0) + 1
        out[m] = lvl
    return out


def profile_lookup_through(pat, n):
    """Exact P_i tables for all hosts up to length n, built by the dense
    engine's own definition applied via the oracle (independent path)."""
    table = {}
    for m in range(0, n + 1):
        for p in ([PackedPerm.empty()] if m == 0 else all_perms(m)):
            letters = p.letters()
            vals = [0] * (pat.k + 2)
            for pi in pat:
                k = pi.length
                if k > m:
                    continue
                from itertools import combinations
                from permscan.permcore import standardize
                for combo in combinations(range(m), k):
                    sub = [letters[c] for c in combo]
                    if standardize(sub).word != pi.word:
                        continue
                    got = set(sub)
                    for i in range(pat.k + 2):
                        if all((m - t) in got for t in range(i)):
                            vals[i] += 1
            table[p.word] = vals
    return table


def test_profile_golden():
    pat = PatternSet.parse("123")
    table = profile_lookup_through(pat, 3)
    prof = count_profile(parse_perm("1234"), pat, lambda q, i: table[q.word][i])
    assert prof.values == (4, 3, 2, 1, 0)
    assert prof.p0 == 4 and prof[1] == 3 and len(prof) == 5


def test_profile_membership_base():
    for pi in (parse_perm("21"), parse_perm("312"), parse_perm("2413")):
        pat = PatternSet.build([pi])
        table = profile_lookup_through(pat, pi.length - 1)
        prof = count_profile(pi, pat, lambda q, i: table[q.word][i])
        assert prof[pi.length] == 1


def test_profile_against_oracle_random():
    rng = random.Random(42)
    pat = PatternSet.parse("312")
    table = profile_lookup_through(pat, 7)
    for _ in range(60):
        m = rng.randint(1, 8)
        letters = list(range(1, m + 1))
        rng.shuffle(letters)
        p = PackedPerm.from_letters(letters)
        prof = count_profile(p, pat, lambda q, i: table[q.word][i],
                             inv=PartialInverse.from_perm(p))
        assert prof.p0 == oracle_count_hits(p, pat)
        assert all(a >= b for a, b in zip(prof.values, prof.values[1:]))
        assert prof.values[-1] == 0


def test_profile_closure_violation():
    pat = PatternSet.parse("123")

    def missing(q, i):
        raise KeyError(q)

    with pytest.raises(ClosureViolationError):
        count_profile(parse_perm("1234"), pat, missing)


def test_count_all_matches_oracle_s3():
    s3 = all_perms(3)
    for mask in range(1, 64):
        pat = PatternSet.build([s3[t] for t in range(6) if (mask >> t) & 1])
        assert count_all(pat, 6).by_length == census_histogram(pat, 6), mask


def test_count_all_matches_oracle_s4_samples(s4_patterns):
    for pats in random_pattern_sets(s4_patterns, 10, seed=0xBEE):
        pat = PatternSet.build(pats)
        assert count_all(pat, 6).by_length == census_histogram(pat, 6)


def test_count_all_single_letter_pattern():
    tally = count_all(PatternSet.parse("1"), 4)
    for m in range(1, 5):
        assert tally.level(m) == {m: factorial(m)}


def test_mass_identity_levels():
    for pi in (parse_perm("12"), parse_perm("132"), parse_perm("3142")):
        k = pi.length
        tally = count_all(PatternSet.build([pi]), 9)
        for m in range(1, 10):
            assert tally.hits_sum(m) == factorial(m) * comb(m, k) // factorial(k)


def test_engine_agreement():
    cases = ["123", "321 231", "2413 3142", "12 4321", "2143"]
    for text in cases:
        pat = PatternSet.parse(text)
        t1 = count_all(pat, 8)
        t2 = count_all_lowmem(pat, 8)
        assert t1.by_length == t2.by_length, text
        if len(pat) == 1:
            t3 = count_single_fast(pat.patterns[0], 8)
            assert t1.by_length == t3.by_length, text


def test_zero_bucket_equals_avoider_counts():
    from permscan.avoiders import count_avoiders_fast

    for text in ("123", "321", "2413 3142", "123 321"):
        pat = PatternSet.parse(text)
        tally = count_all(pat, 8)
        zero = tally.zero_counts()
        counts = count_avoiders_fast(pat, 8)
        assert [zero.get(m, 0) for m in range(1, 9)] == counts, text


def test_catalan_zero_bucket():
    tally = count_all(PatternSet.parse("321"), 7)
    assert tally.level(7).get(0) == 429


def test_count_downset_streamed_avoiders():
    host_pat = PatternSet.parse("231")
    count_pat = PatternSet.parse("123")
    records = []
    enumerate_avoiders_fast(host_pat, 8, records.append)
    checked = []

    def check(perm, prof):
        checked.append(1)
        assert prof.p0 == oracle_count_hits(perm, count_pat), str(perm)
        assert all(a >= b for a, b in zip(prof.values, prof.values[1:]))

    tally = count_downset(((r.perm, r.inverse) for r in records), count_pat,
                          emit=check)
    assert sum(len(v) for v in [checked]) and len(checked) == len(records)
    assert sum(tally.total(m) for m in range(1, 9)) == len(records)


def test_count_downset_trivial_cases():
    one = parse_perm("1")
    t = count_downset([(one, None)], PatternSet.parse("12"))
    assert t.by_length == {1: {0: 1}}
    t = count_downset([(one, None)], PatternSet.parse("1"))
    assert t.by_length == {1: {1: 1}}
    # separable hosts never contain 2413
    sep = PatternSet.parse("2413 3142")
    records = []
    enumerate_avoiders_fast(sep, 6, records.append)
    t = count_downset(((r.perm, r.inverse) for r in records),
                      PatternSet.parse("2413"))
    for m in range(1, 7):
        assert set(t.level(m)) <= {0}


def test_count_downset_closure_violation():
    # skipping the length-2 members breaks the chain
    stream = [(parse_perm("1"), None), (parse_perm("123"), None)]
    with pytest.raises(ClosureViolationError):
        count_downset(stream, PatternSet.parse("12"))
    with pytest.raises(ValueError):
        count_downset([(parse_perm("1"), None), (parse_perm("12"), None),
                       (parse_perm("1"), None)], PatternSet.parse("12"))


def test_count_downset_rejects_duplicate_host():
    one = parse_perm("1")
    with pytest.raises(ValueError, match="twice"):
        count_downset([(one, None), (one, None)], PatternSet.parse("12"))
    twelve = parse_perm("12")
    with pytest.raises(ValueError, match="twice"):
        count_downset([(one, None), (twelve, None), (parse_perm("21"), None),
                       (twelve, None)], PatternSet.parse("12"))


def test_count_downset_full_sn_matches_count_all():
    pat = PatternSet.parse("132 321")
    stream = [(p, None) for m in range(1, 7) for p in all_perms(m)]
    assert count_downset(stream, pat).by_length == count_all(pat, 6).by_length


def test_bounded_hits_golden():
    bh = build_bounded_hits(PatternSet.parse("21"), 3, 1)
    got = {m: {str(p) for p in bh.levels[m]} for m in range(1, 4)}
    assert got == {1: {"1"}, 2: {"12", "21"}, 3: {"123", "132", "213"}}
    for perm, prof in bh.profiles.items():
        assert prof.p0 <= 1
        assert prof.p0 == oracle_count_hits(perm, PatternSet.parse("21"))


def test_bounded_hits_zero_budget_is_avoiders():
    for text in ("231", "123 321", "2413"):
        pat = PatternSet.parse(text)
        bh = build_bounded_hits(pat, 6, 0)
        basic = build_avoiders_basic(pat, 6)
        assert {m: bh.levels[m] for m in basic} == basic, text


def test_bounded_hits_huge_budget_is_everything():
    pat = PatternSet.parse("123")
    budget = factorial(5) * comb(5, 3)
    bh = build_bounded_hits(pat, 5, budget)
    for m in range(1, 6):
        assert len(bh.levels[m]) == factorial(m)


def test_bounded_hits_profiles_match_oracle():
    pat = PatternSet.parse("312")
    bh = build_bounded_hits(pat, 6, 3)
    for m in range(1, 7):
        want = {p for p in all_perms(m) if oracle_count_hits(p, pat) <= 3}
        assert bh.levels[m] == want
    for perm, prof in bh.profiles.items():
        assert prof.p0 == oracle_count_hits(perm, pat)


def test_single_fast_matches_and_counts_work():
    stats = {}
    tally = count_single_fast(parse_perm("123"), 7, stats)
    assert tally.by_length == count_all(PatternSet.parse("123"), 7).by_length
    assert stats["profile_entries"] <= 3 * sum(factorial(j) for j in range(1, 8))
    # a pattern longer than every host yields all-zero hit counts
    zero = count_single_fast(PackedPerm.identity(9), 8)
    for m in range(1, 9):
        assert zero.level(m) == {0: factorial(m)}


def test_count_all_guard():
    with pytest.raises(ValueError):
        count_all(PatternSet.parse("123"), 12)
    with pytest.raises(ValueError):
        count_all(PatternSet.parse("123"), 0)


def test_lowmem_counting_stats():
    pat = PatternSet.parse("2413 3142")
    stats = {}
    t = count_all_lowmem(pat, 8, stats)
    assert t.by_length == count_all(pat, 8).by_length
    k = pat.k
    assert stats["max_live_profile_rows"] <= 8 ** (k + 1)
    # n below k delegates
    stats = {}
    t = count_all_lowmem(PatternSet.parse("12345"), 4, stats)
    assert t.by_length == count_all(PatternSet.parse("12345"), 4).by_length


def test_tally_helpers():
    t = CountTally({})
    t.add(2, 0)
    t.add(2, 1)
    t.add(2, 1)
    assert t.rows() == [(2, 0, 1), (2, 1, 2)]
    assert t.total(2) == 3 and t.total(5) == 0
    assert t.hits_sum(2) == 2
    assert t.zero_counts() == {2: 1}


def test_count_all_mixed_length_sets():
    for text in ("21 123", "12 4321", "1 21", "132 21 4321"):
        pat = PatternSet.parse(text)
        want = census_histogram(pat, 6)
        assert count_all(pat, 6).by_length == want, text
        assert count_all_lowmem(pat, 6).by_length == want, text
        stream = [(p, None) for m in range(1, 7) for p in all_perms(m)]
        assert count_downset(stream, pat).by_length == want, text


# Differential matrix for the counting engines against count_downset over
# the full max-insertion stream (itself checked against the oracle at n = 6).
# Sets: mixed lengths, length-1 and length-2 patterns, and 123 321.
COUNT_MATRIX_SETS = ("132 4321", "12 321 4321", "21 123", "1 12", "1", "21", "123 321")


def cli_count_tally(argv, capsys):
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "length,hits,multiplicity"
    tally = CountTally({})
    for row in rows[1:]:
        m, hits, mult = map(int, row.split(","))
        tally.add(m, hits, mult)
    return tally.by_length


@pytest.mark.parametrize("text", COUNT_MATRIX_SETS)
def test_counting_engines_matrix(text, capsys):
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        stream = [(p, None) for p in max_insertion_stream(8, layout)]
        full = count_downset(stream, pat).by_length
        assert {m: full[m] for m in range(1, 7)} == oracle_hit_histogram(pat, 6)
        for n in sorted({pat.k - 1, pat.k, pat.k + 1, 8}):
            if n < 1:
                continue
            want = {m: full[m] for m in range(1, n + 1)}
            assert count_all(pat, n).by_length == want, (layout, n)
            assert count_all_lowmem(pat, n).by_length == want, (layout, n)
            if len(pat) == 1:
                assert count_single_fast(pat.patterns[0], n).by_length == want
            argv = ["count", "--patterns", text, "--max-n", str(n), "--engine", "auto"]
            if layout is WIDE:
                argv.append("--wide")
            assert cli_count_tally(argv, capsys) == want, (layout, n)


def test_auto_engine_routes_by_n(monkeypatch, capsys):
    import permscan.counting as ct

    calls = []
    for name in ("count_all", "count_all_lowmem", "count_single_fast"):
        real = getattr(ct, name)
        monkeypatch.setattr(ct, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    for text in ("123", "123 321"):
        cli_count_tally(["count", "--patterns", text, "--max-n", "5"], capsys)
    monkeypatch.setattr(ct, "_DENSE_MAX_N", 4)
    cli_count_tally(["count", "--patterns", "123", "--max-n", "5"], capsys)
    assert calls == ["count_all", "count_all", "count_all_lowmem"]



# ---------------------------------------------------------------------------
# the hash-table step shared by count_downset, count_single_fast and
# build_bounded_hits

# stats['profile_entries'] (the P values computed) pinned to the values of
# the engines as they stood before they shared one step
SINGLE_FAST_ENTRIES_N7 = {"123": 15767, "2413": 16013, "1": 11826, "12": 14782, "21": 14782}
IDENTITY_ENTRIES_N9 = {3: 1090967, 4: 1108013, 5: 1111422, 6: 1111990}


@pytest.mark.parametrize("text", sorted(SINGLE_FAST_ENTRIES_N7))
def test_single_fast_profile_entries_pinned(text):
    stats = {}
    count_single_fast(parse_perm(text), 7, stats)
    assert stats["profile_entries"] == SINGLE_FAST_ENTRIES_N7[text]


def test_single_fast_identity_profile_entries_pinned():
    for m, want in IDENTITY_ENTRIES_N9.items():
        stats = {}
        count_single_fast(PackedPerm.identity(m), 9, stats)
        assert stats["profile_entries"] == want, m


@pytest.mark.parametrize("text", ("1", "12", "1 12", "21 123", "2413 1", "231 4321"))
def test_bounded_hits_matches_oracle_filter(text):
    # hits never grow under deletion, so {p : hits(p) <= j} is a downset and
    # the construction must return exactly it
    for layout in (NIBBLE, WIDE):
        pat = PatternSet.parse(text, layout)
        hits = {p: oracle_count_hits(p, pat) for m in range(1, 7) for p in all_perms(m, layout)}
        for budget in (0, 1, 2, 5):
            bh = build_bounded_hits(pat, 6, budget)
            for m in range(1, 7):
                want = {p for p in all_perms(m, layout) if hits[p] <= budget}
                assert bh.levels[m] == want, (layout, budget, m)
            for perm, prof in bh.profiles.items():
                assert prof.p0 == hits[perm] and len(prof) == pat.k + 2


@pytest.mark.parametrize("hosts, patterns", [(NIBBLE, WIDE), (WIDE, NIBBLE)])
def test_count_downset_rejects_other_layout(hosts, patterns):
    stream = [(p, None) for p in max_insertion_stream(3, hosts)]
    with pytest.raises(ValueError) as err:
        count_downset(stream, PatternSet.parse("12", patterns))
    assert str(hosts) in str(err.value) and str(patterns) in str(err.value)


def test_count_downset_emits_count_profile():
    # emitted profiles stop at the host's last pattern upfix and are padded
    # with zeros; the single-host recurrence computes every entry
    for text in ("231", "12 321", "1 2413"):
        pat = PatternSet.parse(text)
        emitted = {}
        count_downset([(p, None) for p in max_insertion_stream(6)], pat,
                      emit=emitted.__setitem__)

        def lookup(q, i):
            return emitted[q][i] if q.length else 0

        for p, prof in emitted.items():
            assert count_profile(p, pat, lookup) == prof, (text, str(p))
            assert count_profile(p, pat, lookup, PartialInverse.from_perm(p)) == prof


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_max_insertion_hosts_inverses(layout, k):
    """Every host the max-insertion stream yields up to n = 7 carries an
    inverse that agrees with PartialInverse.from_perm in its top k+1
    values, and the stream covers S_<=7 once each."""
    from collections import deque

    from permscan.counting import _max_insertion_hosts
    from permscan.permcore import get_letter

    parents = deque()
    seen = []
    for host in _max_insertion_hosts(layout, k, parents):
        word, m, inv_word = host
        q = PackedPerm(word, m, layout)
        want = PartialInverse.from_perm(q, k + 1)
        for v in range(m - want.valid_count + 1, m + 1):
            assert get_letter(inv_word, v, layout) == want.position_of(v, layout), \
                (str(q), k, v)
        assert inv_word >> (layout.bits * m) == 0, (str(q), k)
        seen.append(q)
        if m < 7:
            parents.append(host)
    assert sorted(seen, key=lambda p: (p.length, p.letters())) == \
        [p for m in range(1, 8) for p in all_perms(m, layout)]
