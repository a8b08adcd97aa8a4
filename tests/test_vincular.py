import random
from itertools import combinations

import pytest

from permscan.avoiders import PatternSet, enumerate_avoiders_fast
from permscan.counting import ClosureViolationError, count_all, count_downset
from permscan.oracle import oracle_count_covincular
from permscan.permcore import (
    NIBBLE,
    WIDE,
    PackedPerm,
    PartialInverse,
    inverse_perm,
    parse_perm,
    standardize,
)
from permscan.vincular import (
    CovincularPattern,
    UnsupportedConstructionError,
    VincularPattern,
    build_covincular_avoiders,
    covincular_count_all,
    covincular_count_downset,
    covincular_count_set,
    covincular_profile,
    parse_vincular,
)
from conftest import all_perms, max_insertion_stream, perms_upto

# 20 pairs spanning pattern lengths 2..4 and the main constraint shapes:
# none, bottom anchor, top anchor, consecutive, everything
BATTERY = [
    ("12", set()), ("12", {0}), ("12", {2}), ("21", {1}), ("21", {0, 1, 2}),
    ("123", set()), ("123", {0}), ("123", {3}), ("123", {1, 2}), ("123", {0, 2}),
    ("132", {1}), ("231", {0, 1, 2, 3}), ("321", {2}),
    ("2413", set()), ("2413", {0}), ("2413", {4}), ("2413", {1, 2, 3}),
    ("1342", {2}), ("3142", {0, 1, 2, 3, 4}), ("2143", {1, 3}),
]


def oracle_histogram(cov, n):
    out = {}
    for m in range(1, n + 1):
        lvl = {}
        for p in all_perms(m):
            h = oracle_count_covincular(p, cov.pattern, cov.adjacencies)
            lvl[h] = lvl.get(h, 0) + 1
        out[m] = lvl
    return out


def test_pattern_validation():
    with pytest.raises(ValueError):
        CovincularPattern(parse_perm("123"), frozenset({4}))
    cov = CovincularPattern(parse_perm("123"), frozenset({1, 2}))
    assert cov.is_consecutive()
    assert not CovincularPattern(parse_perm("123"), frozenset({1})).is_consecutive()
    assert str(cov) == "(123,{1,2})"


def test_pattern_validation_messages():
    with pytest.raises(ValueError, match="^covincular pattern needs a nonempty pattern$"):
        CovincularPattern(PackedPerm.empty(), frozenset())
    with pytest.raises(ValueError, match=r"^dash positions \[5\] out of 0\.\.4$"):
        VincularPattern(parse_perm("1324"), frozenset({5}))


def test_identity_example():
    cov = CovincularPattern(parse_perm("123"), frozenset({0, 2}))
    for n in range(3, 11):
        assert oracle_count_covincular(
            PackedPerm.identity(n), parse_perm("123"), {0, 2}) == n - 2
    tally = covincular_count_all(cov, 7)
    assert tally.by_length == oracle_histogram(cov, 7)


def test_battery_against_oracle():
    for text, adj in BATTERY:
        cov = CovincularPattern(parse_perm(text), frozenset(adj))
        tally = covincular_count_all(cov, 7)
        assert tally.by_length == oracle_histogram(cov, 7), (text, adj)


def test_no_constraints_reduces_to_classical():
    for text in ("12", "231", "2413"):
        cov = CovincularPattern(parse_perm(text), frozenset())
        assert covincular_count_all(cov, 7).by_length == \
            count_all(PatternSet.parse(text), 7).by_length


def test_profile_recurrence_direct():
    # profiles via explicit lookup tables match the oracle on each host
    cov = CovincularPattern(parse_perm("123"), frozenset({1}))
    table = {PackedPerm.empty().word: [0] * (cov.k + 2)}
    for m in range(1, 7):
        nxt = {}
        for p in all_perms(m):
            prof = covincular_profile(p, cov, lambda q, i: table[q.word][i],
                                      inv=PartialInverse.from_perm(p))
            assert prof.p0 == oracle_count_covincular(p, cov.pattern,
                                                      cov.adjacencies), str(p)
            nxt[p.word] = list(prof.values)
        table.update(nxt)


def test_removing_letter_can_create_hit():
    # 1342 has no (123,{1}) hit but dropping its 2 leaves one
    cov = CovincularPattern(parse_perm("123"), frozenset({1}))
    assert oracle_count_covincular(parse_perm("1342"), cov.pattern,
                                   cov.adjacencies) == 0
    assert oracle_count_covincular(parse_perm("123"), cov.pattern,
                                   cov.adjacencies) >= 1


def test_consecutive_pair_closed_form():
    cov = CovincularPattern(parse_perm("12"), frozenset({1}))
    for p in perms_upto(6):
        letters = p.letters()
        pos = {v: i for i, v in enumerate(letters)}
        want = sum(1 for v in range(1, p.length)
                   if pos[v] < pos[v + 1])
        assert oracle_count_covincular(p, cov.pattern, cov.adjacencies) == want
    tally = covincular_count_all(cov, 6)
    assert tally.by_length == oracle_histogram(cov, 6)


def test_downset_counting():
    cov = CovincularPattern(parse_perm("12"), frozenset({1}))
    records = []
    enumerate_avoiders_fast(PatternSet.parse("231"), 6, records.append)
    per_member = {}
    for r in records:
        per_member.setdefault(r.perm.length, {})
        h = oracle_count_covincular(r.perm, cov.pattern, cov.adjacencies)
        per_member[r.perm.length][h] = per_member[r.perm.length].get(h, 0) + 1
    tally = covincular_count_downset(((r.perm, r.inverse) for r in records), cov)
    assert tally.by_length == per_member

    # the full S_<=5 downset reproduces covincular_count_all
    cov2 = CovincularPattern(parse_perm("123"), frozenset({0, 2}))
    stream = [(p, None) for m in range(1, 6) for p in all_perms(m)]
    assert covincular_count_downset(stream, cov2).by_length == \
        covincular_count_all(cov2, 5).by_length

    one = parse_perm("1")
    t = covincular_count_downset([(one, None)],
                                 CovincularPattern(parse_perm("12"), frozenset()))
    assert t.by_length == {1: {0: 1}}


def test_downset_closure_violation():
    cov = CovincularPattern(parse_perm("12"), frozenset({1}))
    with pytest.raises(ClosureViolationError):
        covincular_count_downset(
            [(parse_perm("1"), None), (parse_perm("123"), None)], cov)


def test_count_set_matches_per_pattern_sum():
    covs = [CovincularPattern(parse_perm("12"), frozenset({1})),
            CovincularPattern(parse_perm("321"), frozenset({0}))]
    tally = covincular_count_set(covs, 6)
    truth = {}
    for m in range(1, 7):
        lvl = {}
        for p in all_perms(m):
            h = sum(oracle_count_covincular(p, c.pattern, c.adjacencies)
                    for c in covs)
            lvl[h] = lvl.get(h, 0) + 1
        truth[m] = lvl
    assert tally.by_length == truth
    with pytest.raises(ValueError):
        covincular_count_set([], 4)


def test_vincular_parse_and_convert():
    v = parse_vincular("-12-3")
    assert str(v.pattern) == "123" and v.dashes == frozenset({0, 2})
    cov = v.to_covincular()
    assert str(cov.pattern) == "123" and cov.adjacencies == frozenset({0, 2})
    v2 = parse_vincular("2-1")
    assert v2.dashes == frozenset({1})
    assert str(v2.to_covincular().pattern) == "21"
    v3 = parse_vincular("312-")
    assert v3.dashes == frozenset({3})
    for bad in ("", "1x2", "1-02"):
        with pytest.raises(ValueError):
            parse_vincular(bad)


def test_vincular_parse_rejects_repeated_dashes():
    for bad in ("1--2", "--12", "12--", "-1--2-"):
        with pytest.raises(ValueError, match="repeated dash"):
            parse_vincular(bad)
    assert parse_vincular("-1-2-").dashes == frozenset({0, 1, 2})


def oracle_vincular(tau, v):
    k = v.pattern.length
    n = tau.length
    if k > n:
        return 0
    letters = tau.letters()
    cnt = 0
    for combo in combinations(range(n), k):
        if standardize([letters[c] for c in combo]).word != v.pattern.word:
            continue
        ok = True
        for x in v.dashes:
            if x == 0:
                ok = combo[0] == 0
            elif x == k:
                ok = combo[-1] == n - 1
            else:
                ok = combo[x] == combo[x - 1] + 1
            if not ok:
                break
        if ok:
            cnt += 1
    return cnt


def test_vincular_hits_are_covincular_hits_of_inverse():
    rng = random.Random(17)
    texts = ["-12-3", "1-2", "21-", "-321", "2-1-3", "3-12", "231"]
    for _ in range(150):
        m = rng.randint(1, 6)
        letters = list(range(1, m + 1))
        rng.shuffle(letters)
        tau = PackedPerm.from_letters(letters)
        for text in texts:
            v = parse_vincular(text)
            cov = v.to_covincular()
            assert oracle_vincular(tau, v) == oracle_count_covincular(
                inverse_perm(tau), cov.pattern, cov.adjacencies), (str(tau), text)


def test_vincular_tally_via_inversion():
    # summing over all hosts, inversion is a bijection, so the tallies agree
    v = parse_vincular("-12-3")
    cov = v.to_covincular()
    tally = covincular_count_all(cov, 6)
    truth = {}
    for m in range(1, 7):
        lvl = {}
        for p in all_perms(m):
            h = oracle_vincular(p, v)
            lvl[h] = lvl.get(h, 0) + 1
        truth[m] = lvl
    assert tally.by_length == truth


def test_avoider_construction_rejected():
    with pytest.raises(UnsupportedConstructionError):
        build_covincular_avoiders(
            CovincularPattern(parse_perm("123"), frozenset({1})), 5)


def test_covincular_count_all_matches_downset_stream():
    """The dense step with pass-through agrees with the hash-table reference
    over the full max-insertion stream for every pattern of length <= 4,
    with seeded adjacency sets that include the anchors 0 and k; the
    low-memory path, which the public function takes only from n = 12 on,
    is called directly."""
    from itertools import permutations

    from permscan.counting import _lowmem_tally

    rng = random.Random(0xC0)
    streams = {n: [(p, None) for p in max_insertion_stream(n)] for n in (7, 8)}
    for k in range(1, 5):
        for letters in permutations(range(1, k + 1)):
            pattern = PackedPerm.from_letters(letters)
            inner = [x for x in range(1, k) if rng.random() < 0.5]
            for adj in (inner, [0, k] + inner):
                cov = CovincularPattern(pattern, frozenset(adj))
                n = 8 if letters == tuple(range(1, k + 1)) and 0 in adj else 7
                want = covincular_count_downset(streams[n], cov).by_length
                assert covincular_count_all(cov, n).by_length == want, cov
                through = frozenset(i for i in range(k + 1) if cov.passes_through(i))
                for m in sorted({max(k - 1, 1), k, k + 1, n}):
                    got = _lowmem_tally(PatternSet.build([pattern]), m, through, None)
                    assert got.by_length == {j: want[j] for j in range(1, m + 1)}, (cov, m)


def test_covincular_count_all_profile_entries():
    from math import factorial

    cov = CovincularPattern(parse_perm("132"), frozenset({0, 2}))
    stats = {}
    covincular_count_all(cov, 6, stats)
    assert stats["profile_entries"] == sum(factorial(m) * (min(3, m) + 1)
                                           for m in range(1, 7))


@pytest.mark.parametrize("layout", [NIBBLE, WIDE], ids=["nibble", "wide"])
def test_covincular_count_all_lowmem_route(monkeypatch, layout):
    """With the dense cut-off at 0, ``covincular_count_all`` takes its
    low-memory route at every n; its tally equals the dense one and its
    ``profile_entries`` the dense route's, at n = k, k+1 and 8."""
    import permscan.vincular as vincular
    from permscan.counting import _dense_tally

    cases = []
    for text in ("231", "1324"):
        pattern = parse_perm(text, layout)
        k = pattern.length
        for adj in ({0}, {k}, {0, k}, set(range(1, k))):
            cov = CovincularPattern(pattern, frozenset(adj))
            through = frozenset(i for i in range(k + 1) if cov.passes_through(i))
            for n in (k, k + 1, 8):
                dense_stats = {}
                covincular_count_all(cov, n, dense_stats)
                cases.append((cov, through, n, dense_stats))
    monkeypatch.setattr(vincular, "_DENSE_MAX_N", 0)
    for cov, through, n, dense_stats in cases:
        stats = {}
        got = covincular_count_all(cov, n, stats)
        want = _dense_tally(PatternSet.build([cov.pattern]), n, through)
        assert got.by_length == want.by_length, (str(cov), n)
        assert stats == dense_stats, (str(cov), n)


def test_count_set_needs_dense_levels():
    covs = [CovincularPattern(parse_perm("12"), frozenset({1}))]
    with pytest.raises(ValueError, match="whole m! levels"):
        covincular_count_set(covs, 12)


def test_downset_rejects_duplicate_host():
    one, twelve = parse_perm("1"), parse_perm("12")
    cov = CovincularPattern(twelve, frozenset())
    with pytest.raises(ValueError, match="twice"):
        covincular_count_downset([(one, None), (one, None), (twelve, None)], cov)


@pytest.mark.parametrize("hosts, patterns", [(NIBBLE, WIDE), (WIDE, NIBBLE)])
def test_downset_rejects_other_layout(hosts, patterns):
    stream = [(p, None) for p in max_insertion_stream(3, hosts)]
    cov = CovincularPattern(parse_perm("12", patterns), frozenset({1}))
    with pytest.raises(ValueError) as err:
        covincular_count_downset(stream, cov)
    assert str(hosts) in str(err.value) and str(patterns) in str(err.value)


def test_downset_without_adjacencies_is_count_downset():
    for layout in (NIBBLE, WIDE):
        stream = [(p, None) for p in max_insertion_stream(7, layout)]
        for text in ("1", "12", "132", "2413"):
            pi = parse_perm(text, layout)
            got = covincular_count_downset(stream, CovincularPattern(pi, frozenset()))
            assert got.by_length == count_downset(stream, PatternSet.build([pi])).by_length


def test_downset_profile_entries_pinned():
    # the P values computed, pinned to the value before the streamed
    # engines shared one step
    stats = {}
    cov = CovincularPattern(parse_perm("132"), frozenset({1}))
    covincular_count_downset([(p, None) for p in max_insertion_stream(7)], cov, stats)
    assert stats["profile_entries"] == 15767
