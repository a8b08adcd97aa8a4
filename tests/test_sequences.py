import gzip
import io
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permscan.avoiders import PatternSet, count_avoiders_fast
from permscan.permcore import PackedPerm, layout_for, parse_perm
from permscan.sequences import (
    _HASH_BITS,
    OeisDb,
    OeisEntry,
    OeisFormatError,
    SequenceRecord,
    avoidance_record,
    canonicalize,
    count_symmetry_classes,
    enumerate_symmetry_classes,
    growth_degree,
    mine,
    mine_row,
    oeis_match,
    symmetry_group,
    write_report,
)
from conftest import perms_upto


def test_group_structure():
    group = symmetry_group()
    assert len(group) == 8
    from permscan.permcore import complement_perm, inverse_perm, reverse_perm

    for p in perms_upto(5):
        assert inverse_perm(inverse_perm(p)) == p
        assert reverse_perm(reverse_perm(p)) == p
        assert complement_perm(complement_perm(p)) == p
        assert reverse_perm(complement_perm(p)) == complement_perm(reverse_perm(p))


def test_canonicalize_golden():
    assert str(canonicalize([parse_perm("123")])) == "123"
    c1 = canonicalize([parse_perm("231")])
    c2 = canonicalize([parse_perm("312")])
    assert c1 == c2  # 312 is the inverse of 231


def test_canonicalize_is_class_function(s3_patterns, s4_patterns):
    from permscan.sequences import _group

    for mask in range(1, 64):
        sub = [s3_patterns[j] for j in range(6) if (mask >> j) & 1]
        base = canonicalize(sub)
        for g in _group():
            assert canonicalize([g(p) for p in sub]) == base
    rng = random.Random(4)
    for _ in range(1000):
        sub = rng.sample(s4_patterns, rng.randint(1, 12))
        base = canonicalize(sub)
        for g in _group():
            assert canonicalize([g(p) for p in sub]) == base


def test_class_enumeration_matches_canonicalize(s3_patterns):
    classes = list(enumerate_symmetry_classes(3, 1))
    assert len(classes) == count_symmetry_classes(3, 1) == 19
    assert count_symmetry_classes(3, 1, include_full=True) == 20
    reps = {tuple(p.word for p in c) for c in classes}
    for mask in range(1, 63):  # proper subsets
        sub = [s3_patterns[j] for j in range(6) if (mask >> j) & 1]
        assert canonicalize(sub).words in reps
    for c in classes:
        assert canonicalize(c).patterns == c


def test_class_enumeration_k4_sample():
    rng = random.Random(8)
    classes = list(enumerate_symmetry_classes(4, 12))
    for c in rng.sample(classes, 40):
        assert canonicalize(c).patterns == c
    assert count_symmetry_classes(4, 12) == len(classes)
    with pytest.raises(ValueError):
        count_symmetry_classes(5, 1)


def test_wilf_invariance(s4_patterns):
    from permscan.sequences import _group

    rng = random.Random(12)
    for _ in range(200):
        sub = rng.sample(s4_patterns, rng.randint(1, 8))
        base = count_avoiders_fast(PatternSet.build(sub), 9)
        for g in _group():
            image = PatternSet.build([g(p) for p in sub])
            assert count_avoiders_fast(image, 9) == base


def test_growth_degree_golden():
    assert growth_degree([7] * 10) == 0
    assert growth_degree([n * n for n in range(5, 17)]) == 2
    assert growth_degree([2 * n + 1 for n in range(5, 17)]) == 1
    assert growth_degree([n ** 3 - 4 * n for n in range(5, 17)]) == 3
    catalan = [42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900,
               2674440, 9694845, 35357670]
    assert growth_degree(catalan) is None
    with pytest.raises(ValueError):
        growth_degree([1, 2, 3])


def test_growth_degree_ignores_unsettled_head():
    # noisy early terms don't matter once the tail has settled
    terms = [99, -5, 17] + [4] * 9  # n=5..16, constant from n=8
    assert growth_degree(terms) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.integers(1, 9))
def test_growth_degree_random_polynomials(degree, coeffs, lead):
    def poly(n):
        val = lead * n ** degree
        for j in range(degree):
            val += coeffs[j] * n ** j
        return val

    terms = [poly(n) for n in range(5, 17)]
    assert growth_degree(terms) == degree


def test_oeis_parse_and_errors(tmp_path):
    text = """# OEIS data
# comment line
A000004 ,0,0,0,0,0,0,0,0,0,0,
A000012 ,1,1,1,1,1,1,1,1,1,1,
A000045 ,0,1,1,2,3,5,8,13,21,34,55,89,
"""
    db = OeisDb.parse(io.StringIO(text).readlines())
    assert len(db) == 3
    assert db.entries[2] == OeisEntry(45, (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89))
    plain = tmp_path / "stripped"
    plain.write_text(text)
    assert len(OeisDb.load(str(plain))) == 3
    gz = tmp_path / "stripped.gz"
    with gzip.open(gz, "wt") as fh:
        fh.write(text)
    assert len(OeisDb.load(str(gz))) == 3
    with pytest.raises(OeisFormatError) as err:
        OeisDb.parse(["A000001 ,1,2,\n", "not a line\n"])
    assert "line 2" in str(err.value)
    with pytest.raises(OeisFormatError):
        OeisDb.parse(["A000001 ,1,2,\n", "A000001 ,3,4,\n"])


def test_oeis_match_shifts_and_tiebreak():
    prefix = list(range(100, 114))  # 14 junk terms
    target = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    db = OeisDb.parse([
        "A000300 ," + ",".join(map(str, target)) + ",\n",
        "A000200 ," + ",".join(map(str, prefix + target)) + ",\n",
        "A000100 ," + ",".join(map(str, prefix + [0] + target)) + ",\n",
    ])
    # shift 0 works for A000300, shift 14 for A000200; A000100 needs 15
    assert oeis_match(target, db) == (200, 14)  # smallest A-number that fits
    assert oeis_match(target, OeisDb.parse(
        ["A000300 ," + ",".join(map(str, target)) + ",\n"])) == (300, 0)
    assert oeis_match(target, OeisDb.parse(
        ["A000100 ," + ",".join(map(str, prefix + [0] + target)) + ",\n"])) is None
    assert oeis_match(target, OeisDb.parse(["A000100 ,1,2,3,\n"])) is None


def test_oeis_match_truncated_entries():
    q = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    db = OeisDb.parse(["A000007 ,1,2,3,4,5,6,7,8,\n"])
    # entry runs out after 8 terms: that overlap is accepted by default
    assert oeis_match(q, db) == (7, 0)
    db2 = OeisDb.parse(["A000007 ,1,2,3,4,5,6,7,\n"])
    assert oeis_match(q, db2) is None
    assert oeis_match(q, db2, min_overlap=7) == (7, 0)
    assert oeis_match([], db) is None


def test_match_independent_of_load_order():
    a = "A000010 ,5,5,5,5,5,5,5,5,5,5,\n"
    b = "A000020 ,5,5,5,5,5,5,5,5,5,5,\n"
    q = [5] * 10
    assert oeis_match(q, OeisDb.parse([a, b])) == (10, 0)
    assert oeis_match(q, OeisDb.parse([b, a])) == (10, 0)


def scan_match(terms, db, max_shift=14, min_overlap=8):
    """The linear scan over every entry and shift that ``oeis_match`` used
    before its term index: the reference for its answers."""
    q = list(terms)
    if not q:
        return None
    for entry in db._sorted:
        e = entry.terms
        for s in range(0, max_shift + 1):
            overlap = min(len(q), len(e) - s)
            if overlap < min(len(q), min_overlap):
                break
            if all(e[s + j] == q[j] for j in range(overlap)):
                return entry.anum, s
    return None


def _random_db(rng, size):
    """Entries over a small alphabet, so that queries cut from them match
    often, at several shifts and under several A-numbers.  The alphabet holds
    negative terms, terms above 2**64 and pairs that share the index's hash
    key (equal low bits)."""
    base = [0, 1, 2, 5, -1, -7, 2**64 + 3, 3 * 2**70 - 1]
    alphabet = base + [t + (1 << _HASH_BITS) for t in base[:4]] + [2**64 + 1]
    lines = {}
    while len(lines) < size:
        anum = rng.randrange(1, 400_000)
        kind = rng.random()
        if kind < 0.15 and lines:  # the terms of another entry: equal matches
            terms = rng.choice(list(lines.values()))
        elif kind < 0.3:  # periodic: matches at several shifts
            period = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
            terms = (period * 20)[:rng.randint(0, 30)]
        else:  # lengths from empty to beyond max_shift + query
            terms = [rng.choice(alphabet[:rng.randint(2, len(alphabet))])
                     for _ in range(rng.randint(0, 35))]
        lines[anum] = terms
    order = list(lines.items())
    rng.shuffle(order)  # A-numbers out of order in the file
    return OeisDb.parse([f"A{a:06d} ," + "".join(f"{t}," for t in ts) + "\n"
                         for a, ts in order])


def _random_query(rng, db):
    if rng.random() < 0.2:
        return [rng.choice([0, 1, 2, -1, 2**64 + 3]) for _ in range(rng.randint(1, 14))]
    e = rng.choice(db.entries).terms
    s = rng.randint(0, max(0, len(e) - 1))
    q = list(e[s:s + rng.randint(1, 20)]) or [1]
    if rng.random() < 0.3:  # same hash key, different term
        j = rng.randrange(len(q))
        q[j] += rng.choice([1 << _HASH_BITS, -(1 << _HASH_BITS), 2**64])
    return q


@pytest.mark.parametrize("max_shift", [0, 3, 14, 20])
@pytest.mark.parametrize("min_overlap", [1, 7, 8])
def test_oeis_match_agrees_with_scan(max_shift, min_overlap):
    rng = random.Random(f"{max_shift}-{min_overlap}")
    hits = 0
    for _ in range(6):
        db = _random_db(rng, rng.randint(1, 60))
        for _ in range(60):
            q = _random_query(rng, db)
            want = scan_match(q, db, max_shift, min_overlap)
            assert oeis_match(q, db, max_shift, min_overlap) == want, q
            hits += want is not None
    assert hits > 50  # the queries do reach matches


def test_oeis_match_hash_collisions():
    t = 7
    clash = t + (1 << _HASH_BITS)
    tail = [3, 1, 4, 1, 5, 9, 2, 6]
    db = OeisDb.parse([f"A000001 ,{clash}," + ",".join(map(str, tail)) + ",\n",
                       f"A000002 ,{t + 2**64}," + ",".join(map(str, tail)) + ",\n",
                       f"A000003 ,9,{t}," + ",".join(map(str, tail)) + ",\n"])
    # A000001 and A000002 share the key of q[0] at shift 0 and must be rejected
    assert oeis_match([t] + tail, db) == (3, 1) == scan_match([t] + tail, db)
    assert oeis_match([clash] + tail, db) == (1, 0)
    assert oeis_match([t - (1 << _HASH_BITS)] + tail, db) is None


def test_oeis_match_rejects_degenerate_args():
    db = OeisDb.parse(["A000005 ,1,2,3,\n"])
    q = [4, 5, 6, 7, 8, 9, 10, 11, 12]
    for kwargs in ({"min_overlap": 0}, {"min_overlap": -2}, {"max_shift": -1}):
        with pytest.raises(ValueError):
            oeis_match(q, db, **kwargs)
        with pytest.raises(ValueError):
            mine(3, 1, 10, None, **kwargs)
    assert oeis_match(q, db, min_overlap=1) is None
    assert oeis_match([2, 3], db, max_shift=0) is None
    assert oeis_match([2, 3], db, max_shift=1) == (5, 1)
    assert oeis_match([1], OeisDb([])) is None

def test_avoidance_record():
    rec = avoidance_record([parse_perm("231")], 10)
    assert rec.n_max == 10 and len(rec.terms) == 6
    assert rec.terms == (42, 132, 429, 1430, 4862, 16796)
    assert str(rec.pattern_set) == "132"  # canonical form of the 231 class
    with pytest.raises(ValueError):
        SequenceRecord(rec.pattern_set, (1, 2, 3), 10)


def test_mine_k3_with_synthetic_db():
    db = OeisDb.parse([
        "A000108 ,1,1,2,5,14,42,132,429,1430,4862,16796,58786,208012,742900,\n",
        "A000045 ,0,1,1,2,3,5,8,13,21,34,55,89,144,233,377,\n",
    ])
    rows = mine(3, 1, 11, db)
    assert len(rows) == 19
    by_patterns = {tuple(str(p) for p in r.patterns): r for r in rows}
    catalan_row = by_patterns[("123",)]
    assert catalan_row.terms == (42, 132, 429, 1430, 4862, 16796, 58786)
    assert catalan_row.anum == 108 and catalan_row.shift == 5
    fib_row = by_patterns[("123", "132", "213")]
    assert fib_row.anum == 45
    # classes whose growth settles to a polynomial are filtered from matching
    twos = by_patterns[("123", "132", "213", "231")]
    assert twos.degree == 0 and twos.filtered and twos.anum is None


def test_mine_empty_db_and_reports():
    rows = mine(3, 5, 10, None)
    assert all(r.anum is None for r in rows)
    buf = io.StringIO()
    write_report(rows, buf)
    text = buf.getvalue().splitlines()
    assert text[0] == "canonical_patterns,terms,degree,oeis_anum,shift"
    assert len(text) == len(rows) + 1
    # byte determinism
    buf2 = io.StringIO()
    write_report(mine(3, 5, 10, None), buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_sweep_script_matches_library(tmp_path):
    """``scripts/full_s4_sweep.py`` writes, with one counting process or
    two, the report of ``mine_row`` over the same classes."""
    classes = list(islice(enumerate_symmetry_classes(4, 5), 40))
    layout = layout_for(16)
    seqs = []
    for c in classes:
        pat = PatternSet.build([PackedPerm.from_letters(p.letters(), layout) for p in c])
        seqs.append(tuple(count_avoiders_fast(pat, 16)[4:]))
    # plant some sequences at shifts, one truncated, one behind a hash clash
    rng = random.Random(40)
    lines = []
    for i, terms in enumerate(seqs[::4]):
        junk = [rng.randrange(1000) for _ in range(i % 15)]
        body = list(terms[:8] if i == 2 else terms)
        if i == 3:
            body[0] += 1 << _HASH_BITS
        lines.append(f"A{1000 + 7 * i:06d} ," + ",".join(map(str, junk + body)) + ",\n")
    stripped = tmp_path / "stripped"
    stripped.write_text("# synthetic\n" + "".join(lines))
    db = OeisDb.load(str(stripped))
    expected = io.StringIO()
    rows = [mine_row(c, t, db) for c, t in zip(classes, seqs)]
    write_report(rows, expected)
    assert sum(r.anum is not None for r in rows) >= 3

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"sweep{jobs}.csv"
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "full_s4_sweep.py"),
             "--limit", "40", "--oeis", str(stripped), "--out", str(out),
             "--jobs", str(jobs)],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert "counting" in last and "lookup" in last
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == expected.getvalue().encode()


def test_symmetry_classes_in_mask_order(s4_patterns):
    """Chunked enumeration: the first classes are the orbit-largest masks in
    ascending order, the full set goes only on request, and the S_4 count is
    the paper's."""
    from permscan.sequences import _group

    perms = sorted(s4_patterns, key=lambda p: p.letters(), reverse=True)
    bit = {p.word: j for j, p in enumerate(perms)}
    idx = np.arange(1 << 21, dtype=np.uint32)  # the first two chunks
    largest = np.bitwise_count(idx) >= 5
    for g in _group():
        image = np.zeros_like(idx)
        for j, p in enumerate(perms):
            image |= ((idx >> np.uint32(j)) & np.uint32(1)) << np.uint32(bit[g(p).word])
        largest &= image <= idx
    want = [tuple(sorted((perms[j] for j in range(24) if (mask >> j) & 1),
                         key=lambda p: p.letters()))
            for mask in np.flatnonzero(largest)[:40].tolist()]
    assert list(islice(enumerate_symmetry_classes(4, 5), 40)) == want
    assert count_symmetry_classes(3, 6) == 0
    assert count_symmetry_classes(3, 6, include_full=True) == 1
    assert count_symmetry_classes(3, 5) == 2  # complements of single patterns
    assert count_symmetry_classes(4, 5) == 2_137_358


def _unpruned_canonical_masks(k, min_size, include_full):
    """All canonical masks, by folding every group image of every mask into
    a running maximum (the form the pruned sweep replaced)."""
    from permscan.sequences import _byte_tables, _mask_tables

    perms, moves = _mask_tables(k)
    tables = [_byte_tables(mv, len(perms)) for mv in moves]
    total = 1 << len(perms)
    out = []
    for start in range(0, total, 1 << 20):
        idx = np.arange(start, min(start + (1 << 20), total), dtype=np.uint32)
        canon = idx.copy()
        for tbs in tables:
            img = tbs[0][idx & np.uint32(255)]
            for t in range(1, len(tbs)):
                img |= tbs[t][(idx >> np.uint32(8 * t)) & np.uint32(255)]
            np.maximum(canon, img, out=canon)
        out.append(idx[(canon == idx) & (np.bitwise_count(idx) >= min_size)])
    masks = np.concatenate(out)
    return masks if include_full else masks[masks != total - 1]


@pytest.mark.parametrize("k,min_size,include_full", [
    (3, 0, True), (3, 1, False), (3, 3, True), (3, 5, False),
    (4, 5, False), (4, 1, True),
])
def test_pruned_masks_match_unpruned(k, min_size, include_full):
    import hashlib

    from permscan.sequences import _canonical_masks

    _, chunks = _canonical_masks(k, min_size, include_full)
    pruned = np.concatenate(list(chunks))
    want = _unpruned_canonical_masks(k, min_size, include_full)
    assert pruned.dtype == want.dtype == np.uint32
    assert hashlib.sha256(pruned.tobytes()).hexdigest() == \
        hashlib.sha256(want.tobytes()).hexdigest()
