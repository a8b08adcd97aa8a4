import gzip
import io
import os
import random
import subprocess
import sys
from itertools import islice
from math import factorial
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



def test_mine_rejects_max_n_below_first_term():
    with pytest.raises(ValueError, match="n_max must be at least 5"):
        mine(3, 1, 4, None)


def test_mine_rows_streams_its_classes():
    """Rows come one class at a time: the first row is out before the class
    stream is read any further, and argument errors come at the call."""
    from permscan.permcore import PermCapacityError
    from permscan.sequences import mine_rows

    first = next(enumerate_symmetry_classes(3, 1))

    def stream():
        yield first
        raise RuntimeError("stream read past its first class")

    rows = mine_rows(stream(), 8, None)
    assert next(rows) == mine(3, 1, 8, None)[0]
    with pytest.raises(RuntimeError, match="past its first class"):
        next(rows)
    for n_max, error in ((4, ValueError), (26, PermCapacityError)):
        with pytest.raises(error):
            mine_rows(stream(), n_max, None)


def _sweep_script():
    return Path(__file__).resolve().parents[1] / "scripts" / "full_s4_sweep.py"


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--limit", "-1")])
def test_sweep_script_refuses_bad_counts(tmp_path, flag, value):
    """--jobs below 1 and a negative --limit are usage errors: nothing is
    swept and no report is written."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "sweep.csv"
    proc = subprocess.run([sys.executable, str(_sweep_script()), "--max-n", "5",
                           "--out", str(out), flag, value],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"error: {flag} must be at least" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_script_prints_mine_progress(capsys, monkeypatch, tmp_path, jobs):
    """The sweep reports progress through ``permscan mine``'s callback, with
    one counting process or two, and writes the rows of ``mine_rows``."""
    import itertools
    import runpy
    import types

    from permscan import cli
    from permscan.sequences import mine_rows

    # the clock of test_mine_final_line_splits_counting_and_lookup: one
    # second later at every call, a line at most every 5 s
    clock = itertools.count()
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 5.0)
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", ["full_s4_sweep.py", "--max-n", "7", "--limit", "12",
                                      "--jobs", str(jobs), "--out", str(out)])
    runpy.run_path(str(_sweep_script()), run_name="__main__")
    lines = capsys.readouterr().err.splitlines()
    assert [ln.split(" classes")[0] for ln in lines[:-1]] == \
        ["mine: 5", "mine: 10", "mine: 12"]
    assert lines[-2].startswith("mine: 12 classes in 13.0s (0.9 classes/s; counting ")
    assert lines[-1].startswith("done: 12 classes in ") and "lookup" in lines[-1]
    expected = io.StringIO()
    write_report(mine_rows(islice(enumerate_symmetry_classes(4, 5), 12), 7, None), expected)
    assert out.read_text() == expected.getvalue()

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


def _enumerated_class_count(k, min_size, include_full):
    from permscan.sequences import _canonical_masks

    return sum(masks.size for masks in _canonical_masks(k, min_size, include_full)[1])


@pytest.mark.parametrize("include_full", [False, True])
def test_burnside_count_matches_enumeration(include_full):
    """count_symmetry_classes counts by Burnside's lemma; the mask sweep
    enumerates the canonical masks it counts."""
    for k in (1, 2, 3):
        for min_size in range(factorial(k) + 2):
            assert count_symmetry_classes(k, min_size, include_full) == \
                _enumerated_class_count(k, min_size, include_full), (k, min_size)
    for min_size in (0, 5, 12, 23, 24, 25):
        assert count_symmetry_classes(4, min_size, include_full) == \
            _enumerated_class_count(4, min_size, include_full), min_size


# ---------------------------------------------------------------------------
# the bytes loader against the line-by-line loader it replaced

def reference_load(path):
    """The loop ``OeisDb.load`` ran before it read the dump as bytes: the
    text-mode file line by line, every term an int.  Returns the entries in
    line order; raises as that loader did."""
    fh = gzip.open(path, "rt", encoding="utf-8") if str(path).endswith(".gz") \
        else open(path, "rt", encoding="utf-8")
    entries = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, rest = line.split(None, 1)
                if not name.startswith("A"):
                    raise ValueError("line must start with an A-number")
                anum = int(name[1:])
                terms = tuple(int(t) for t in rest.strip().strip(",").split(",") if t)
            except ValueError as exc:
                raise OeisFormatError(f"malformed OEIS line {lineno}: {exc}") from exc
            entries.append(OeisEntry(anum, terms))
    if len({e.anum for e in entries}) != len(entries):
        raise OeisFormatError("duplicate A-numbers in OEIS db")
    return entries


def reference_index(entries, max_shift):
    """The term index as it was built from int terms: ``(stride, words)``."""
    ranked = sorted(entries, key=lambda e: e.anum)
    stride = min(max_shift + 1, max((len(e.terms) for e in ranked), default=0))
    low = (1 << _HASH_BITS) - 1
    words = np.array(sorted((t & low) << _HASH_BITS | (r * stride + s)
                            for r, e in enumerate(ranked)
                            for s, t in enumerate(e.terms[:stride])), dtype=np.uint64)
    return stride, words


def _random_dump(rng, size):
    """Dump text with comment and blank lines, negative terms, terms of 2**64
    and more, empty entries, entries shorter and longer than the index
    stride, A-numbers out of order, and lines the parser accepts in forms
    other than the plain ``A<digits> ,<t>,...,<t>,``."""
    big = [2**64, 2**64 + 7, -(2**64) - 1, 3 * 2**70 - 1, 10**40 + 3, -(10**33)]
    anums = rng.sample(range(0, 999_999), size)
    lines = ["# synthetic dump", ""]
    for anum in anums:
        n = rng.choice([0, 1, 2, rng.randint(3, 14), 15, rng.randint(16, 40)])
        terms = [rng.choice([rng.randint(0, 9), rng.randint(-10**6, 10**12), rng.choice(big),
                             rng.randint(0, 2**32) + (1 << 32)]) for _ in range(n)]
        body = "".join(f"{t}," for t in terms)
        style = rng.random()
        if style < 0.8:
            line = f"A{anum:06d} ,{body}"
        elif style < 0.85:   # no trailing comma
            line = f"A{anum:06d} ,{body.rstrip(',')}"
        elif style < 0.9:    # spaces, signs and empty fields that int() accepts
            line = f"  A{anum} , " + ",, ".join(f"+{t}" if t >= 0 else str(t) for t in terms) + " "
        elif style < 0.95:   # leading zeros
            line = f"A{anum:06d} ," + "".join(f"{t:04d}," for t in terms)
        else:
            line = f"A{anum:06d}\t,{body}"
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "#  comment, with -1 ,2, and A123 ,4,", "   "]))
    return lines


def _write_dump(tmp_path, name, lines, newline, gz):
    text = "".join(line + newline for line in lines)
    path = tmp_path / (name + (".gz" if gz else ""))
    with (gzip.open(path, "wb") if gz else open(path, "wb")) as fh:
        fh.write(text.encode())
    return path


@pytest.mark.parametrize("gz", [False, True])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_matches_reference_loader(tmp_path, gz, newline):
    rng = random.Random(f"load-{gz}-{newline!r}")
    for i in range(4):
        lines = _random_dump(rng, rng.randint(1, 300))
        path = _write_dump(tmp_path, f"dump{i}", lines, newline, gz)
        want = reference_load(path)
        db = OeisDb.load(str(path))
        assert len(db) == len(want)
        assert db.entries == want
        assert db._sorted == sorted(want, key=lambda e: e.anum)
        for max_shift in (0, 3, 14, 20):
            stride, words = db._term_index(max_shift)
            ref_stride, ref_words = reference_index(want, max_shift)
            assert stride == ref_stride
            assert words.dtype == np.uint64 and words.tobytes() == ref_words.tobytes()


def test_load_without_final_newline_and_empty(tmp_path):
    path = tmp_path / "dump"
    path.write_bytes(b"# c\nA000002 ,5,-6,\nA000001 ,1,2,3,")
    db = OeisDb.load(str(path))
    assert db.entries == [OeisEntry(2, (5, -6)), OeisEntry(1, (1, 2, 3))]
    path.write_bytes(b"")
    assert len(OeisDb.load(str(path))) == 0
    path.write_bytes(b"\n# only a comment\n\n")
    assert len(OeisDb.load(str(path))) == 0
    assert oeis_match([1, 2], OeisDb.load(str(path))) is None


def test_load_refuses_a_dump_that_is_not_utf8(tmp_path):
    path = tmp_path / "dump"
    path.write_bytes(b"A000001 ,1,2,3,\n# \xff\n")
    with pytest.raises(UnicodeDecodeError,
                       match="^'utf-8' codec can't decode byte 0xff in position 18: "):
        OeisDb.load(str(path))


def test_load_a_numbers_beyond_the_plain_form(tmp_path):
    """A-numbers of 19 digits go through the line parser and load; those
    beyond 64 bits are refused, naming the line."""
    path = tmp_path / "dump"
    path.write_text("A1000000000000000000 ,4,5,\nA000001 ,1,\nA-7 ,2,\n")
    db = OeisDb.load(str(path))
    assert db.entries == reference_load(path)
    assert oeis_match([4, 5], db, min_overlap=2) == (10**18, 0)
    path.write_text("A000001 ,1,\nA" + "9" * 20 + " ,4,5,\n")
    with pytest.raises(OeisFormatError, match="line 2: A-number out of range"):
        OeisDb.load(str(path))


@pytest.mark.parametrize("gz", [False, True])
def test_load_names_malformed_line(tmp_path, gz):
    rng = random.Random(f"malformed-{gz}")
    lines = [f"A{a:06d} ," + "".join(f"{rng.randint(0, 99)}," for _ in range(30)) + ""
             for a in rng.sample(range(1, 99_999), 50)]
    lines.insert(0, "# header")
    cases = {
        "first": (1, "A00000x ,1,2,"),
        "last": (len(lines) - 1, lines[-1][:-1] + "1x,"),
        "past the index columns": (20, lines[20][:-1] + "1.5,"),
        "no A-number": (7, "000007 ,1,2,"),
        "no terms field": (9, "A000009"),
        "comma in the A-number": (12, "A000,012 ,1,2,"),
    }
    for what, (at, bad) in cases.items():
        broken = list(lines)
        broken[at] = bad
        path = _write_dump(tmp_path, "dump", broken, "\n", gz)
        with pytest.raises(OeisFormatError) as ref:
            reference_load(path)
        with pytest.raises(OeisFormatError) as err:
            OeisDb.load(str(path))
        assert str(err.value) == str(ref.value), what
        assert f"line {at + 1}:" in str(err.value), what
    dup = list(lines)
    dup[30] = lines[10].replace(",", ",7,", 1)   # the A-number of line 11 again
    path = _write_dump(tmp_path, "dump", dup, "\n", gz)
    with pytest.raises(OeisFormatError, match="line 31"):
        OeisDb.load(str(path))
    with pytest.raises(OeisFormatError, match="line 31"):
        OeisDb.parse([line + "\n" for line in dup])


def test_load_parses_terms_only_for_candidates(tmp_path, monkeypatch):
    """``len`` and lookups run the line parser on no entry.  A miss reads no
    entry; a hit reads only entries whose term at the pair's shift shares
    the first query term's low bits."""
    from permscan import sequences

    tail = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    lines = [f"A{a:06d} ," + ",".join(map(str, [a + 1000] * 20)) + ","
             for a in range(10, 400)]
    lines += [f"A000001 ,{7 + (1 << 32)}," + ",".join(map(str, tail)) + ",",
              f"A000002 ,9,{7 + 2**64}," + ",".join(map(str, tail)) + ",",
              "A000003 ,9,9,7," + ",".join(map(str, tail)) + ",",
              "A000004 ,9,9,9,7," + ",".join(map(str, tail)) + ","]
    path = _write_dump(tmp_path, "dump", lines, "\n", False)
    parsed, read = [], []
    parse_line = sequences._parse_line
    monkeypatch.setattr(sequences, "_parse_line",
                        lambda line, lineno: parsed.append(lineno) or parse_line(line, lineno))
    matches_at = OeisDb._matches_at
    monkeypatch.setattr(OeisDb, "_matches_at",
                        lambda db, r, s, q, need: read.append((r, s)) or matches_at(db, r, s, q, need))
    db = OeisDb.load(str(path))
    assert len(db) == 394
    assert oeis_match([8] + tail, db) is None and read == []
    assert oeis_match([7, 8] + tail, db) is None and read == []   # no second term 8
    assert oeis_match([7] + tail, db) == (3, 2)
    assert read == [(0, 0), (1, 1), (2, 2)]   # A000001..3 share 7's low bits
    read.clear()
    assert oeis_match([1010] * 12, db) == (10, 0) and read == [(4, 0)]
    assert parsed == []
    assert [db._sorted[r].terms[s] & ((1 << _HASH_BITS) - 1) for r, s in [(0, 0), (1, 1), (2, 2)]] == [7] * 3


@pytest.mark.parametrize("scan_bytes, index_entries", [(1, 1), (2, 3), (3, 2), (64, 5), (257, 1000)])
def test_load_block_sizes(tmp_path, monkeypatch, scan_bytes, index_entries):
    """Blocks of any size, odd or even, give the reference's entries and
    index: pairs, lines and entries that straddle a block boundary count."""
    from permscan import sequences

    monkeypatch.setattr(sequences, "_SCAN_BYTES", scan_bytes)
    monkeypatch.setattr(sequences, "_INDEX_ENTRIES", index_entries)
    rng = random.Random(f"blocks-{scan_bytes}")
    for i in range(3):
        lines = _random_dump(rng, rng.randint(1, 40))
        path = _write_dump(tmp_path, f"dump{i}", lines, rng.choice(["\n", "\r\n"]), False)
        want = reference_load(path)
        db = OeisDb.load(str(path))
        assert db.entries == want
        for max_shift in (0, 14):
            stride, words = db._term_index(max_shift)
            assert (stride, words.tobytes()) == \
                (lambda s, w: (s, w.tobytes()))(*reference_index(want, max_shift))
