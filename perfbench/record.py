#!/usr/bin/env python3
"""Record the results the benchmark checks against, from the program at the
current commit.

    PYTHONPATH=src python3 perfbench/record.py

writes ``perfbench/expected.json``: the menus the workload generator samples
from (pattern-set classes, covincular patterns, S_4 sweep classes), each
with the output it must produce.  Engine-independent checks (level totals,
the mass identity, Catalan numbers, the oracle at small n) run at benchmark
time in addition; the recorded outputs cover what they cannot.

The file is recorded once, at the seed commit named in it.  Re-record only
when a menu changes, and only from a commit whose outputs are known to be
right: re-recording to make a failing check pass hides the bug.  Takes
about ten minutes on one core.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import symmetry as sym  # noqa: E402

from permscan import cli  # noqa: E402
from permscan import oracle as orc  # noqa: E402
from permscan import sequences as sq  # noqa: E402
from permscan.avoiders import PatternSet, count_avoiders_fast  # noqa: E402
from permscan.permcore import NIBBLE, WIDE, PackedPerm  # noqa: E402
from permscan.vincular import CovincularPattern  # noqa: E402

S3 = list(itertools.permutations(range(1, 4)))
S4 = list(itertools.permutations(range(1, 5)))

# Avoid menus: (name, n, enumerate, lo, hi).  lo..hi bounds the work of one
# op: the avoiders the engine materializes (levels 1..n-1), or for
# --enumerate the avoiders listed (levels 1..n).  Bands are narrow so that
# every seed draws ops of about the same cost.
AVOID_BANDS = [
    ("nibble15", 15, False, 850_000, 1_250_000),
    ("nibble14", 14, False, 850_000, 1_250_000),
    ("wide16", 16, False, 42_000, 58_000),
    ("enum14", 14, True, 13_000, 18_000),
]
BAND_SIZE = 24
SWEEP_POOL = 3000
SWEEP_CAP = 150_000     # sweep classes are counted to n = 16 up to about this much work


def canon(patterns) -> tuple:
    """Least image under the 8 symmetries (a class key independent of the
    program's own canonical form)."""
    return min(sym.image(patterns, g) for g in range(8))


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"permscan {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pattern_set(patterns, layout=NIBBLE) -> PatternSet:
    return PatternSet.build([PackedPerm.from_letters(p, layout) for p in patterns])


def estimate(counts: list[int], n: int) -> float:
    """Extrapolate |Av_n| from the last two known terms."""
    a, b = counts[-2], counts[-1]
    if b == 0:
        return 0.0
    r = b / a if a else 1.0
    return b * r ** (n - len(counts))


def record_avoid(rng: random.Random) -> dict:
    seen = {}
    while len(seen) < 1500:
        roll = rng.random()
        if roll < 0.2:
            s = rng.sample(S3, rng.randint(1, 2))
        elif roll < 0.6:
            s = [rng.choice(S3)] + rng.sample(S4, rng.randint(1, 3))
        else:
            s = rng.sample(S4, rng.randint(2, 4))
        c = canon(s)
        if c not in seen:
            seen[c] = count_avoiders_fast(pattern_set(c), 11)
    for c in (canon([p]) for p in S3):     # Catalan classes always compete
        seen.setdefault(c, count_avoiders_fast(pattern_set(c), 11))
    menus = {}
    for name, n, enum, lo, hi in AVOID_BANDS:
        top = n if enum else n - 1
        mid = (lo + hi) / 2
        cands = []
        for c, cnt in seen.items():
            est = sum(cnt) + sum(estimate(cnt, m) for m in range(12, top + 1))
            if lo / 2 <= est <= hi * 2:
                cands.append((abs(est - mid), c))
        cands.sort()
        chosen = []
        for _, c in cands:
            if len(chosen) == BAND_SIZE:
                break
            layout = WIDE if n > NIBBLE.capacity else NIBBLE
            counts = count_avoiders_fast(pattern_set(c, layout), n)
            work = sum(counts[:top])
            if not lo <= work <= hi:
                continue
            entry = {"patterns": sym.key(c), "n": n, "counts": counts, "work": work}
            if enum:
                digests = {}
                for g in range(8):
                    img = sym.key(sym.image(c, g))
                    if img not in digests:
                        out = run_cli(["avoid", "--patterns", img, "--max-n", str(n),
                                       "--enumerate"])
                        digests[img] = digest(out)
                entry["digests"] = digests
            chosen.append(entry)
            print(f"  avoid {name}: {entry['patterns']} work {work}", file=sys.stderr)
        menus[name] = chosen
    return menus


def record_count(rng: random.Random) -> dict:
    singles = [canon([p]) for p in S3 + S4]
    singles = sorted(set(singles))
    k3 = sorted({canon(s) for r in range(1, 6) for s in itertools.combinations(S3, r)})
    k4 = set(canon([p]) for p in S4)
    while len(k4) < 30:
        if rng.random() < 0.5:
            s = rng.sample(S4, rng.randint(2, 3))
        else:
            s = [rng.choice(S3)] + rng.sample(S4, rng.randint(1, 2))
        k4.add(canon(s))
    k4 = sorted(k4)

    def hist_digests(classes, ns):
        out = []
        for c in classes:
            entry = {"patterns": sym.key(c)}
            # the eight images share one histogram: confirm it at n = 7
            small = {run_cli(["count", "--patterns", sym.key(sym.image(c, g)),
                              "--max-n", "7", "--engine", "standard"]) for g in range(8)}
            if len(small) != 1:
                raise RuntimeError(f"an image of {entry['patterns']} changes the histogram")
            for n in ns:
                text = run_cli(["count", "--patterns", sym.key(c), "--max-n", str(n),
                                "--engine", "standard"])
                entry[f"n{n}"] = digest(text)
            out.append(entry)
            print(f"  count: {entry['patterns']}", file=sys.stderr)
        return out

    vinc = set()
    while len(vinc) < 24:
        p = rng.choice(S3 + S4)
        adj = [x for x in range(len(p) + 1) if rng.random() < 0.35]
        vinc.add(min(sym.covincular_image(p, adj, g) for g in range(4)))
    vincular = []
    for p, adj in sorted(vinc):
        argv = ["vincular-count", "--pattern", sym.fmt(p), "--adjacencies",
                ",".join(map(str, adj)), "--max-n", "8"]
        entry = {"pattern": sym.fmt(p), "adjacencies": list(adj), "n8": digest(run_cli(argv))}
        # the four images share one histogram: confirm it on the oracle
        hist = None
        for g in range(4):
            q, qadj = sym.covincular_image(p, adj, g)
            cov = CovincularPattern(PackedPerm.from_letters(q), frozenset(qadj))
            h = {}
            for t in itertools.permutations(range(1, 7)):
                hits = orc.oracle_count_covincular(PackedPerm.from_letters(t), cov.pattern,
                                                   cov.adjacencies)
                h[hits] = h.get(hits, 0) + 1
            if hist is not None and h != hist:
                raise RuntimeError(f"covincular image {g} of {p} {adj} changes the histogram")
            hist = h
        vincular.append(entry)
        print(f"  vincular: {entry['pattern']} {adj}", file=sys.stderr)
    return {
        "single": hist_digests(singles, [8]),
        "k3": hist_digests(k3, [9, 10]),
        "k4": hist_digests(k4, [9, 10]),
        "vincular": vincular,
    }


def record_sweep(rng: random.Random) -> list[dict]:
    """A uniform sample of S_4 classes with at least 5 patterns (not the full
    set), with their n = 5..16 terms and growth degrees."""
    seen = {}
    while len(seen) < SWEEP_POOL:
        mask = rng.getrandbits(24)
        s = [S4[j] for j in range(24) if mask >> j & 1]
        if len(s) < 5 or len(s) == 24:
            continue
        cls = sq.canonicalize([PackedPerm.from_letters(p) for p in s])
        key = sym.fmt_set(p.letters() for p in cls.patterns)
        if key not in seen:
            seen[key] = [p.letters() for p in cls.patterns]
    pool = []
    for i, (key, pats) in enumerate(seen.items()):
        head = count_avoiders_fast(pattern_set(pats), 11)
        est = sum(head) + sum(estimate(head, m) for m in range(12, 16))
        if est > 2 * SWEEP_CAP:
            pool.append({"patterns": key, "work": None})
            continue
        counts = count_avoiders_fast(pattern_set(pats, WIDE), 16)
        terms = counts[sq.FIRST_TERM_N - 1:]
        try:
            degree = sq.growth_degree(terms)
            checked = True
        except ValueError:
            degree, checked = None, False
        pool.append({"patterns": key, "work": sum(counts[:15]), "counts": counts,
                     "degree": degree, "checked": checked})
        if i % 200 == 0:
            print(f"  sweep {i}/{len(seen)}", file=sys.stderr)
    return pool


def record_mine() -> list[dict]:
    rows = sq.mine(3, 1, 11, None)
    return [{"patterns": sym.fmt_set(p.letters() for p in r.patterns),
             "counts": count_avoiders_fast(PatternSet.build(r.patterns), 11),
             "degree": r.degree, "checked": r.degree_checked}
            for r in rows]


def main() -> None:
    t0 = time.time()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=False).stdout.strip()
    data = {
        "commit": commit,
        "mine_k3_n11": record_mine(),
        "count": record_count(random.Random("record-count")),
        "avoid": record_avoid(random.Random("record-avoid")),
        "sweep": record_sweep(random.Random("record-sweep")),
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"recorded in {time.time() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
