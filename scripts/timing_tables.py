#!/usr/bin/env python3
"""Timing tables: the extension-map and profile engines against the
generate-and-check baseline, across n, for single patterns and for the
"k-letter subsequences containing a 231-hit" family of large pattern sets.

Wall-clock numbers are machine-specific; the point of the table is the
scaling shape (the baseline's work grows per the subsequence-census model,
the engines' per avoider/permutation).  Expect minutes once n passes 11-12.

Usage:
    python scripts/timing_tables.py [--max-n 11] [--count-max-n 9] [--out -]
"""

import argparse
import sys
import time
from itertools import permutations

from permscan.avoiders import PatternSet, count_avoiders_fast
from permscan.counting import count_single_fast
from permscan.oracle import (
    SubseqCounter,
    oracle_avoider_levels,
    oracle_contains,
    oracle_hit_histogram,
)
from permscan.permcore import PackedPerm, layout_for


def contains_231_family(k):
    """Patterns of length k containing a 231-hit; avoiding all of them is
    avoiding 231 once n >= k, so the family solves a known problem with a
    large set of large patterns."""
    pat231 = PatternSet.parse("231")
    out = []
    for tup in permutations(range(1, k + 1)):
        p = PackedPerm.from_letters(tup)
        if oracle_contains(p, pat231):
            out.append(p)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-n", type=int, default=11, dest="max_n")
    ap.add_argument("--count-max-n", type=int, default=9, dest="count_max_n")
    ap.add_argument("--out", default="-")
    args = ap.parse_args()
    out = sys.stdout if args.out == "-" else open(args.out, "w")

    out.write("table,algorithm,patterns,n,seconds,work\n")

    singles = ["231", "2431", "24531", "246531"]
    for text in singles:
        for n in range(8, args.max_n + 1):
            pat = PatternSet.parse(text, layout_for(n))
            t0 = time.perf_counter()
            counts = count_avoiders_fast(pat, n)
            el = time.perf_counter() - t0
            out.write(f"avoid,fast,{text},{n},{el:.4f},{sum(counts)}\n")
        n = min(args.max_n, 9)
        counter = SubseqCounter()
        t0 = time.perf_counter()
        oracle_avoider_levels(PatternSet.parse(text), n, counter)
        el = time.perf_counter() - t0
        out.write(f"avoid,oracle,{text},{n},{el:.4f},{counter.examined}\n")
        out.flush()

    for text in singles:
        pi = PatternSet.parse(text).patterns[0]
        for n in range(7, args.count_max_n + 1):
            stats = {}
            t0 = time.perf_counter()
            count_single_fast(pi, n, stats)
            el = time.perf_counter() - t0
            out.write(f"count,single-fast,{text},{n},{el:.4f},"
                      f"{stats['profile_entries']}\n")
        n = min(args.count_max_n, 8)
        counter = SubseqCounter()
        t0 = time.perf_counter()
        oracle_hit_histogram(PatternSet.parse(text), n, counter)
        el = time.perf_counter() - t0
        out.write(f"count,oracle,{text},{n},{el:.4f},{counter.examined}\n")
        out.flush()

    for k in (4, 5, 6):
        family = PatternSet.build(contains_231_family(k))
        for n in range(8, args.max_n + 1):
            t0 = time.perf_counter()
            counts = count_avoiders_fast(PatternSet.build(
                [PackedPerm.from_letters(p.letters(), layout_for(n))
                 for p in family]), n)
            el = time.perf_counter() - t0
            out.write(f"avoid-family,fast,X_{k}(231),{n},{el:.4f},{sum(counts)}\n")
        out.flush()

    if out is not sys.stdout:
        out.close()


if __name__ == "__main__":
    main()
