#!/usr/bin/env python3
"""Full conjecture sweep: every symmetry class of pattern sets within S_4
with more than four patterns, counted through n = 16 and matched against a
local OEIS dump.

This is the long-run batch job behind the `mine` subcommand, sized well
beyond the test suite: 2,137,358 classes, each needing an avoider count to
n = 16 in the wide word layout.  Those counts run vectorized: the bulk takes
about a millisecond per class and the five-pattern classes that grow
Catalan-fast take up to a few seconds each, about 2 CPU-hours of counting
in all on a 2-core machine.  The OEIS lookups of the classes that pass the
growth filter cost far less: each one is a binary search over a term index
of the dump plus a few exact comparisons, and the index is built once, on
the first lookup.  Counting runs in --jobs processes; the growth filter and
the lookups (``sequences.mine_row``, as in ``permscan mine``) run in this
one.  Use --limit for a taste, --jobs to spread counting across cores, and
--min-size 1 to also sweep the small sets.  The last line on stderr splits
the time between counting and lookup.

Usage:
    python scripts/full_s4_sweep.py --oeis /path/to/stripped.gz \
        --out sweep.csv [--max-n 16] [--jobs 2] [--limit 1000]

Output: the standard report CSV (canonical_patterns,terms,degree,oeis_anum,shift).
"""

import argparse
import sys
import time
from multiprocessing import Pool

from permscan.avoiders import PatternSet, count_avoiders_fast
from permscan.permcore import PackedPerm, layout_for
from permscan.sequences import (
    FIRST_TERM_N,
    OeisDb,
    enumerate_symmetry_classes,
    mine_row,
    write_report,
)

_WORKER_STATE = {}


def _init_worker(n_max):
    _WORKER_STATE["n_max"] = n_max
    _WORKER_STATE["layout"] = layout_for(n_max)


def _sequence_for(letters_lists):
    n_max = _WORKER_STATE["n_max"]
    layout = _WORKER_STATE["layout"]
    pat = PatternSet.build(
        [PackedPerm.from_letters(ls, layout) for ls in letters_lists])
    counts = count_avoiders_fast(pat, n_max)
    return tuple(counts[FIRST_TERM_N - 1:])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--oeis", help="path to OEIS 'stripped' file (.gz ok)")
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-n", type=int, default=16, dest="max_n")
    ap.add_argument("--min-size", type=int, default=5, dest="min_size")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--limit", type=int, default=None,
                    help="only process the first N classes (smoke runs)")
    args = ap.parse_args()

    db = OeisDb.load(args.oeis) if args.oeis else None
    classes = []
    for i, cls in enumerate(enumerate_symmetry_classes(4, args.min_size)):
        if args.limit is not None and i >= args.limit:
            break
        classes.append(cls)
    print(f"{len(classes)} classes to sweep (max n = {args.max_n})", file=sys.stderr)

    payloads = [[p.letters() for p in cls] for cls in classes]
    t0 = time.time()
    if args.jobs > 1:
        with Pool(args.jobs, initializer=_init_worker, initargs=(args.max_n,)) as pool:
            sequences = pool.map(_sequence_for, payloads, chunksize=64)
    else:
        _init_worker(args.max_n)
        sequences = []
        for i, payload in enumerate(payloads):
            sequences.append(_sequence_for(payload))
            if (i + 1) % 1000 == 0:
                rate = (i + 1) / (time.time() - t0)
                print(f"  {i + 1}/{len(payloads)} classes "
                      f"({rate:.0f}/s)", file=sys.stderr)

    t1 = time.time()
    rows = [mine_row(cls, terms, db) for cls, terms in zip(classes, sequences)]
    t2 = time.time()

    with open(args.out, "w", encoding="utf-8") as fh:
        write_report(rows, fh)
    matched = sum(1 for r in rows if r.anum is not None)
    print(f"done in {time.time() - t0:.1f}s (counting {t1 - t0:.1f}s, "
          f"lookup {t2 - t1:.1f}s); {matched} rows matched OEIS", file=sys.stderr)


if __name__ == "__main__":
    main()
