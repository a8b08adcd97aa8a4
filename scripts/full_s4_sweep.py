#!/usr/bin/env python3
"""Full conjecture sweep: every symmetry class of pattern sets within S_4
with more than four patterns, counted through n = 16 and matched against a
local OEIS dump.

This is the long-run batch job behind the `mine` subcommand, sized well
beyond the test suite: 2,137,358 classes, each needing an avoider count to
n = 16 in the wide word layout, about 2 CPU-hours of counting in all on a
2-core machine.  It runs the per-class loop of `permscan mine`
(``sequences.mine_rows``): classes are enumerated as they are needed,
counted in --jobs processes through an ordered ``imap``, and go through the
growth filter and the OEIS lookups in this process.  Each row is written to
--out in class order as soon as it is done, so memory stays flat however
many classes are swept.  A `mine:` progress line goes to stderr at most
every 10 s, and the last line splits the time between counting and lookup.
Use --limit for a taste, --jobs to spread counting across cores, and
--min-size 1 to also sweep the small sets.

Usage:
    python scripts/full_s4_sweep.py --oeis /path/to/stripped.gz \
        --out sweep.csv [--max-n 16] [--jobs 2] [--limit 1000]

Output: the standard report CSV (canonical_patterns,terms,degree,oeis_anum,shift).
"""

import argparse
import sys
import time
from contextlib import nullcontext
from functools import partial
from itertools import islice
from multiprocessing import Pool

from permscan.cli import _MineProgress
from permscan.sequences import (
    OeisDb,
    check_mine_args,
    enumerate_symmetry_classes,
    mine_rows,
    write_report,
)


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
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")
    if args.limit is not None and args.limit < 0:
        ap.error("--limit must be at least 0")
    try:
        check_mine_args(args.max_n)
    except ValueError as exc:
        ap.error(f"--max-n: {exc}")

    t0 = time.perf_counter()
    progress = _MineProgress()
    matched = 0

    def noting_matches(rows):
        nonlocal matched
        for row in rows:
            matched += row.anum is not None
            yield row

    # the counting processes start before the dump is loaded, so they never hold it
    with Pool(args.jobs) if args.jobs > 1 else nullcontext() as pool:
        db = OeisDb.load(args.oeis) if args.oeis else None
        rows = mine_rows(islice(enumerate_symmetry_classes(4, args.min_size), args.limit),
                         args.max_n, db, progress=progress,
                         imap=map if pool is None else partial(pool.imap, chunksize=64))
        with open(args.out, "w", encoding="utf-8") as fh:
            write_report(noting_matches(rows), fh)
    progress.finish()
    done, counting, lookup = progress.latest or (0, 0.0, 0.0)
    print(f"done: {done} classes in {time.perf_counter() - t0:.1f}s (counting {counting:.1f}s, "
          f"lookup {lookup:.1f}s); {matched} rows matched OEIS", file=sys.stderr)


if __name__ == "__main__":
    main()
