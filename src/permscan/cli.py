"""Command-line front end.

Subcommands: ``avoid`` (avoider counts / enumeration), ``count`` (hit-count
histograms), ``vincular-count`` (covincular hit histograms), ``mine`` (the
OEIS conjecture sweep), and ``bench`` (timings against the
generate-and-check baseline).  All outputs are sorted before emission, so a
given command line always produces byte-identical output (bench timings
excepted).

Exit codes: 0 on success, 1 on usage or parse errors, 2 when --oracle-check
finds an engine/oracle mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from functools import partial
from typing import ContextManager, TextIO

import numpy as np

from . import avoiders as av
from . import counting as ct
from . import oracle as orc
from . import sequences as sq
from . import vincular as vc
from .permcore import (
    WIDE,
    PackedPerm,
    PermCapacityError,
    layout_for,
    pack_rows,
    parse_perm,
)

ORACLE_CHECK_MAX_N = 8


def _parse_for_args(args, parse):
    """parse(layout) on the layout that holds --max-n, or on WIDE if a
    pattern is too long for that layout; --wide forces WIDE."""
    layout = WIDE if args.wide else layout_for(args.max_n)
    try:
        return parse(layout)
    except PermCapacityError:
        return parse(WIDE)


def _output(args) -> ContextManager[TextIO]:
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def _check_oracle_n(args) -> None:
    if args.oracle_check and args.max_n > ORACLE_CHECK_MAX_N:
        raise ValueError(f"--oracle-check supports max-n <= {ORACLE_CHECK_MAX_N}")


# ---------------------------------------------------------------------------
# avoid

_LINE_BLOCK = 1 << 16   # rows formatted per numpy pass

# letter v -> bytes (separator, tens digit, ones digit); NUL marks an unused
# slot, and the separator is set per level
_TOKENS = np.zeros((WIDE.capacity + 1, 3), np.uint8)
_TOKENS[10:, 1] = [ord(str(v)[0]) for v in range(10, WIDE.capacity + 1)]
_TOKENS[:, 2] = [ord(str(v)[-1]) for v in range(WIDE.capacity + 1)]


def _write_level(out: TextIO, m: int, letters: np.ndarray) -> None:
    """Write one level's avoiders as lines "m,<perm>", sorted by letters,
    with ``format_perm``'s text: letters concatenated up to length 9,
    separated by spaces beyond.  Each block of lines is one byte buffer
    built in numpy, from which the NUL slots are dropped; its rows are
    gathered through the sort order, so no sorted copy of the level is made."""
    order = np.lexsort(letters.T[::-1])
    head = np.frombuffer(f"{m},".encode(), np.uint8)
    width = head.size + 3 * m + 1
    for start in range(0, len(order), _LINE_BLOCK):
        block = letters.take(order[start:start + _LINE_BLOCK], axis=0)
        lines = np.empty((len(block), width), np.uint8)
        lines[:, :head.size] = head
        lines[:, head.size:-1] = np.take(_TOKENS, block, axis=0).reshape(len(block), 3 * m)
        if m > 9:
            lines[:, head.size + 3:-1:3] = ord(" ")
        lines[:, -1] = ord("\n")
        flat = lines.ravel()
        out.write(np.compress(flat != 0, flat).tobytes().decode("ascii"))


def _avoiders(engine: str, pat: av.PatternSet, n: int):
    """Avoider counts of lengths 1..n by the engine named basic, fast or
    lowmem, with basic's avoider sets by length (else None).  The engine is
    looked up when called, so a replaced one is the one that runs."""
    if engine == "basic":
        built = av.build_avoiders_basic(pat, n)
        return [len(built[m]) for m in range(1, n + 1)], built
    return getattr(av, f"count_avoiders_{engine}")(pat, n), None


def cmd_avoid(args) -> int:
    pat = _parse_for_args(args, partial(av.PatternSet.parse, args.patterns))
    layout, n = pat.layout, args.max_n
    _check_oracle_n(args)
    if args.enumerate and args.engine == "lowmem":
        raise ValueError("--enumerate requires the basic or fast engine "
                         "(the low-memory engine never materializes levels)")
    levels: list[np.ndarray] | None = None  # per length m, letters (|S_m|, m)
    if args.enumerate and args.engine == "fast":
        levels = [letters for letters, _ in av.avoider_rows(pat, n)]
        counts = [len(letters) for letters in levels]
    else:
        counts, built = _avoiders(args.engine, pat, n)
        if built is not None:
            levels = [np.array([p.letters() for p in built[m]], np.uint8).reshape(-1, m)
                      for m in range(1, n + 1)]

    if args.oracle_check:
        truth = orc.oracle_avoider_levels(pat, n)
        if counts != [len(truth[m]) for m in range(1, n + 1)]:
            print("oracle-check FAILED: avoider counts disagree", file=sys.stderr)
            return 2
        if levels is not None:
            for m, letters in enumerate(levels, start=1):
                if {PackedPerm(w, m, layout) for w in pack_rows(letters, layout)} != truth[m]:
                    print(f"oracle-check FAILED: avoider set at n={m} disagrees",
                          file=sys.stderr)
                    return 2

    with _output(args) as out:
        for m in range(1, n + 1):
            out.write(f"{m},{counts[m - 1]}\n")
            if args.enumerate:
                _write_level(out, m, levels[m - 1])
    return 0


# ---------------------------------------------------------------------------
# count

def _write_tally(args, tally: ct.CountTally) -> int:
    with _output(args) as out:
        out.write("length,hits,multiplicity\n")
        for m, hits, mult in tally.rows():
            out.write(f"{m},{hits},{mult}\n")
    return 0


def cmd_count(args) -> int:
    pat = _parse_for_args(args, partial(av.PatternSet.parse, args.patterns))
    n = args.max_n
    _check_oracle_n(args)
    engine = args.engine
    if engine == "auto":
        engine = "standard" if n <= ct._DENSE_MAX_N else "lowmem"
    if engine == "single-fast":
        if len(pat) != 1:
            raise ValueError("--engine single-fast needs exactly one pattern")
        tally = ct.count_single_fast(pat.patterns[0], n)
    elif engine == "lowmem":
        tally = ct.count_all_lowmem(pat, n)
    else:
        tally = ct.count_all(pat, n)

    if args.oracle_check:
        if tally.by_length != orc.oracle_hit_histogram(pat, n):
            print("oracle-check FAILED: hit histogram disagrees", file=sys.stderr)
            return 2

    return _write_tally(args, tally)


# ---------------------------------------------------------------------------
# vincular-count

def cmd_vincular_count(args) -> int:
    pattern = _parse_for_args(args, partial(parse_perm, args.pattern))
    try:
        adj = frozenset(int(tok) for tok in args.adjacencies.split(",") if tok != "")
    except ValueError:
        raise ValueError(f"bad adjacency list {args.adjacencies!r}")
    cov = vc.CovincularPattern(pattern, adj)
    tally = vc.covincular_count_all(cov, args.max_n)
    return _write_tally(args, tally)


# ---------------------------------------------------------------------------
# mine

PROGRESS_INTERVAL_S = 10.0


class _MineProgress:
    """A ``sq.mine_rows`` progress callback: one stderr line, at most every
    PROGRESS_INTERVAL_S seconds, with the classes done, their rate and the
    time spent counting and in lookups.  ``finish`` reports the last class
    too, once the run has lasted that long; shorter runs print nothing."""

    def __init__(self) -> None:
        self.start = self.last = time.monotonic()
        self.latest = self.reported = None

    def __call__(self, done: int, counting_s: float, lookup_s: float) -> None:
        self.latest = (done, counting_s, lookup_s)
        now = time.monotonic()
        if now - self.last >= PROGRESS_INTERVAL_S:
            self.last = now
            self._print(now)

    def finish(self) -> None:
        now = time.monotonic()
        if self.latest != self.reported and now - self.start >= PROGRESS_INTERVAL_S:
            self._print(now)

    def _print(self, now: float) -> None:
        self.reported = done, counting_s, lookup_s = self.latest
        elapsed = now - self.start
        print(f"mine: {done} classes in {elapsed:.1f}s "
              f"({done / max(elapsed, 1e-9):.1f} classes/s; "
              f"counting {counting_s:.1f}s, lookup {lookup_s:.1f}s)", file=sys.stderr)


def cmd_mine(args) -> int:
    sq.check_mine_args(args.max_n, args.max_shift, args.min_overlap)   # before reading the dump
    db = sq.OeisDb.load(args.oeis) if args.oeis else None
    progress = _MineProgress()
    rows = sq.mine_rows(sq.enumerate_symmetry_classes(args.pattern_length, args.min_set_size),
                        args.max_n, db, max_shift=args.max_shift,
                        min_overlap=args.min_overlap, progress=progress)
    with _output(args) as out:
        sq.write_report(rows, out)
    progress.finish()
    return 0


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    pat = _parse_for_args(args, partial(av.PatternSet.parse, args.patterns))
    n = args.max_n
    rows = []
    for algo in args.algos.split(","):
        algo = algo.strip()
        t0 = time.perf_counter()
        if algo in ("basic", "fast", "lowmem"):
            counts, _ = _avoiders(algo, pat, n)
            work = sum(counts)
        elif algo == "oracle":
            counter = orc.SubseqCounter()
            truth = orc.oracle_avoider_levels(pat, n, counter)
            counts = [len(level) for level in truth.values()]
            work = counter.examined
        else:
            raise ValueError(f"unknown algorithm {algo!r} "
                             "(choose from basic, fast, lowmem, oracle)")
        elapsed = time.perf_counter() - t0
        rows.append((algo, n, elapsed, work, counts[-1]))
    with _output(args) as out:
        out.write("algorithm,n,seconds,work,last_level\n")
        for algo, nn, secs, work, last in rows:
            out.write(f"{algo},{nn},{secs:.6f},{work},{last}\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permscan",
        description="pattern avoiders, hit counting, and OEIS conjecture mining")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, patterns=True):
        if patterns:
            p.add_argument("--patterns", required=True,
                           help="patterns separated by spaces or commas; digit "
                                "strings up to length 9, bracketed letter lists "
                                "beyond (e.g. '[10 2 1 ...]')")
        p.add_argument("--max-n", type=int, required=True, dest="max_n")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--wide", action="store_true",
                       help="force the wide word layout (5-bit letters, n up to "
                            "25); without it, WIDE is picked when --max-n or a "
                            "pattern is longer than 15")
        p.add_argument("--threads", type=int, default=1,
                       help="reserved; engines run serially and output never "
                            "depends on this value")

    p_avoid = sub.add_parser("avoid", help="count or list pattern avoiders")
    common(p_avoid)
    p_avoid.add_argument("--engine", choices=["basic", "fast", "lowmem"],
                         default="fast")
    p_avoid.add_argument("--enumerate", action="store_true",
                         help="also list the avoiders of each length, sorted")
    p_avoid.add_argument("--oracle-check", action="store_true", dest="oracle_check",
                         help="cross-validate against generate-and-check (max-n <= 8)")
    p_avoid.set_defaults(func=cmd_avoid)

    p_count = sub.add_parser("count", help="histogram of hit counts per length")
    common(p_count)
    p_count.add_argument("--engine", choices=["auto", "standard", "single-fast", "lowmem"],
                         default="auto",
                         help="auto runs standard (windows of 2^16 hosts) up to "
                              "max-n 11 and lowmem (windows of whole tree-node "
                              "batches, O(n^(k+1)) rows) above, for any number "
                              "of patterns; single-fast is the pure-Python "
                              "single-pattern reference")
    p_count.add_argument("--histogram", action="store_true",
                         help="accepted for compatibility; histogram rows are "
                              "the only output format")
    p_count.add_argument("--oracle-check", action="store_true", dest="oracle_check")
    p_count.set_defaults(func=cmd_count)

    p_vc = sub.add_parser("vincular-count",
                          help="histogram of covincular hit counts per length")
    p_vc.add_argument("--pattern", required=True)
    p_vc.add_argument("--adjacencies", default="",
                      help="comma list within 0..k (0 anchors the minimum, "
                           "k the maximum, x forces values x,x+1 adjacent)")
    common(p_vc, patterns=False)
    p_vc.set_defaults(func=cmd_vincular_count)

    p_mine = sub.add_parser("mine", help="avoidance-sequence sweep with OEIS lookup")
    p_mine.add_argument("--pattern-length", type=int, required=True,
                        dest="pattern_length")
    p_mine.add_argument("--min-set-size", type=int, default=1, dest="min_set_size")
    p_mine.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_mine.add_argument("--oeis", help="path to an OEIS 'stripped' file "
                                       "(plain or .gz); omit to skip matching")
    p_mine.add_argument("--max-shift", type=int, default=14, dest="max_shift")
    p_mine.add_argument("--min-overlap", type=int, default=8, dest="min_overlap")
    p_mine.add_argument("--out")
    p_mine.add_argument("--threads", type=int, default=1)
    p_mine.set_defaults(func=cmd_mine)

    p_bench = sub.add_parser("bench", help="time engines against the baseline")
    common(p_bench)
    p_bench.add_argument("--algos", default="fast,oracle",
                         help="comma list from basic,fast,lowmem,oracle")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, PermCapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
