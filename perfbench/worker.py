#!/usr/bin/env python3
"""Run one workload's set-up and timed ops in a fresh process.

    python3 perfbench/worker.py PLAN RESULT [--setup-only]
        [--seconds S | --rounds R] [--trace SPANS]

Imports permscan from ``<plan root>/src``, does the workload's set-up (for
``sweep``: load the synthetic OEIS file and count the S_4 classes), prints
``ready`` on stdout, then runs whole rounds of the plan's ops until S
seconds have passed (or exactly R rounds), cycling through the plan if it
runs out.  Each op is timed on its own; a raised exception or a non-zero
exit code is recorded, never retried.  RESULT receives the set-up results,
every op's times and outputs, the host-speed samples (``calibrate``) and
the process's peak RSS.  With --trace, calls into permscan's layers are
recorded as spans and written to SPANS.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback

CAL_LOOPS = 30_000      # about 3 ms of Python on the measuring machine
CAL_BURST = 20          # samples taken right after the set-up


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that shares no code with
    permscan: a sample of how fast the host runs this process right now.
    Other tenants of a shared host slow it and the program alike."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_class(op: dict, db, avoiders, sequences, permcore) -> dict:
    """One class of the S_4 sweep, through the per-class pipeline of
    ``sequences.mine`` and ``scripts/full_s4_sweep.py``."""
    layout = permcore.layout_for(op["n"])
    perms = tuple(permcore.PackedPerm.from_letters(p, layout) for p in op["patterns"])
    pat = avoiders.PatternSet.build(perms)
    counts = avoiders.count_avoiders_fast(pat, op["n"])
    terms = tuple(counts[sequences.FIRST_TERM_N - 1:])
    try:
        degree = sequences.growth_degree(terms)
        checked = True
    except ValueError:
        degree, checked = None, False
    filtered = checked and degree is not None
    hit = None if filtered else sequences.oeis_match(terms, db)
    anum, shift = hit if hit is not None else (None, None)
    row = sequences.MineRow(perms, terms, degree, checked, filtered, anum, shift)
    buf = io.StringIO()
    sequences.write_report([row], buf)
    return {"counts": counts, "degree": degree, "checked": checked,
            "match": list(hit) if hit is not None else None, "report": buf.getvalue()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace")
    args = ap.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(f"{plan['workload']}-{plan['seed']}-traced")
        tracer.install()
    from permscan import avoiders, cli, permcore, sequences

    setup: dict = {}
    db = None
    if plan["workload"] == "sweep":
        db = sequences.OeisDb.load(plan["oeis"]["path"])
        setup["entries"] = len(db)
        setup["classes"] = sequences.count_symmetry_classes(4, 5)
    print("ready", flush=True)
    cal = [calibrate() for _ in range(CAL_BURST)]

    records = []
    t_begin = time.perf_counter()
    if not args.setup_only:
        rounds = plan["rounds"]
        r = 0
        idx = 0
        while args.rounds is None or r < args.rounds:
            for slot, op in enumerate(rounds[r % len(rounds)]):
                rec = {"round": r, "slot": slot, "idx": idx}
                if tracer is not None:
                    tracer.op = idx
                t0 = time.perf_counter()
                try:
                    if op["kind"] == "class":
                        rec.update(run_class(op, db, avoiders, sequences, permcore))
                    else:
                        out = os.path.join(plan["workdir"], f"op{idx}.out")
                        rec["out"] = out
                        rec["rc"] = cli.main([a.replace("{out}", out) for a in op["argv"]])
                except Exception:
                    rec["error"] = traceback.format_exc(limit=3)
                rec["t0"], rec["t1"] = t0, time.perf_counter()
                records.append(rec)
                cal.append(calibrate())
                idx += 1
            r += 1
            if args.seconds is not None and time.perf_counter() - t_begin >= args.seconds:
                break

    if tracer is not None:
        tracer.write(args.trace)
    result = {"setup": setup, "ops": records, "cal": cal,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
