#!/usr/bin/env python3
"""Record the benchmark's figures for the current commit in
``perfbench/baseline.json``, with the machine they were measured on.

    python3 perfbench/baseline.py [--seeds 1-10]

Run it from the root of a permscan checkout on an otherwise idle machine.
For each workload it runs the end-to-end benchmark once per seed and keeps
every run and the medians and quartiles (``spread.py``), then one traced
run (seed 1) for the per-layer figures.  It also times the rows of
ROADMAP.md's measured-baseline table that are cheap enough to repeat, and
says for each row whether a workload covers it.  Takes about 25 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spread  # noqa: E402

WORKLOADS = ("avoid", "count", "sweep")
ROW_REPEATS = 3

# ROADMAP.md's measured-baseline rows: (row, seconds quoted there, argv or
# None when too costly to repeat here, which workload covers the row).
ROADMAP_ROWS = [
    ("permscan avoid --patterns 231 --max-n 15", 1.8,
     ["avoid", "--patterns", "231", "--max-n", "15"],
     "not covered: avoid draws sets of about 0.45 s per op; 231 is a Catalan class"),
    ("permscan avoid --patterns 231 --max-n 16", 120.0, None,
     "not run (about 120 s and 2 GB); avoid's wide16 ops take the same WIDE path"),
    ("permscan count --patterns 123 --max-n 10 --engine standard", 1.1,
     ["count", "--patterns", "123", "--max-n", "10", "--engine", "standard"],
     "covered: 123 is in count's k3 menu, drawn at n=10 with standard"),
    ("permscan count --patterns 123 --max-n 10 --engine lowmem", 1.7,
     ["count", "--patterns", "123", "--max-n", "10", "--engine", "lowmem"],
     "covered: 123 is in count's k3 menu, drawn at n=10 with lowmem"),
    ("permscan count --patterns 123 --max-n 10 --engine auto", 55.0, None,
     "not run (about 55 s); count runs auto (count_single_fast) at n=8"),
    ("oeis_match miss against a synthetic 370k-entry db", 9.0, None,
     "scaled: sweep's db has a tenth of the entries; see sweep's "
     "sequences.oeis_match.miss_p50_s"),
]


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def time_row(argv: list[str]) -> dict:
    """Median wall time and the largest peak RSS of ROW_REPEATS runs, each
    in a fresh process."""
    env = dict(os.environ, PYTHONPATH="src")
    walls, rss = [], []
    for _ in range(ROW_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "permscan.cli", *argv, "--out",
                                 os.devnull], env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        walls.append(time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"permscan {' '.join(argv)} exited {proc.returncode}")
        rss.append(usage.ru_maxrss / 1024)
    return {"wall_s": statistics.median(walls), "walls_s": walls, "peak_rss_mb": max(rss)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=spread.seeds, default=spread.seeds("1-10"))
    args = ap.parse_args()
    seconds = spread.run_seconds()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=False).stdout.strip() or "unknown"
    out = {"commit": commit, "machine": machine(), "run_seconds": seconds,
           "seeds": [args.seeds[0], args.seeds[-1]], "workloads": {}, "roadmap_rows": []}
    for workload in WORKLOADS:
        e2e = spread.measure(workload, args.seeds, seconds)
        traced = spread.run_once(workload, args.seeds[0], seconds, trace=1)
        out["workloads"][workload] = {
            "why": why[workload],
            "runs": [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
                      **{k: v["value"] for k, v in r["metrics"].items()}}
                     for r in e2e["runs"]],
            "end_to_end": e2e["summary"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    for row, quoted, argv, covered in ROADMAP_ROWS:
        entry = {"row": row, "roadmap_s": quoted, "workload": covered}
        if argv is not None:
            entry.update(time_row(argv))
            entry["ratio_to_roadmap"] = entry["wall_s"] / quoted
        out["roadmap_rows"].append(entry)
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
