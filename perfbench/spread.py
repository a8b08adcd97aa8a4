#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/spread.py --workload avoid --seeds 1-10 [--trace 0]
        [--seconds 30] [--json OUT]

Runs ``perfbench/run.py`` once per seed, one after another, from the
current directory (the root of a permscan checkout), and prints for each
metric the median, the first and third quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median.  ``perfbench/
baseline.json`` holds these figures for the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a fresh process; its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and quartile distance over median, per metric."""
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None}
    return summary


def measure(workload: str, seed_list: list[int], seconds: float, trace: int = 0) -> dict:
    runs = []
    for seed in seed_list:
        result = run_once(workload, seed, seconds, trace)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    return {"workload": workload, "trace": trace, "seconds": seconds, "runs": runs,
            "summary": summarize(runs)}


def run_seconds() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json", dest="out")
    args = ap.parse_args()
    try:
        out = measure(args.workload, args.seeds, args.seconds or run_seconds(), args.trace)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    for name, s in out["summary"].items():
        spread = f"{s['spread']:.3f}" if s["spread"] is not None else "-"
        print(f"{name:55s} {s['median']:14.6g} {s['unit']:8s} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} spread {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
