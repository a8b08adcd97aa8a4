#!/usr/bin/env python3
"""permscan's benchmark: one seeded workload, timed end to end or traced
layer by layer.

    python3 perfbench/run.py --workload {avoid,count,sweep} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a permscan checkout (the directory holding
``src/permscan``); it imports the program from there and writes only under
``perfbench/_work``.  It removes what it wrote there, except the spans of
a traced run (``perfbench/_work/<workload>-<seed>.spans.jsonl``).  The load
comes from one process running one op at a time (a closed loop with a
single client).

``--trace 0`` measures the end-to-end metrics: a fresh worker process does
the set-up and then runs whole rounds of seeded ops for S seconds; set-up
time is the median over several fresh processes.  Every time is reported at
a reference host speed: each worker also times a fixed pure-Python loop
(``worker.calibrate``) after its set-up and after every op, and a time
measured while that loop took c seconds on average is scaled by
CAL_REF_S / c.  On a host shared with other tenants this removes most of
the run-to-run spread, which there comes from the host, not the program.

``--trace 1`` runs a fixed number of rounds twice in fresh workers,
untraced and then traced, and reports per-layer metrics from the spans
(see ``tracing.py``) and the tracing overhead.  Every op's output is
checked (``checks.py``).

Each metric is printed as ``metric <name> <value> <unit>``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 means the run completed, whether or not every op
passed its check; anything else means no result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import Checker  # noqa: E402
from worker import CAL_BURST  # noqa: E402

SETUP_SAMPLES = {"avoid": 9, "count": 9, "sweep": 3}
# op_tail_s: a percentile that leaves at least ten ops beyond it in every
# run of the seed commit at the default run length.  It is fixed per
# workload so that a faster program, which runs more ops, is still compared
# at the same percentile.
TAIL_PERCENTILE = {"avoid": 80, "count": 75, "sweep": 95}
TRACE_ROUNDS = {"avoid": 4, "count": 2, "sweep": 4}
WORKER_TIMEOUT_S = 170
# Seconds the calibration loop takes at the reference host speed: about its
# mean on the machine that recorded baseline.json.
CAL_REF_S = 0.003

END_TO_END_UNITS = {
    "perms_per_s": "perm/s",
    "classes_per_s": "class/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def spawn_worker(plan_path: str, result_path: str, extra: list[str],
                 deadline: float) -> tuple[float, dict]:
    """Start a worker, return (seconds from spawn to its ``ready`` line,
    its result).  The worker is killed if it outlives the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with code {rc}")
    with open(result_path, encoding="utf-8") as fh:
        return ready_s, json.load(fh)


def host_scale(cal: list[float]) -> float:
    """Factor that turns times measured during the calibration samples
    ``cal`` into times at the reference host speed."""
    return CAL_REF_S / statistics.fmean(cal)


def busy(result: dict) -> float:
    return sum(rec["t1"] - rec["t0"] for rec in result["ops"])


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def check_ops(plan: dict, checker: Checker, result: dict) -> tuple[list, list]:
    """(ops, problems) for every op the worker ran; a problem is None for
    an op that passed."""
    rounds = plan["rounds"]
    ops, problems = [], []
    setup_problem = checker.setup_problem(result["setup"])
    for rec in result["ops"]:
        op = rounds[rec["round"] % len(rounds)][rec["slot"]]
        ops.append(op)
        problems.append(setup_problem or checker.problem(op, rec))
    return ops, problems


def end_to_end(workload: str, result: dict, ops: list, problems: list,
               setup_samples: list[float]) -> tuple[dict, list[str]]:
    scale = host_scale(result["cal"])
    durations = [(rec["t1"] - rec["t0"]) * scale for rec in result["ops"]]
    total = sum(durations)
    passed = [op for op, bad in zip(ops, problems) if bad is None]
    p = TAIL_PERCENTILE[workload]
    beyond = sum(1 for d in durations if d > percentile(durations, p))
    values = {
        "perms_per_s": sum(op["perms"] for op in passed) / total,
        "classes_per_s": sum(op["classes"] for op in passed) / total,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": percentile(durations, p),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": statistics.median(setup_samples),
    }
    notes = [
        f"info host_scale {scale:.4f} calibration_mean_s={CAL_REF_S / scale:.6f} "
        f"samples={len(result['cal'])} unscaled_busy_s={total / scale:.3f}",
        f"info op_tail_s percentile=p{p} ops={len(durations)} beyond={beyond}",
        f"info setup_s samples={len(setup_samples)} "
        + " ".join(f"{s:.4f}" for s in setup_samples),
        f"metric fail_ratio {sum(1 for b in problems if b) / len(problems)} 1",
    ]
    return values, notes


def layer_metrics(spans: list[dict], overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``{name: (value, unit)}``, from one traced run."""
    self_s = tracing.self_times(spans)
    by_name: dict[str, list[tuple[dict, float]]] = {}
    for span, own in zip(spans, self_s):
        by_name.setdefault(span["name"], []).append((span, own))

    def calls(name):
        return len(by_name.get(name, []))

    def own(name, pick=lambda span: True):
        return sum(t for span, t in by_name.get(name, []) if pick(span))

    def attr(name, key, combine=sum, pick=lambda span: True):
        vals = [span.get("attrs", {}).get(key, 0) for span, _ in by_name.get(name, [])
                if pick(span)]
        return combine(vals) if vals else 0

    def ratio(a, b):
        return a / b if b else 0.0

    def wide(span):
        return span.get("attrs", {}).get("wide", False)

    fast = "avoiders.count_avoiders_fast"
    match = "sequences.oeis_match"
    misses = [span["end"] - span["start"] for span, _ in by_name.get(match, [])
              if not span.get("attrs", {}).get("hit", False)]
    wide_perms = attr(fast, "perms", pick=wide)
    wide_s = own(fast, wide)
    out = {
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (own("cli.main"), "s"),
        "cli.out_bytes": (attr("cli.main", "out_bytes"), "B"),
        f"{fast}.calls": (calls(fast), "count"),
        f"{fast}.nibble_s": (own(fast, lambda span: not wide(span)), "s"),
        f"{fast}.wide_s": (wide_s, "s"),
        f"{fast}.perms": (attr(fast, "perms"), "perm"),
        f"{fast}.wide_perms_per_s": (ratio(wide_perms, wide_s), "perm/s"),
        "avoiders.enumerate_avoiders_fast.s": (own("avoiders.enumerate_avoiders_fast"), "s"),
        "avoiders.enumerate_avoiders_fast.records":
            (attr("avoiders.enumerate_avoiders_fast", "records"), "perm"),
        "avoiders.PatternSet.build.calls": (calls("avoiders.PatternSet.build"), "count"),
        "avoiders.PatternSet.build.s": (own("avoiders.PatternSet.build"), "s"),
    }
    for name, extra in (("counting.count_all", ()),
                        ("counting.count_all_lowmem", ("max_live_profile_rows",)),
                        ("counting.count_single_fast", ("profile_entries",)),
                        ("vincular.covincular_count_all", ("profile_entries",))):
        out[f"{name}.s"] = (own(name), "s")
        out[f"{name}.hosts"] = (attr(name, "hosts"), "perm")
        for key in extra:
            combine = max if key.startswith("max_") else sum
            out[f"{name}.{key}"] = (attr(name, key, combine), "count")
    hits = attr(match, "hit")
    out.update({
        "sequences.OeisDb.load.s": (own("sequences.OeisDb.load"), "s"),
        "sequences.OeisDb.load.entries": (attr("sequences.OeisDb.load", "entries", max), "count"),
        "sequences.count_symmetry_classes.s": (own("sequences.count_symmetry_classes"), "s"),
        "sequences.growth_degree.calls": (calls("sequences.growth_degree"), "count"),
        "sequences.growth_degree.s": (own("sequences.growth_degree"), "s"),
        "sequences.growth_degree.filtered": (attr("sequences.growth_degree", "filtered"),
                                             "count"),
        f"{match}.calls": (calls(match), "count"),
        f"{match}.s": (own(match), "s"),
        f"{match}.hits": (hits, "count"),
        f"{match}.hit_ratio": (ratio(hits, calls(match)), "1"),
        f"{match}.miss_p50_s": (statistics.median(misses) if misses else 0.0, "s"),
        "trace.overhead_ratio": (overhead, "1"),
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One benchmark run; returns the result object printed last."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = inputs.make_plan(workload, seed, root, workdir, expected)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        checker = Checker(expected, plan)
        result_path = os.path.join(workdir, "result.json")
        lines = []
        if not trace:
            setup_samples = []
            for _ in range(SETUP_SAMPLES[workload] - 1):
                ready_s, setup = spawn_worker(plan_path, result_path, ["--setup-only"],
                                              deadline)
                setup_samples.append(ready_s * host_scale(setup["cal"]))
            ready_s, result = spawn_worker(plan_path, result_path,
                                           ["--seconds", str(seconds)], deadline)
            setup_samples.append(ready_s * host_scale(result["cal"][:CAL_BURST]))
            ops, problems = check_ops(plan, checker, result)
            values, lines = end_to_end(workload, result, ops, problems, setup_samples)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        else:
            _, plain = spawn_worker(plan_path, result_path,
                                    ["--rounds", str(TRACE_ROUNDS[workload]),
                                     "--seconds", str(seconds / 2)], deadline)
            # both workers write the same op files: check each run's before the next
            _, problems = check_ops(plan, checker, plain)
            rounds_done = plain["ops"][-1]["round"] + 1
            spans_path = os.path.join(os.path.dirname(workdir),
                                      f"{workload}-{seed}.spans.jsonl")
            _, traced = spawn_worker(plan_path, result_path,
                                     ["--rounds", str(rounds_done), "--trace", spans_path],
                                     deadline)
            problems += check_ops(plan, checker, traced)[1]
            # the tracer costs less than two worker processes differ by (a
            # few percent), so this can come out below zero
            overhead = (busy(traced) * host_scale(traced["cal"])
                        / (busy(plain) * host_scale(plain["cal"])) - 1)
            metrics = layer_metrics(tracing.read_spans(spans_path), overhead)
            lines = [f"info traced rounds={rounds_done} spans={os.path.relpath(spans_path)}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    failed = sum(1 for bad in problems if bad)
    for bad in sorted({b for b in problems if b})[:5]:
        lines.append(f"failure {bad}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value} {unit}")
    return {
        "lines": lines,
        "result": {"correct": failed == 0, "attempted": len(problems), "failed": failed,
                   "metrics": {name: {"value": value, "unit": unit}
                               for name, (value, unit) in metrics.items()}},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "permscan", "__init__.py")):
        print("perfbench: no src/permscan in the current directory; run from the root "
              "of a permscan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
