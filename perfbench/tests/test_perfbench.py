"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They take a few minutes: each workload runs in miniature, untraced and
traced, through the same command the benchmark uses.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run as bench  # noqa: E402
from checks import REPORT_HEADER, Checker, report_line  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_miniature_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} {got['value']} {m['unit']}" in lines
    if not trace:
        assert "metric fail_ratio 0.0 1" in lines
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in specs)
    work = os.path.join(BENCH, "_work")
    if trace:
        spans_path = os.path.join(work, f"{workload}-1.spans.jsonl")
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        assert {"id", "parent", "run", "op", "name", "start", "end"} <= set(spans[0])
        os.remove(spans_path)
    # a run removes its own working files; only spans of traced runs stay
    left = os.listdir(work) if os.path.exists(work) else []
    assert all(name.endswith(".spans.jsonl") for name in left)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def generate(seed):
        workdir = tmp_path / "work"
        workdir.mkdir()
        plan = inputs.make_plan(workload, seed, ROOT, str(workdir), EXPECTED)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        shutil.rmtree(workdir)
        return json.dumps(plan, sort_keys=True).encode(), files

    first = generate(7)
    assert generate(7) == first
    assert generate(8) != first


def _one_round(workload: str, tmp_path) -> tuple[dict, dict]:
    workdir = str(tmp_path)
    plan = inputs.make_plan(workload, 3, ROOT, workdir, EXPECTED)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    _, result = bench.spawn_worker(plan_path, os.path.join(workdir, "result.json"),
                                   ["--rounds", "1"], deadline=time.monotonic() + 600)
    return plan, result


def _fail_ratio(workload, plan, result, checker):
    ops, problems = bench.check_ops(plan, checker, result)
    _, notes = bench.end_to_end(workload, result, ops, problems, [1.0])
    return [n for n in notes if n.startswith("metric fail_ratio")][0], problems


@pytest.mark.parametrize("workload", ["avoid", "count"])
def test_corrupted_output_counts_as_failure(workload, tmp_path):
    plan, result = _one_round(workload, tmp_path)
    checker = Checker(EXPECTED, plan)
    line, problems = _fail_ratio(workload, plan, result, checker)
    assert line == "metric fail_ratio 0.0 1" and not any(problems)
    victim = result["ops"][0]["out"]
    with open(victim, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # one wrong number in an otherwise well-formed output
    at = max(i for i, line in enumerate(lines) if line.replace(",", "").isdigit())
    head, number = lines[at].rsplit(",", 1)
    lines[at] = f"{head},{int(number) + 1}"
    with open(victim, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    line, problems = _fail_ratio(workload, plan, result, checker)
    assert problems[0] and not any(problems[1:])
    assert line == f"metric fail_ratio {1 / len(problems)} 1"


def test_corrupted_sweep_class_counts_as_failure(tmp_path):
    plan = inputs.make_plan("sweep", 3, ROOT, str(tmp_path), EXPECTED)
    checker = Checker(EXPECTED, plan)
    op = next(op for op in plan["rounds"][0] if op["kind"] == "class")
    entry = EXPECTED["sweep"][op["check"]["index"]]
    terms = entry["counts"][4:]
    filtered = entry["checked"] and entry["degree"] is not None
    match = None if filtered else checker.reference.match(terms)
    rec = {"counts": list(entry["counts"]), "degree": entry["degree"],
           "checked": entry["checked"], "match": match,
           "report": REPORT_HEADER + "\n" + report_line(
               entry["patterns"], terms, entry["degree"], entry["checked"], match)}
    assert checker.problem(op, rec) is None
    assert checker.problem(op, {**rec, "match": [1, 0]}) is not None
    rec["counts"][-1] += 1
    assert checker.problem(op, rec) == "counts differ from the recorded ones"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("avoid", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
