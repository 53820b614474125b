"""Tests of the benchmark itself: python3 -m pytest -q perfbench

Each workload runs at its minimum size with no failed operation, each
output check rejects a deliberately wrong answer, and the command line
keeps the result contract of BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from loewner_lab import PIController, SynthesisResult, eval_weighted_performance  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


def fail_ratio(result) -> float:
    problems = result["problems"]
    return sum(bool(p) for p in problems) / len(problems)


@pytest.fixture(scope="module")
def design(workdir):
    wl = workloads.Design(seed=5, workdir=workdir)
    return wl, wl.run(wl.make_input(0), tracing.NULL)


@pytest.mark.parametrize("name", ["design", "pi_tune", "delay_sweep"])
def test_workload_at_minimum_size_has_no_failures(name, workdir):
    wl = workloads.WORKLOADS[name](seed=3, workdir=workdir)
    result = run.measure(wl, seconds=0)
    assert len(result["latencies"]) == wl.min_ops
    assert fail_ratio(result) == 0, result["problems"]


def test_design_checks_reject_wrong_answers(design):
    wl, out = design
    p = wl.make_input(0)
    assert wl.check(p, out) == []

    assert wl.check(p, replace(out, residual=1e-3))

    m1 = out.sweeps[0]
    rows = list(m1.rows)
    rows[5] = replace(rows[5], error=10 * rows[4].error + 1.0)
    assert wl.check(p, replace(out, sweeps=(replace(m1, rows=tuple(rows)), out.sweeps[1])))

    m2 = out.sweeps[1]
    wrong = replace(m2.rows[0], realization=PIController(0.2, 0.0252).realization())
    assert wl.check(p, replace(out, sweeps=(m1, replace(m2, rows=(wrong,) + m2.rows[1:]))))


def test_pi_tune_checks_reject_wrong_answers(workdir):
    wl = workloads.PiTune(seed=3, workdir=workdir)
    inp = wl.make_input(0)
    k, start = inp
    score = eval_weighted_performance(wl.plants[k], start, wl.weights, wl.grid)
    right = SynthesisResult(controller=start, gamma=score, stable=True,
                            stability_checked=True, feasible_candidates=22)
    assert wl.check(inp, right) == []
    assert wl.check(inp, replace(right, stable=False))
    assert wl.check(inp, replace(right, stability_checked=False))
    assert wl.check(inp, replace(right, gamma=score * 1.001))
    assert wl.check(inp, replace(right, gamma=math.inf))


def test_delay_oracle_matches_the_crossover_margin():
    p = workloads.PlantParameters()
    margin = workloads.delay_margin(p, 0.191, 0.0252)
    assert margin == pytest.approx(5.6324, abs=1e-3)


def test_shifted_oracle_margin_fails_every_delay_op(workdir):
    wl = workloads.DelaySweep(seed=3, workdir=workdir)
    wl.margin -= 1.5
    assert fail_ratio(run.measure(wl, seconds=0)) == 1.0


def test_traced_counts_repeat_for_a_seed(workdir):
    runs = [run.measure_traced(workloads.Design(seed=7, workdir=workdir), seconds=0)
            for _ in range(2)]
    first, second = (r["per_layer"] for r in runs)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for name, (value, unit) in first.items():
        if unit in ("count", "ratio"):
            assert second[name] == (value, unit), name
    assert first["loewner_core.pencil_n"][0] == workloads.Design.min_ops
    assert first["lddc.rows"][0] == 40 * workloads.Design.min_ops
    assert first["mfsa.rows"][0] == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    spans = [
        (0, None, 0, "pi_synth.optimize", 0.0, 10.0, 0, None),
        (1, 0, 0, "descriptor_ops.eval", 1.0, 4.0, 200, 1),
        (2, 0, 0, "descriptor_ops.eval", 2.0, 5.0, 200, 1),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(6.0)


def command(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_the_declared_metrics(trace, section):
    proc = command("--workload", "design", "--seed", "2", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
