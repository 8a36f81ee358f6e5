"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from sgmopt import engine, subdivision, testbed  # noqa: E402
from perfbench import checks, trace, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace_flag", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace_flag):
    proc = bench_run("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace_flag)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace_flag == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def f2_run():
    obj = testbed.make_objective("F2")
    cfg = engine.default_config(obj, seed=3)
    return obj, cfg, engine.solve(obj, cfg)


def test_sound_result_has_no_violations(f2_run):
    obj, cfg, result = f2_run
    assert checks.violations(obj, cfg.eval_budget, result) == []
    assert checks.solved(obj, result)


@pytest.mark.parametrize("corrupt, message", [
    (lambda r, obj: replace(r, best_point=tuple(obj.domain.hi + 1.0)), "outside the box"),
    (lambda r, obj: replace(r, evaluations=10**9), "over budget"),
    (lambda r, obj: replace(r, best_value=r.best_value + 1.0), "!= f(best_point)"),
    (lambda r, obj: replace(r, best_value=float("nan")), "not finite"),
    (lambda r, obj: replace(r, trace=r.trace + [(0, r.trace[-1][1] + 1.0, r.best_point)]),
     "not monotone"),
])
def test_corrupted_result_is_flagged(f2_run, corrupt, message):
    obj, cfg, result = f2_run
    problems = checks.violations(obj, cfg.eval_budget, corrupt(result, obj))
    assert any(message in p for p in problems), problems


def test_sa_budget_matches_a_default_run():
    from sgmopt import baselines
    from sgmopt.core import RngStream
    result = baselines.simulated_annealing(testbed.make_objective("F1"), None, RngStream(1))
    assert result.evaluations == workloads.sa_budget() == 8101


def test_tracer_links_spans_and_restores_attributes(tmp_path):
    original = (engine.run_phase1, subdivision.contains)
    obj = testbed.make_objective("F2")
    tracer = trace.Tracer()
    with trace.Recorder().installed() as rec, tracer.installed():
        engine.solve(tracer.wrap_objective(obj), engine.default_config(obj, seed=1))
    assert (engine.run_phase1, subdivision.contains) == original
    assert len(rec.trials) == 1 and rec.trials[0].result is not None

    path = tmp_path / "spans.npz"
    tracer.write(path)
    spans = np.load(path)
    names = list(spans["names"])
    name_of = {int(i): names[int(n)] for i, n in zip(spans["id"], spans["name"])}
    solve = spans["id"][spans["name"] == names.index("engine.solve")]
    phase1 = spans["name"] == names.index("subdivision.phase1")
    assert len(solve) == 1 and phase1.sum() == 1
    assert spans["parent"][phase1][0] == solve[0]
    assert set(spans["solve"]) == {0}
    assert all(name_of[int(p)] == "core.value"
               for p, n in zip(spans["parent"], spans["name"]) if names[int(n)] == "testbed.fn")

    totals = tracer.totals()
    i = tracer.NAMES.index("engine.solve")
    assert totals["calls"][i] == 1
    assert 0.0 <= totals["self"][i] <= totals["total"][i]
    metrics = trace.layer_metrics(tracer, rec.trials, rec.trials[0].seconds, 1)
    assert metrics["testbed.fn_calls"][0] == rec.trials[0].result.evaluations


def test_reference_timing_restores_cpu_affinity():
    from perfbench import harness
    before = os.sched_getaffinity(0)
    assert harness.reference_seconds() > 0.0
    assert os.sched_getaffinity(0) == before


def test_tail_is_the_percentile_or_the_mean_beyond_it():
    from perfbench import harness
    # p75 of these six values is 8.5, and 10 and 20 are beyond it.
    ms = [4, 1, 20, 3, 10, 2]
    assert harness.median_and_tail(ms, 75, False) == (3.5, 8.5, 2)
    assert harness.median_and_tail(ms, 75, True) == (3.5, 15.0, 2)
    assert harness.median_and_tail([], 90, True) == (0.0, 0.0, 0)
