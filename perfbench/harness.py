"""Measurement loop of the benchmark: set-up probes, workload cycles,
output checks, metrics and provenance.  ``run.py`` is the entry point.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from sgmopt import bench, engine

from . import checks, trace, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("grid", "refine", "experiment")
# solve_ms_tail per workload: a percentile, and whether the metric is the
# mean of the solve times at or beyond it rather than the percentile itself.
# The percentile is fixed so two commits compare the same tail: the highest
# of 75/90 with at least ten solves beyond it in a 30 s run at the usual host
# speed.  On grid and refine p75 falls inside one solve kind's block of times
# (the n=6 sphere; F4).  On experiment p90 falls between the SGM trials on F1
# and on F4, and jumped between the two from run to run: its spread over
# eight seeds was 21%, against 7% for the mean beyond it.  On grid that mean
# is worse (21% against 9%), because it takes in F3, whose solve time varies
# with the seed.
TAIL = {"grid": (75, False), "refine": (75, False), "experiment": (90, True)}
SETUP_REPEATS = 5

# The shared host's speed swings by up to 1.7x for tens of seconds at a time,
# longer than a run.  So a fixed reference loop (small numpy operations and
# Python arithmetic, the mix of sgmopt's per-point overhead, but no sgmopt
# code) is timed on every usable CPU before the first cycle and after each
# one, and each cycle's times are scaled by REFERENCE_NOMINAL_S over the
# mean reference time around it.  Timing on every CPU matters: the pool's
# threads use all of them, and a loop timed on one CPU alone did not track
# their speed.  The nominal value is the loop's usual time on the 2-core Xeon
# the baseline was measured on, so scaled values read close to raw ones there.
REFERENCE_CHUNKS = 5
REFERENCE_ITERS = 400
REFERENCE_NOMINAL_S = 0.0022

SETUP_PROBE = """\
import sys
sys.path[:0] = [{src!r}, {root!r}]
import sgmopt, sgmopt.cli
from perfbench import workloads
workloads.inputs({workload!r}, {seed}, 0, {workers})
print("ready", flush=True)
"""


def setup_seconds(workload: str, seed: int, workers: int) -> float:
    """Median time from starting a fresh interpreter until it has imported
    sgmopt (CLI included) and built cycle 0's inputs."""
    code = SETUP_PROBE.format(src=str(SRC), root=str(ROOT), workload=workload,
                              seed=seed, workers=workers)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        times.append(ready - start)
    return statistics.median(times)


def reference_loop() -> float:
    """Median time of REFERENCE_CHUNKS runs of the reference loop."""
    x = np.arange(8.0)
    times = []
    for _ in range(REFERENCE_CHUNKS):
        acc = 0.0
        start = time.perf_counter()
        for i in range(REFERENCE_ITERS):
            acc += float(np.sum(x * 0.5)) + i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_seconds() -> float:
    """Mean reference-loop time over the CPUs this process may use, with the
    calling thread pinned to each in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


class Run:
    """Runs cycles of one workload and keeps what they produced.

    Per-trial timings and results come from the Recorder installed around
    the run; this class keeps what only the workload loop sees.
    """

    def __init__(self, workload: str, seed: int, workers: int, tmpdir: Path, tracer=None):
        self.workload, self.seed, self.workers = workload, seed, workers
        self.tmpdir, self.tracer = tmpdir, tracer
        self.cycles = 0
        self.cycle_spans: list = []          # (start, end) of each cycle
        self.refs: list = []                 # reference time before each cycle and after the last
        self.planned = 0
        self.problems: list = []
        self.first_digest = None
        self.dispatch_wall = 0.0
        self.aggregate_s = 0.0
        self.emit_s = 0.0
        self.bytes_written = 0

    def cycle(self):
        k = self.cycles
        if not self.refs:
            self.refs.append(reference_seconds())
        start = time.perf_counter()
        items = workloads.inputs(self.workload, self.seed, k, self.workers)
        self.planned += workloads.planned_trials(self.workload)
        if self.workload == "experiment":
            outputs = self._experiment(items)
        else:
            outputs = self._solves(items)
        if k == 0:
            self.first_digest = checks.digest(outputs)
        self.cycles += 1
        self.cycle_spans.append((start, time.perf_counter()))
        self.refs.append(reference_seconds())

    def _solves(self, tasks) -> list:
        outputs = []
        start = time.perf_counter()
        for obj, cfg in tasks:
            if self.tracer is not None:
                obj = self.tracer.wrap_objective(obj)
            try:
                outputs.append(engine.solve(obj, cfg).without_wallclock())
            except Exception as exc:  # recorded as a failed trial
                outputs.append(repr(exc))
        self.dispatch_wall += time.perf_counter() - start
        return outputs

    def _experiment(self, spec) -> list:
        start = time.perf_counter()
        try:
            report = bench.run_experiment(spec)
        except Exception as exc:  # its unrecorded trials count as failed
            self.problems.append(f"run_experiment: {exc!r}")
            return [repr(exc)]
        finally:
            self.dispatch_wall += time.perf_counter() - start
        t0 = time.perf_counter()
        aggregates = bench.compute_aggregates(report.rows)
        t1 = time.perf_counter()
        csv_path = bench.emit_csv(report, self.tmpdir / "report.csv")
        json_path = bench.emit_json(report, self.tmpdir / "report.json")
        t2 = time.perf_counter()
        self.aggregate_s += t1 - t0
        self.emit_s += t2 - t1
        written = (csv_path, csv_path.with_name("report_aggregate.csv"), json_path)
        self.bytes_written += sum(p.stat().st_size for p in written)
        if aggregates != report.aggregates:
            self.problems.append("compute_aggregates disagrees with the report")
        if bench.parse_trial_csv(csv_path) != [replace(r, sd_vector=None) for r in report.rows]:
            self.problems.append("report.csv does not read back as the report rows")
        payload = json.loads(json_path.read_text())
        if [t["best_f"] for t in payload["trials"]] != [r.best_f for r in report.rows]:
            self.problems.append("report.json does not match the report rows")
        return [checks.row_key(r) for r in report.rows]

    def factor(self, i: int) -> float:
        """Scale of cycle ``i`` from its host speed to the nominal one."""
        return REFERENCE_NOMINAL_S / (0.5 * (self.refs[i] + self.refs[i + 1]))

    def scaled_wall(self) -> float:
        return sum((end - start) * self.factor(i) for i, (start, end) in enumerate(self.cycle_spans))

    def raw_wall(self) -> float:
        return sum(end - start for start, end in self.cycle_spans)

    def cycle_of(self, t: float) -> int:
        return bisect.bisect_right([start for start, _ in self.cycle_spans], t) - 1

    def run_for(self, seconds: float):
        """Run whole cycles until ``seconds`` have passed."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.cycle()

    def run_cycles(self, n: int):
        for _ in range(n):
            self.cycle()


def assess(run: Run, trials: list) -> dict:
    """Check every recorded trial; count completed, failed and solved."""
    completed = failed = solved = evals = 0
    for tr in trials:
        obj = tr.args["obj"]
        if tr.result is None:
            failed += 1
            run.problems.append(f"{obj.name} {tr.kind} raised {tr.error}")
            continue
        completed += 1
        evals += tr.result.evaluations
        bad = checks.violations(obj, checks.trial_budget(tr.kind, tr.args), tr.result)
        if bad:
            failed += 1
            run.problems.append(f"{obj.name} {tr.kind}: {'; '.join(bad)}")
        solved += checks.solved(obj, tr.result)
    failed += run.planned - len(trials)
    return {"attempted": run.planned, "completed": completed, "failed": failed,
            "solved": solved, "evaluations": evals}


def median_and_tail(ms: list, pct: float, mean: bool) -> tuple:
    """Median of ``ms``; its ``pct`` percentile, or with ``mean`` the mean
    of the values at or beyond that percentile; and how many values are at
    or beyond it."""
    if not ms:
        return 0.0, 0.0, 0
    p50, cut = np.percentile(ms, [50, pct])
    tail = [v for v in ms if v >= cut]
    return float(p50), statistics.fmean(tail) if mean else float(cut), len(tail)


def end_to_end(run: Run, trials: list, tally: dict, setup: float) -> tuple:
    """End-to-end metrics (times and rates scaled to the nominal host
    speed), and the unscaled values for ``detail``."""
    pct, mean = TAIL[run.workload]
    done = [tr for tr in trials if tr.result is not None]
    raw_ms = [tr.seconds * 1000.0 for tr in done]
    ms = [v * run.factor(run.cycle_of(tr.start)) for v, tr in zip(raw_ms, done)]
    p50, tail, n_tail = median_and_tail(ms, pct, mean)
    raw_p50, raw_tail, _ = median_and_tail(raw_ms, pct, mean)
    wall, raw_wall = run.scaled_wall(), run.raw_wall()
    metrics = {
        "setup_s": (setup, "s"),
        "solves_per_s": (tally["completed"] / wall, "1/s"),
        "evals_per_s": (tally["evaluations"] / wall, "1/s"),
        "solve_ms_p50": (p50, "ms"),
        "solve_ms_tail": (tail, "ms"),
        "solved_frac": (tally["solved"] / tally["attempted"], "fraction"),
        "failed_frac": (tally["failed"] / tally["attempted"], "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "tail_percentile": pct, "tail_is_mean": mean,
        "solve_samples": len(ms), "tail_samples": n_tail,
        "unscaled": {"solves_per_s": tally["completed"] / raw_wall,
                     "evals_per_s": tally["evaluations"] / raw_wall,
                     "solve_ms_p50": raw_p50, "solve_ms_tail": raw_tail},
        "reference_ms": 1000.0 * statistics.median(run.refs),
    }
    return metrics, detail


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, solves: int, workers: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": git_commit(), "workload": workload, "seed": seed,
        "solves": solves, "workers": workers,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, tmpdir: Path) -> dict:
    workers = len(os.sched_getaffinity(0)) if workload == "experiment" else 1
    if not traced:
        setup = setup_seconds(workload, seed, workers)
        run = Run(workload, seed, workers, tmpdir)
        with trace.Recorder().installed() as rec:
            run.run_for(seconds)
        tally = assess(run, rec.trials)
        metrics, detail = end_to_end(run, rec.trials, tally, setup)
        runs = [run]
    else:
        plain = Run(workload, seed, workers, tmpdir)
        with trace.Recorder().installed() as rec_plain:
            plain.run_for(seconds / 2.0)
        tracer = trace.Tracer()
        run = Run(workload, seed, workers, tmpdir, tracer=tracer)
        with trace.Recorder().installed() as rec, tracer.installed():
            run.run_cycles(plain.cycles)
        tally_plain = assess(plain, rec_plain.trials)
        tally = assess(run, rec.trials)
        if plain.first_digest != run.first_digest:
            run.problems.append("tracing changed the results of cycle 0")
        metrics = trace.layer_metrics(tracer, rec.trials, run.dispatch_wall, workers)
        metrics.update({
            "bench.aggregate_s": (run.aggregate_s, "s"),
            "bench.emit_s": (run.emit_s, "s"),
            "bench.bytes_written": (run.bytes_written, "B"),
            "trace.overhead_ratio": (run.scaled_wall() / plain.scaled_wall(), "ratio"),
        })
        spans_path = OUT / f"spans-{workload}.npz"
        tracer.write(spans_path)
        detail = {"untraced_wall_s": plain.raw_wall(), "spans_kept": tracer.spans_kept(),
                  "spans_dropped": tracer.totals()["counts"]["spans_dropped"],
                  "spans_file": str(spans_path.relative_to(ROOT))}
        for key in ("attempted", "failed"):
            tally[key] += tally_plain[key]
        runs = [plain, run]
    problems = [p for r in runs for p in r.problems]
    detail.update({"cycles": run.cycles, "wall_s": run.raw_wall(), "digest_cycle0": run.first_digest,
                   "problems": problems[:20], "problem_count": len(problems)})
    return {
        "provenance": provenance(workload, seed, tally["attempted"], workers),
        "detail": detail,
        "result": {
            "correct": not problems and tally["failed"] == 0,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="sgmopt benchmark: one workload, one seed, one process")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="reports-") as tmp:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    result = record["result"]
    if args.trace == 0:
        # failed_frac is 0 at a sound commit, so the result line carries it
        # as failed/attempted rather than as a compared metric.
        failed_frac = result["metrics"].pop("failed_frac")
        record["detail"]["failed_frac"] = failed_frac["value"]
        print(f"failed_frac = {failed_frac['value']:.6g} {failed_frac['unit']}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(record["provenance"]))
    print("detail " + json.dumps(record["detail"]))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0
