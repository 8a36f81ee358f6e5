"""Record the benchmark and the tier-1 suite of this checkout in one file.

    python3 tools/bench_record.py --label LABEL

Run from anywhere; it works on the checkout that holds this file.  For each
workload in BENCHMARK.json it runs ``perfbench/run.py`` at seed 1 for 30 s,
untraced and traced, each in its own process, and reads the result records
those runs leave in ``.perfbench_out/``.  It then times the tier-1 suite once
and writes ``BENCH_<label>.json`` at the repository root with, per workload,
the end-to-end and per-layer metrics, ``digest_cycle0`` and the host-speed
reference time, plus the host's provenance and the tier-1 wall time and
counts.  It writes nothing else, and only when it is run.

Some metrics read the harness as much as the program; each carries a
caveat next to its value that says what else moves it.
"""

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 30
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"

# (workload or None for every workload, metric) -> what else the reading
# depends on.
CAVEATS = {
    (None, "setup_s"): (
        "median of 5 fresh interpreters' import, unscaled by the reference loop, so it "
        "follows the host's load: one commit read block medians of 0.161 and 0.231 s"),
    (None, "peak_rss_mb"): (
        "perfbench's Recorder keeps every trial until the run ends, so a faster program "
        "keeps more trials and reads more memory"),
    ("experiment", "solve_ms_tail"): (
        "mean of the trials beyond p90: a speed-up of one algorithm can change which "
        "trials those are, and the thread pool's lock contention lengthens every trial"),
    ("experiment", "solved_frac"): (
        "taken over however many trials fit in the run, so it moves with speed as well "
        "as with results"),
}


def run_workload(workload: str, traced: int) -> dict:
    """Run one perfbench workload in its own process and return its record."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(traced)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / ".perfbench_out" / f"result-{workload}-seed{SEED}-trace{traced}.json"
    return json.loads(path.read_text())


def run_tier1() -> dict:
    """Wall time and pass/fail counts of one run of the tier-1 suite."""
    t0 = time.perf_counter()
    proc = subprocess.run(["bash", "-c", TIER1], cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", last)}
    return {"command": TIER1, "wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0),
            "exit_status": proc.returncode}


def with_caveats(workload: str, metrics: dict) -> dict:
    out = {}
    for name, metric in metrics.items():
        caveat = CAVEATS.get((workload, name)) or CAVEATS.get((None, name))
        out[name] = dict(metric, caveat=caveat) if caveat else metric
    return out


def merge(label: str, records: dict, tier1: dict, dirty: list) -> dict:
    """The BENCH file's content from ``records[workload][traced]``, the
    perfbench result records, and the tier-1 run."""
    first = next(iter(records.values()))[0]["provenance"]
    provenance = {k: first[k] for k in ("cpu_model", "nproc", "python", "numpy", "git_commit")}
    workloads = {}
    for workload, (plain, traced) in records.items():
        workloads[workload] = {
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "attempted": plain["result"]["attempted"],
            "failed": plain["result"]["failed"],
            "end_to_end": with_caveats(workload, plain["result"]["metrics"]),
            "per_layer": traced["result"]["metrics"],
            "digest_cycle0": plain["detail"]["digest_cycle0"],
            "reference_ms": plain["detail"]["reference_ms"],
        }
    return {
        "label": label,
        "command": f"perfbench/run.py --seed {SEED} --seconds {SECONDS} --trace 0|1",
        "provenance": dict(provenance, uncommitted_paths=dirty),
        "tier1": tier1,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    records = {w: (run_workload(w, 0), run_workload(w, 1)) for w in names}
    tier1 = run_tier1()
    path = ROOT / f"BENCH_{args.label}.json"
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    dirty = sorted({line[3:] for line in status.splitlines()} - {path.name})
    path.write_text(json.dumps(merge(args.label, records, tier1, dirty), indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
