"""Alternating benchmark pairs: a base revision against this working tree.

    python3 tools/bench_pairs.py --base REV --workload W --pairs N --seconds S --seed K [--out FILE]

Run from anywhere; the head is the working tree of the checkout that holds
this file.  Both sides run from temporary copies, which are deleted
afterwards, so they start alike and neither writes into the checkout: the
base is exported with ``git archive REV | tar -x``, and the head copies the
files ``git ls-files --cached --others --exclude-standard`` lists, as they
are on disk (tracked files deleted from the working tree are left out).  No
worktree is made and nothing in ``.git`` changes.  Pair i runs
``perfbench/run.py --workload W --seed K+i --seconds S --trace 0`` once from
each tree, the base first in even pairs and the head first in odd ones, so
that drift over the session favours neither side.

For each end-to-end metric in the head's BENCHMARK.json it prints each
side's median and quartiles, the median per-pair ratio head/base beside the
metric's bound, the pairs each side won in the metric's ``better``
direction (ties count for neither), and the exact two-sided sign-test
p-value of those wins.  It also prints each side's ``failed_frac`` and
failed operations, and whether ``digest_cycle0`` is equal for each seed.  It
flags every run whose last line is no result or reads ``"correct": false``,
and warns when ``perfbench/`` or BENCHMARK.json differ between the trees.
It writes a JSON record only with ``--out``.  The exit status is 1 when a
run was flagged.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``,
    ties left out: the chance of a split at least this uneven when either
    side is equally likely to win each pair."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(max(wins, losses), n + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(pairs, better: str, bound: float) -> dict:
    """Statistics of one metric over ``pairs`` of (base, head) readings; a
    pair with a missing side counts only toward that side's quartiles."""
    out = {"better": better, "bound": bound}
    for i, side in enumerate(SIDES):
        values = [p[i] for p in pairs if p[i] is not None]
        out[side] = dict(zip(("q1", "median", "q3"), quartiles(values))) if values else None
    both = [(b, h) for b, h in pairs if b is not None and h is not None]
    sign = 1 if better == "higher" else -1
    out["wins"] = {"head": sum(sign * (h - b) > 0 for b, h in both),
                   "base": sum(sign * (h - b) < 0 for b, h in both), "pairs": len(both)}
    out["p"] = sign_test_p(out["wins"]["head"], out["wins"]["base"])
    ratios = [h / b for b, h in both if b != 0]
    out["ratio"] = statistics.median(ratios) if ratios else None
    # How much worse the head reads than the base, as a share of the base.
    out["worse_by"] = None if out["ratio"] is None else sign * (1.0 - out["ratio"])
    out["outside_bound"] = out["worse_by"] is not None and out["worse_by"] > bound
    return out


def parse_run(stdout: str, returncode: int) -> dict:
    """The result and ``detail`` records of one run's output, and a flag
    saying why the run is not a sound result, or None."""
    def record(line):
        try:
            return json.loads(line)
        except ValueError:
            return None

    lines = stdout.strip().splitlines() or [""]
    detail = next((record(line[len("detail "):]) for line in reversed(lines)
                   if line.startswith("detail ")), None) or {}
    result = record(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        result, flag = None, f"no result on the last line (exit status {returncode})"
    elif result.get("correct") is not True:
        flag = '"correct": false'
    else:
        flag = None
    return {"result": result, "detail": detail, "flag": flag}


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=3 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"result": None, "detail": {}, "flag": "timed out"}
    return parse_run(proc.stdout, proc.returncode)


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest`` and return its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def copy_worktree(root: Path, dest: Path) -> None:
    """Copy into ``dest`` the files of the git working tree ``root`` that a
    commit after ``git add -A`` would hold, with their bytes on disk."""
    names = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], capture_output=True, check=True).stdout
    for name in map(os.fsdecode, filter(None, names.split(b"\0"))):
        if (root / name).is_file():    # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def bench_files(tree: Path) -> dict:
    files = {"BENCHMARK.json": (tree / "BENCHMARK.json").read_bytes()}
    for path in sorted((tree / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            files[path.relative_to(tree).as_posix()] = path.read_bytes()
    return files


def summarise(runs, end_to_end) -> dict:
    """Per-metric statistics, failures and digests of ``runs``, a list of
    {"seed", "base", "head"} entries of parsed runs."""
    def reading(run, name):
        m = (run["result"] or {}).get("metrics", {}).get(name)
        return None if m is None else m["value"]

    metrics = {m["name"]: compare([(reading(r["base"], m["name"]), reading(r["head"], m["name"]))
                                   for r in runs], m["better"], m["bound"])
               for m in end_to_end}
    failures = {}
    for side in SIDES:
        fracs = [r[side]["detail"]["failed_frac"] for r in runs
                 if "failed_frac" in r[side]["detail"]]
        results = [r[side]["result"] for r in runs if r[side]["result"]]
        failures[side] = {"failed_frac_median": statistics.median(fracs) if fracs else None,
                          "failed_frac_max": max(fracs) if fracs else None,
                          "failed": sum(x["failed"] for x in results),
                          "attempted": sum(x["attempted"] for x in results)}
    digests = {}
    for r in runs:
        base, head = (r[side]["detail"].get("digest_cycle0") for side in SIDES)
        digests[r["seed"]] = base is not None and base == head
    flags = [f"seed {r['seed']} {side}: {r[side]['flag']}"
             for r in runs for side in SIDES if r[side]["flag"]]
    return {"metrics": metrics, "failures": failures, "digest_equal": digests, "flags": flags}


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.0f}" if abs(x) >= 1e4 else f"{x:.4g}"


def report(summary: dict) -> str:
    lines = [f"{'metric':<14} {'base median [q1, q3]':<30} {'head median [q1, q3]':<30} "
             f"{'ratio':>7} {'bound':>6} {'head wins':>10} {'base wins':>10} {'p':>7}"]
    for name, m in summary["metrics"].items():
        side = {s: "-" if m[s] is None else
                f"{_fmt(m[s]['median'])} [{_fmt(m[s]['q1'])}, {_fmt(m[s]['q3'])}]"
                for s in SIDES}
        w = m["wins"]
        lines.append(f"{name:<14} {side['base']:<30} {side['head']:<30} {_fmt(m['ratio']):>7} "
                     f"{m['bound']:>6.3g} {w['head']:>4} of {w['pairs']:<3} "
                     f"{w['base']:>4} of {w['pairs']:<3} {m['p']:>7.4f}"
                     + ("  OUTSIDE BOUND" if m["outside_bound"] else ""))
    for side, f in summary["failures"].items():
        lines.append(f"{side}: failed_frac median {_fmt(f['failed_frac_median'])}, "
                     f"max {_fmt(f['failed_frac_max'])}; failed {f['failed']} of "
                     f"{f['attempted']} operations")
    differ = [seed for seed, equal in summary["digest_equal"].items() if not equal]
    lines.append("digest_cycle0: equal on every seed" if not differ else
                 f"digest_cycle0: differs on seeds {', '.join(map(str, differ))}")
    lines += [f"FLAGGED {flag}" for flag in summary["flags"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--out", help="also write the runs and statistics here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error("--workload must name a workload of BENCHMARK.json")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        try:
            commit = export(args.base, trees["base"])
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot export {args.base!r}: {exc.stderr or exc}")
        copy_worktree(ROOT, trees["head"])
        warnings = []
        if bench_files(trees["base"]) != bench_files(trees["head"]):
            warnings.append(f"perfbench/ or BENCHMARK.json differ between {args.base} "
                            "and the working tree")
        for warning in warnings:
            print(f"WARNING {warning}", flush=True)
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            entry = {"seed": seed, "first": order[0]}
            for side in order:
                entry[side] = run_side(trees[side], args.workload, seed, args.seconds)
            runs.append(entry)
            print(f"pair {i + 1}/{args.pairs} seed {seed} done", flush=True)
    summary = summarise(runs, benchmark["end_to_end"])
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, base {args.base} ({commit[:12]}) "
          f"against the working tree")
    print(report(summary))
    for warning in warnings:
        print(f"WARNING {warning}")
    if args.out:
        record = {"base": args.base, "base_commit": commit, "workload": args.workload,
                  "pairs": args.pairs, "seconds": args.seconds, "first_seed": args.seed,
                  "warnings": warnings, **summary, "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if summary["flags"] else 0


if __name__ == "__main__":
    sys.exit(main())
