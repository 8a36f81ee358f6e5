import importlib.util
import json
import subprocess
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(correct=True, **values):
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}})


def run_output(digest="d0", failed_frac=0.0, correct=True, **values):
    detail = json.dumps({"digest_cycle0": digest, "failed_frac": failed_frac})
    return f"solves_per_s = 1 1/s\ndetail {detail}\n{result_line(correct, **values)}\n"


@pytest.mark.parametrize("wins,losses,p", [
    (9, 1, 0.021484375), (1, 9, 22 / 1024), (10, 0, 2 / 1024), (5, 5, 1.0), (0, 0, 1.0),
    (3, 0, 0.25), (2, 1, 1.0),
])
def test_sign_test_is_exact_and_two_sided(wins, losses, p):
    assert bench_pairs.sign_test_p(wins, losses) == pytest.approx(p, rel=1e-12)


def test_compare_counts_wins_in_the_better_direction():
    # lower is better: the head wins pairs 1 and 3, pair 2 ties, pair 4 has no base.
    pairs = [(1.0, 0.9), (1.0, 1.0), (2.0, 1.0), (None, 1.0)]
    out = bench_pairs.compare(pairs, "lower", 0.25)
    assert out["wins"] == {"head": 2, "base": 0, "pairs": 3}
    assert out["base"] == {"q1": 1.0, "median": 1.0, "q3": 1.5}
    assert out["head"] == {"q1": 0.975, "median": 1.0, "q3": 1.0}
    assert out["ratio"] == 0.9 and out["p"] == 0.5
    assert out["worse_by"] == pytest.approx(-0.1) and not out["outside_bound"]
    # higher is better: a head at 70% of the base is 30% worse, outside 0.25.
    out = bench_pairs.compare([(10.0, 7.0), (20.0, 14.0)], "higher", 0.25)
    assert out["wins"] == {"head": 0, "base": 2, "pairs": 2}
    assert out["ratio"] == pytest.approx(0.7) and out["outside_bound"]
    assert bench_pairs.compare([(1.0, None)], "lower", 0.1)["ratio"] is None


def test_parse_run_flags_missing_and_incorrect_results():
    ok = bench_pairs.parse_run(run_output(digest="abc", setup_s=0.2), 0)
    assert ok["flag"] is None and ok["detail"]["digest_cycle0"] == "abc"
    assert ok["result"]["metrics"]["setup_s"]["value"] == 0.2
    bad = bench_pairs.parse_run(f"detail {{}}\n{result_line(correct=False, setup_s=0.2)}", 0)
    assert bad["flag"] == '"correct": false' and bad["result"] is not None
    for stdout in ("", "Traceback (most recent call last):\n", "detail {\n{\"correct\": true}"):
        none = bench_pairs.parse_run(stdout, 1)
        assert none["result"] is None and none["flag"].startswith("no result")


def test_summarise_reads_failures_and_digests_per_seed():
    def run(digest, frac, correct=True):
        return bench_pairs.parse_run(run_output(digest, frac, correct, solves_per_s=1.0), 0)

    runs = [{"seed": 5, "base": run("a", 0.0), "head": run("a", 0.0)},
            {"seed": 6, "base": run("b", 0.0), "head": run("c", 0.5, correct=False)}]
    end_to_end = [{"name": "solves_per_s", "better": "higher", "bound": 0.25}]
    summary = bench_pairs.summarise(runs, end_to_end)
    assert summary["digest_equal"] == {5: True, 6: False}
    assert summary["failures"]["base"] == {"failed_frac_median": 0.0, "failed_frac_max": 0.0,
                                           "failed": 0, "attempted": 20}
    assert summary["failures"]["head"]["failed_frac_max"] == 0.5
    assert summary["failures"]["head"]["failed"] == 1
    assert summary["flags"] == ['seed 6 head: "correct": false']
    text = bench_pairs.report(summary)
    assert "digest_cycle0: differs on seeds 6" in text
    assert "FLAGGED seed 6 head" in text


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], capture_output=True, text=True, check=True).stdout


def test_copy_worktree_takes_the_files_a_commit_would_hold(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    repo.mkdir()
    dest.mkdir()
    git(repo, "init", "-q")
    for name, text in {".gitignore": "ignored.txt\n", "kept.txt": "old", "gone.txt": "x"}.items():
        (repo / name).write_text(text)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "kept.txt").write_text("new")
    (repo / "gone.txt").unlink()
    (repo / "sub").mkdir()
    (repo / "sub" / "untracked.txt").write_text("u")
    (repo / "ignored.txt").write_text("i")
    bench_pairs.copy_worktree(repo, dest)
    copied = {p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file()}
    assert copied == {".gitignore", "kept.txt", "sub/untracked.txt"}
    assert (dest / "kept.txt").read_text() == "new"


def test_a_short_aa_pair_of_head_leaves_nothing_behind(tmp_path, capsys):
    """One pair of HEAD against the working tree: every metric is read on
    both sides, both temporary trees are deleted, and the checkout shows no
    new or changed file, ignored ones included; the JSON goes only where
    --out says."""
    def status():
        outputs = sorted((p.as_posix(), p.stat().st_mtime_ns)
                         for p in (ROOT / ".perfbench_out").rglob("*"))
        return git(ROOT, "status", "--porcelain"), outputs

    top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "--verify",
                          "HEAD"], capture_output=True, text=True)
    if top.returncode != 0 or Path(top.stdout.splitlines()[0]).resolve() != ROOT:
        pytest.skip("not a git checkout with a HEAD commit")
    before = status()
    exports = set(Path(tempfile.gettempdir()).glob("bench_pairs-*"))
    out = tmp_path / "pairs.json"
    code = bench_pairs.main(["--base", "HEAD", "--workload", "refine", "--pairs", "1",
                             "--seconds", "0.3", "--seed", "1", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "FLAGGED" not in text
    record = json.loads(out.read_text())
    assert [r["first"] for r in record["runs"]] == ["base"]
    for name, m in record["metrics"].items():
        assert m["wins"]["pairs"] == 1, name
    assert status() == before
    assert set(Path(tempfile.gettempdir()).glob("bench_pairs-*")) == exports
