import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def record(workload, metrics, digest="d0"):
    return {
        "provenance": {"cpu_model": "cpu", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
                       "git_commit": "abc", "workload": workload, "seed": 1},
        "detail": {"digest_cycle0": digest, "reference_ms": 2.5},
        "result": {"correct": True, "attempted": 10, "failed": 0,
                   "metrics": {m: {"value": 1.0, "unit": "s"} for m in metrics}},
    }


def test_merge_keeps_metrics_and_places_caveats():
    e2e = ("setup_s", "solves_per_s", "solve_ms_tail", "solved_frac", "peak_rss_mb")
    records = {w: (record(w, e2e, digest=w), record(w, ("core.value_calls",)))
               for w in ("grid", "experiment")}
    tier1 = {"wall_s": 41.0, "passed": 672, "failed": 0}
    out = bench_record.merge("x", records, tier1, ["src/a.py"])
    assert out["provenance"] == {"cpu_model": "cpu", "nproc": 2, "python": "3.11.7",
                                 "numpy": "2.4.6", "git_commit": "abc",
                                 "uncommitted_paths": ["src/a.py"]}
    assert out["tier1"] == tier1
    for workload, caveated in (("grid", {"setup_s", "peak_rss_mb"}),
                               ("experiment", {"setup_s", "peak_rss_mb", "solve_ms_tail",
                                               "solved_frac"})):
        got = out["workloads"][workload]
        assert {m for m, v in got["end_to_end"].items() if "caveat" in v} == caveated
        assert got["per_layer"] == {"core.value_calls": {"value": 1.0, "unit": "s"}}
        assert (got["digest_cycle0"], got["reference_ms"]) == (workload, 2.5)


def test_label_must_be_a_file_name_part():
    with pytest.raises(SystemExit):
        bench_record.main(["--label", "../x"])
