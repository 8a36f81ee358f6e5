import json
import statistics
from pathlib import Path

import pytest

from sgmopt import cli, engine
from sgmopt.bench import (CSV_AGGREGATE_HEADER, CSV_TRIAL_HEADER, OVERRIDES,
                          ExperimentSpec, compute_aggregates, emit_csv,
                          emit_json, is_success, parse_spec_file,
                          parse_trial_csv, png_ratio, png_row, run_experiment)
from sgmopt.core import RunResult
from sgmopt.engine import default_config


class TestPngRatio:
    def test_named_cells(self):
        assert png_ratio(260, 20) == 13
        assert png_ratio(1200, 19) == 64
        assert png_ratio(670, 29) == 24

    def test_full_row(self):
        assert png_row() == (13, 24, 4, 22, 64)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            png_ratio(100, 0)


class TestSpecFile:
    def test_parse(self, tmp_path):
        text = """
# comment
functions = TP1, F2
algorithms = SGM, RS
trials = 3
master_seed = 11
emit_svg = true
workers = 2
rs_budget = 200
F2.tf = 3
F2.budget = 5000
sa_t0 = 5.0
"""
        p = tmp_path / "exp.txt"
        p.write_text(text)
        spec = parse_spec_file(p)
        assert spec.functions == ("TP1", "F2")
        assert spec.algorithms == ("SGM", "RS")
        assert spec.trials == 3
        assert spec.master_seed == 11
        assert spec.emit_svg is True
        assert spec.workers == 2
        assert spec.overrides == {"F2": {"tf": 3, "budget": 5000}}
        assert spec.sa.t0 == 5.0

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("functions = F1\nbogus = 3\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_spec_file(p)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(functions=("F9",)).validate()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(functions=("F1",), algorithms=("GA",)).validate()

    def test_unknown_override_key_rejected(self):
        spec = ExperimentSpec(functions=("F1",), overrides={"F1": {"popsize": 3}})
        with pytest.raises(ValueError, match="popsize"):
            spec.validate()

    def test_mr_key_rejected_with_valid_keys(self, tmp_path):
        p = tmp_path / "mr.txt"
        p.write_text("functions = F1\nF1.mr = 0.5\n")
        with pytest.raises(ValueError, match="'mr'; valid: tf, rms, trm, tc, budget, labeling"):
            parse_spec_file(p)

    def test_bad_override_value_rejected(self):
        spec = ExperimentSpec(functions=("F1",), overrides={"F1": {"labeling": "steepest"}})
        with pytest.raises(ValueError, match="best_neighbor, gradient"):
            spec.validate()


class TestRunExperiment:
    def test_determinism(self):
        spec = ExperimentSpec(functions=("TP1",), algorithms=("SGM", "RS"),
                              trials=2, master_seed=3, record_timing=False)
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert [(a.__dict__) for a in r1.aggregates] == [(a.__dict__) for a in r2.aggregates]
        assert [(t.__dict__) for t in r1.rows] == [(t.__dict__) for t in r2.rows]

    def test_row_ordering(self):
        spec = ExperimentSpec(functions=("F2", "F1"), algorithms=("RS",),
                              trials=2, master_seed=1, rs_budget=50,
                              record_timing=False)
        rep = run_experiment(spec)
        keys = [(r.function, r.algorithm, r.trial) for r in rep.rows]
        assert keys == sorted(keys)

    def test_aggregates_recompute_exactly(self):
        spec = ExperimentSpec(functions=("TP1",), algorithms=("SGM", "RS"),
                              trials=3, master_seed=5, rs_budget=100,
                              record_timing=False)
        rep = run_experiment(spec)
        again = compute_aggregates(rep.rows)
        assert [a.__dict__ for a in again] == [a.__dict__ for a in rep.aggregates]
        for agg in rep.aggregates:
            grp = [r for r in rep.rows if (r.function, r.algorithm) ==
                   (agg.function, agg.algorithm)]
            assert agg.median_best_f == statistics.median(r.best_f for r in grp)
            assert agg.mean_generations == sum(r.generations for r in grp) / len(grp)

    def test_concurrent_equals_sequential_csv(self, tmp_path):
        base = dict(functions=("TP1", "F2"), algorithms=("SGM", "RS"),
                    trials=3, master_seed=8, rs_budget=100, record_timing=False)
        seq = run_experiment(ExperimentSpec(workers=1, **base))
        par = run_experiment(ExperimentSpec(workers=4, **base))
        p1 = tmp_path / "seq.csv"
        p2 = tmp_path / "par.csv"
        emit_csv(seq, p1)
        emit_csv(par, p2)
        assert p1.read_bytes() == p2.read_bytes()
        a1 = p1.with_name("seq_aggregate.csv")
        a2 = p2.with_name("par_aggregate.csv")
        assert a1.read_bytes() == a2.read_bytes()

    def test_success_rules(self):
        assert is_success("F5", (-32.05, -31.95))
        assert not is_success("F5", (-31.0, -31.0))
        assert is_success("F2", (1.004, 0.999))
        assert not is_success("F2", (1.02, 1.0))
        assert is_success("F4", tuple([0.0] * 30))
        assert not is_success("F4", tuple([0.5] * 30))


class TestEmitters:
    def _small_report(self):
        spec = ExperimentSpec(functions=("TP1",), algorithms=("SGM",),
                              trials=2, master_seed=2, record_timing=False)
        return run_experiment(spec)

    def test_csv_headers_exact(self, tmp_path):
        rep = self._small_report()
        path = tmp_path / "out.csv"
        emit_csv(rep, path)
        assert path.read_text().splitlines()[0] == CSV_TRIAL_HEADER
        agg = path.with_name("out_aggregate.csv")
        assert agg.read_text().splitlines()[0] == CSV_AGGREGATE_HEADER

    def test_csv_round_trip(self, tmp_path):
        rep = self._small_report()
        path = tmp_path / "out.csv"
        emit_csv(rep, path)
        back = parse_trial_csv(path)
        for orig, parsed in zip(rep.rows, back):
            assert parsed.best_x == orig.best_x
            assert parsed.best_f == orig.best_f
            assert parsed.sd == orig.sd
            assert parsed.generations == orig.generations

    def test_empty_report_headers_only(self, tmp_path):
        from sgmopt.bench import Report
        rep = Report(rows=[], aggregates=[], png_row={})
        path = tmp_path / "empty.csv"
        emit_csv(rep, path)
        assert path.read_text() == CSV_TRIAL_HEADER + "\n"
        assert path.with_name("empty_aggregate.csv").read_text() == CSV_AGGREGATE_HEADER + "\n"

    def test_json_mirrors_rows(self, tmp_path):
        rep = self._small_report()
        path = tmp_path / "out.json"
        emit_json(rep, path)
        payload = json.loads(path.read_text())
        assert len(payload["trials"]) == len(rep.rows)
        assert payload["trials"][0]["best_f"] == rep.rows[0].best_f
        assert payload["png_row"] == {"F1": 13, "F2": 24, "F3": 4, "F4": 22, "F5": 64}

    def test_outputs_directory(self, tmp_path):
        out = tmp_path / "results"
        spec = ExperimentSpec(functions=("TP1",), algorithms=("SGM",), trials=1,
                              master_seed=1, outputs=str(out), emit_svg=True,
                              record_timing=False)
        rep = run_experiment(spec)
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert rep.svg_paths and Path(rep.svg_paths[0]).exists()

    def test_svg_content(self, tmp_path):
        out = tmp_path / "svg"
        spec = ExperimentSpec(functions=("TP1",), algorithms=("SGM",), trials=1,
                              master_seed=1, outputs=str(out), emit_svg=True,
                              record_timing=False)
        spec.overrides = {}
        rep = run_experiment(spec)
        svg = Path(rep.svg_paths[0]).read_text()
        assert svg.startswith("<svg")
        assert "<polyline" in svg or "<circle" in svg
        assert "<text" in svg  # vertex labels present

    def test_svg_skipped_for_3d(self, tmp_path, capsys):
        out = tmp_path / "svg3"
        spec = ExperimentSpec(functions=("F1",), algorithms=("SGM",), trials=1,
                              master_seed=1, outputs=str(out), emit_svg=True,
                              record_timing=False)
        rep = run_experiment(spec)
        assert rep.svg_paths == []


class TestCli:
    def test_solve_emits_json(self, capsys):
        assert cli.main(["solve", "F1", "--seed", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert max(abs(c) for c in payload["best_point"]) <= 1e-6

    def test_tables(self, capsys):
        assert cli.main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "260" in out and "1200" in out and "RSLMGA" in out
        assert "64" in out

    def test_validate(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_unknown_function_exits_1(self, capsys):
        assert cli.main(["solve", "F9"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert cli.main(["solve", "F1", "--bogus", "3"]) == 1

    def test_mr_flag_exits_1(self, capsys):
        assert cli.main(["solve", "F1", "--mr", "0.5"]) == 1

    @pytest.mark.parametrize("key,raw", [
        ("tf", "1"), ("rms", "0.2"), ("trm", "7"), ("tc", "4"),
        ("budget", "500"), ("labeling", "gradient")])
    def test_override_same_config_from_spec_and_flag(self, key, raw, tmp_path,
                                                     monkeypatch, capsys):
        assert set(OVERRIDES) == {"tf", "rms", "trm", "tc", "budget", "labeling"}
        configs = []

        def fake_solve(obj, cfg, **_):
            configs.append(cfg)
            return RunResult(best_point=(0.0,) * obj.dim, best_value=0.0,
                             evaluations=0, generations=0, sd=None)
        monkeypatch.setattr(engine, "solve", fake_solve)
        spec_file = tmp_path / "exp.txt"
        spec_file.write_text(f"functions = F1\ntrials = 1\nF1.{key} = {raw}\n")
        assert cli.main(["run", str(spec_file)]) == 0
        assert cli.main(["solve", "F1", f"--{key}", raw]) == 0
        from_spec, from_flag = configs
        assert from_spec == from_flag
        field = OVERRIDES[key][0]
        assert getattr(from_spec, field) != getattr(default_config("F1"), field)

    def test_run_spec(self, tmp_path, capsys):
        out = tmp_path / "res"
        spec_file = tmp_path / "exp.txt"
        spec_file.write_text(
            f"functions = TP1\nalgorithms = SGM\ntrials = 1\nmaster_seed = 4\n"
            f"outputs = {out}\nrecord_timing = false\n")
        assert cli.main(["run", str(spec_file)]) == 0
        assert (out / "report.csv").exists()

    def test_run_missing_file_exits_2(self, capsys):
        assert cli.main(["run", "/nonexistent/spec.txt"]) == 2
