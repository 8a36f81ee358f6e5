import json
import re
import statistics
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sgmopt import bench, cli, engine
from sgmopt.baselines import SaConfig
from sgmopt.bench import (CSV_AGGREGATE_HEADER, CSV_TRIAL_HEADER, OVERRIDES,
                          ExperimentSpec, compute_aggregates, emit_csv,
                          emit_json, is_success, parse_spec_file,
                          parse_trial_csv, png_ratio, png_row, run_experiment)
from sgmopt.core import RngStream, RunResult, Sense, SgmConfig
from sgmopt.engine import default_config
from sgmopt.testbed import make_objective


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
        assert spec.overrides == {"F2": {"tf": "3", "budget": "5000"}}
        assert spec.sa.t0 == 5.0

    def test_trailing_comments_stripped(self, tmp_path):
        # the README's spec example before its comments moved to own lines
        text = """
functions = F1, F2, F5
algorithms = SGM, RS, SA
trials = 50
master_seed = 2024
outputs = results/
emit_svg = true
workers = 4
F5.tf = 8          # per-function overrides: tf, mr, rms, trm, tc,
F5.budget = 30000  # budget, labeling
"""
        p = tmp_path / "readme.txt"
        p.write_text(text)
        spec = parse_spec_file(p)
        assert spec.functions == ("F1", "F2", "F5")
        assert spec.outputs == "results/"
        assert spec.workers == 4
        assert spec.overrides == {"F5": {"tf": "8", "budget": "30000"}}

    def test_hash_inside_a_value_kept(self, tmp_path):
        p = tmp_path / "hash.txt"
        p.write_text("functions = F1\noutputs = runs#2/\t# where reports go\n")
        assert parse_spec_file(p).outputs == "runs#2/"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("functions = F1\nbogus = 3\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_spec_file(p)

    @pytest.mark.parametrize("text,message", [
        ("functions = F1\nF1\n", r"bad\.txt:2: expected 'key = value', got 'F1'"),
        ("trials = 2\n", r"bad\.txt: missing required key 'functions'"),
    ], ids=["no_equals", "no_functions"])
    def test_malformed_file_rejected(self, text, message, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            parse_spec_file(p)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(functions=("F9",)).validate()

    def test_spec_repeats_are_found_after_normalising(self):
        with pytest.raises(ValueError, match="functions names F1 more than once"):
            ExperimentSpec(functions=("F1", " f1")).validate()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(functions=("F1",), algorithms=("GA",)).validate()

    @pytest.mark.parametrize("field", ["trials", "workers", "rs_budget", "master_seed"])
    @pytest.mark.parametrize("value", [np.nan, 1.5, 2.0, "2", True, False])
    def test_rejects_non_integer_settings(self, field, value):
        spec = ExperimentSpec(functions=("F1",), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            spec.validate()
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            run_experiment(spec)
        ExperimentSpec(functions=("F1",), **{field: np.int64(2)}).validate()

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

    def test_flag_spellings_and_float_from_int_text(self, tmp_path):
        p = tmp_path / "flags.txt"
        for raw, value in {"true": True, "yes": True, "on": True, "1": True,
                           "false": False, "no": False, "off": False, "0": False}.items():
            for text in (raw, raw.upper(), raw.capitalize()):
                p.write_text(f"functions = F1\nemit_svg = {text}\nrecord_timing = {text}\n"
                             "sa_t0 = 5\n")
                spec = parse_spec_file(p)
                assert spec.emit_svg is value and spec.record_timing is value
        assert spec.sa.t0 == 5.0 and isinstance(spec.sa.t0, float)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"An experiment spec is flat.*?```\n(.*?)```", readme, re.S).group(1)
        p = tmp_path / "readme.txt"
        p.write_text(block)
        spec = parse_spec_file(p)
        assert spec.functions == ("F1", "F2", "F5")
        assert spec.algorithms == ("SGM", "RS", "SA")
        assert spec.overrides == {"F5": {"tf": "8", "budget": "30000"}}


def test_every_config_field_has_a_caller():
    """Each settable field is reachable from a spec key, an override key or
    an ``sgmopt solve`` flag; a value nobody sets is a module constant."""
    def names(cls):
        return {f.name for f in fields(cls)}

    # sense and seed: ``sgmopt solve --sense/--seed`` and default_config(seed=).
    assert names(SgmConfig) == {f for f, _ in OVERRIDES.values()} | {"sense", "seed"}
    assert names(SaConfig) == set(bench._SA_FIELDS.values())
    spec_keys = {k for k in bench._SPEC_KEYS if not k.startswith("sa_")}
    # overrides: the per-function ``F2.tf = 3`` keys; sa: the sa_* keys.
    assert names(ExperimentSpec) == spec_keys | {"overrides", "sa"}


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
        base = dict(functions=("TP1", "F2"), algorithms=("SGM", "RS", "SA"),
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

    def test_concurrent_equals_sequential_with_svg(self, tmp_path):
        base = dict(functions=("TP1", "F2"), algorithms=("SGM", "RS", "SA"),
                    trials=3, master_seed=8, rs_budget=100, record_timing=False,
                    emit_svg=True)
        seq = run_experiment(ExperimentSpec(workers=1, outputs=str(tmp_path / "seq"), **base))
        par = run_experiment(ExperimentSpec(workers=4, outputs=str(tmp_path / "par"), **base))
        names = sorted(p.name for p in (tmp_path / "seq").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
        assert len([n for n in names if n.endswith(".svg")]) == 6
        for name in names:
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
        assert seq.svg_paths == [p.replace(str(tmp_path / "par"), str(tmp_path / "seq"))
                                 for p in par.svg_paths]

    def test_lower_case_function_is_judged_as_its_canonical_name(self):
        def aggregate(name):
            spec = ExperimentSpec(functions=(name,), trials=1, record_timing=False)
            rep = run_experiment(spec)
            assert spec.functions == ("F5",) and rep.rows[0].function == "F5"
            return rep.rows[0].evaluations, rep.aggregates[0]
        (evals, lower), (_, upper) = aggregate("f5"), aggregate("F5")
        assert evals == 667
        assert (lower.success_rate, lower.png) == (upper.success_rate, upper.png) == (1.0, 47)

    def test_padded_function_gets_its_de_jong_png(self):
        spec = ExperimentSpec(functions=(" F4 ",), algorithms=("RS",), trials=1,
                              rs_budget=100, record_timing=False)
        agg = run_experiment(spec).aggregates[0]
        assert (agg.function, agg.png) == ("F4", png_ratio(2300, 100))

    def test_lower_case_algorithm_accepted(self):
        spec = ExperimentSpec(functions=("F1",), algorithms=("sgm", " rs"))
        spec.validate()
        assert spec.algorithms == ("SGM", "RS")

    def test_override_key_matches_function_in_any_case(self):
        spec = ExperimentSpec(functions=("f2",), overrides={"F2": {"tf": 3}, " f2": {"tc": "4"}})
        spec.validate()
        assert spec.overrides == {"F2": {"tf": 3, "tc": "4"}}

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
        # Literal text: the header constants are built from the row types.
        assert path.read_text().splitlines()[0] == (
            "function,algorithm,trial,seed,generations,evaluations,best_f,best_x,sd,wallclock_ms")
        agg = path.with_name("out_aggregate.csv")
        assert agg.read_text().splitlines()[0] == (
            "function,algorithm,trials,median_best_f,mean_generations,success_rate,png")

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

    def test_parse_rejects_other_header(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text(CSV_AGGREGATE_HEADER + "\n")
        with pytest.raises(ValueError, match="unexpected header"):
            parse_trial_csv(path)

    @pytest.mark.parametrize("body, lineno, what", [
        ("", 1, "unexpected header"),
        ("{row}\nTP1,SGM,1,2,3", 3, "5 fields, expected 10"),
        ("{row},extra", 2, "11 fields, expected 10"),
        ("{row}\n{bad_trial}", 3, "invalid literal for int"),
    ], ids=["empty", "short", "eleven", "trial"])
    def test_parse_names_file_and_line(self, tmp_path, body, lineno, what):
        path = tmp_path / "out.csv"
        emit_csv(self._small_report(), path)
        header, row = path.read_text().splitlines()[:2]
        fields = row.split(",")
        bad_trial = ",".join(fields[:2] + ["x"] + fields[3:])
        text = body.format(row=row, bad_trial=bad_trial)
        path.write_text(text and f"{header}\n{text}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {what}")):
            parse_trial_csv(path)

    def test_empty_report_headers_only(self, tmp_path):
        from sgmopt.bench import Report
        rep = Report(rows=[], aggregates=[], png_row={})
        path = tmp_path / "empty.csv"
        emit_csv(rep, path)
        assert path.read_text() == CSV_TRIAL_HEADER + "\n"
        assert path.with_name("empty_aggregate.csv").read_text() == CSV_AGGREGATE_HEADER + "\n"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        from sgmopt.bench import Report
        path = tmp_path / "report.csv"
        path.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError, match="failed writing"):
            emit_csv(Report(rows=[], aggregates=[], png_row={}), path)
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

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
        assert "<circle" in svg  # TP1's optimum is phase 1's first vertex
        assert "<text" in svg  # vertex labels present

    def test_svg_path_has_one_point_per_accepted_step(self, tmp_path):
        spec = ExperimentSpec(functions=("F2",), algorithms=("SGM",), trials=1,
                              master_seed=1, outputs=str(tmp_path), emit_svg=True,
                              record_timing=False)
        svg = Path(run_experiment(spec).svg_paths[0]).read_text()
        accepted = []
        engine.solve(make_objective("F2"), default_config("F2", seed=1), rng=RngStream(1, 0),
                     phase2_sink=lambda it, inc, cand, ok: accepted.append(ok))
        points = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(points) == 1
        assert len(points[0].split()) == sum(accepted) > 0

    def test_no_svg_collector_without_outputs(self, monkeypatch):
        def no_collector():
            raise AssertionError("SVG snapshots taken with no outputs directory")
        monkeypatch.setattr(bench, "_SvgCollector", no_collector)
        spec = ExperimentSpec(functions=("TP1",), algorithms=("SGM",), trials=1,
                              master_seed=1, emit_svg=True, record_timing=False)
        assert run_experiment(spec).svg_paths == []

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

    def test_solve_max_sense(self, capsys):
        assert cli.main(["solve", "TP1", "--sense", "max"]) == 0
        payload = json.loads(capsys.readouterr().out)
        r = engine.solve(make_objective("TP1"), replace(default_config("TP1"), sense=Sense.MAX))
        assert (payload["best_f"], payload["evaluations"]) == (r.best_value, r.evaluations)

    def test_tables(self, capsys):
        assert cli.main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "260" in out and "1200" in out and "RSLMGA" in out
        assert "64" in out

    def test_validate(self, capsys):
        assert cli.main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_validate_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "png_row", lambda: (0, 0, 0, 0, 0))
        assert cli.main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("FAIL generation-ratio row")
        assert sum(line.startswith("FAIL") for line in lines) == 1

    def test_solve_non_finite_setting_exits_1(self, capsys):
        assert cli.main(["solve", "F1", "--rms", "nan"]) == 1
        assert capsys.readouterr().err == "error: alpha_base must be positive and finite\n"

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

    @pytest.mark.parametrize("line,message", [
        ("rs_budget = 0", "rs_budget must be >= 1"),
        ("sa_cooling = 1.5", "cooling must lie in (0, 1)"),
        ("F1.budget = 0", "eval_budget must be >= 1"),
        ("master_seed = -1", "master_seed must fit in 64 unsigned bits"),
        ("sa_t0 = inf", "t0 must be positive and finite"),
        ("sa_scale = nan", "proposal_scale must be finite and >= 0"),
        ("F1.rms = nan", "alpha_base must be positive and finite"),
        ("trials = 0", "trials must be >= 1"),
        ("workers = 0", "workers must be >= 1"),
    ], ids=["rs_budget", "sa_cooling", "override_budget", "master_seed", "sa_t0_inf",
            "sa_scale_nan", "override_rms_nan", "trials", "workers"])
    def test_run_bad_value_exits_1(self, line, message, tmp_path, capsys):
        spec_file = tmp_path / "exp.txt"
        spec_file.write_text(f"functions = F1\nalgorithms = SGM, RS, SA\ntrials = 1\n{line}\n")
        assert cli.main(["run", str(spec_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("line,message", [
        ("functions =", "functions must name at least one entry"),
        ("algorithms =", "algorithms must name at least one entry"),
        ("functions = F1, F2, F1", "functions names F1 more than once"),
        ("algorithms = RS, SGM, rs", "algorithms names RS more than once"),
        ("F2.tf = 3", "overrides for F2: F2 is not in functions"),
    ], ids=["no_functions", "no_algorithms", "repeated_function", "repeated_algorithm",
            "override_outside_functions"])
    def test_run_spec_asking_for_nothing_or_twice_exits_1(self, line, message, tmp_path,
                                                          capsys):
        spec_file = tmp_path / "exp.txt"
        spec_file.write_text(f"functions = F1\nalgorithms = RS\ntrials = 2\n{line}\n")
        assert cli.main(["run", str(spec_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("line", [
        "trials = 2.5", "trials = yes", "sa_steps = 30.0", "master_seed = true",
        "emit_svg = maybe", "record_timing = 2", "F1.tf = 2.7"])
    def test_run_value_its_converter_rejects_exits_1(self, line, tmp_path, capsys):
        spec_file = tmp_path / "exp.txt"
        spec_file.write_text(f"functions = F1\ntrials = 1\n{line}\n")
        assert cli.main(["run", str(spec_file)]) == 1
        err = capsys.readouterr().err
        key = line.partition(" =")[0]
        if key == "F1.tf":
            # the converter message `sgmopt solve F1 --tf 2.7` prints
            assert cli.main(["solve", "F1", "--tf", "2.7"]) == 1
            assert err == capsys.readouterr().err
            assert err == "error: tf: invalid literal for int() with base 10: '2.7'\n"
        else:
            assert err.startswith(f"error: {spec_file}:3: {key}: ")
            assert err.count("\n") == 1

    def test_run_missing_file_exits_2(self, capsys):
        assert cli.main(["run", "/nonexistent/spec.txt"]) == 2

    def test_run_unreadable_spec_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path)]) == 2  # a directory
        assert capsys.readouterr().err.startswith("error: ")
