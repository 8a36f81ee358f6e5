import numpy as np
import pytest

from sgmopt.core import (BoxDomain, LabelStrategy, Objective, ObjectiveError,
                         Sense, SgmConfig)
from sgmopt.engine import default_config, solve
from sgmopt.testbed import f4_deterministic, make_objective


class TestDefaultConfig:
    def test_function_rows(self):
        rows = {
            "F1": (2, 15, 3),
            "F2": (2, 16, 11),
            "F3": (2, 25, 5),
            "F4": (2, 75, 30),
            "F5": (8, 9, 2),
        }
        for name, (tf, trm, tc) in rows.items():
            cfg = default_config(name)
            assert (cfg.tf_rounds, cfg.trm_max, cfg.tc_max) == (tf, trm, tc)
            assert cfg.alpha_base == 0.1

    def test_generic_fallback(self):
        cfg = default_config("BEALE")
        assert (cfg.tf_rounds, cfg.trm_max, cfg.tc_max) == (3, 50, 20)

    def test_accepts_objective(self):
        assert default_config(make_objective("F5")).tf_rounds == 8


class TestSolve:
    def test_tp1_defaults(self):
        obj = make_objective("TP1")
        r = solve(obj, default_config(obj, seed=1))
        assert max(abs(c) for c in r.best_point) <= 1e-3
        assert r.evaluations <= 10_000

    def test_f2_table_settings(self):
        obj = make_objective("F2")
        r = solve(obj, default_config(obj, seed=1))
        assert abs(r.best_point[0] - 1.0) <= 1e-2
        assert abs(r.best_point[1] - 1.0) <= 1e-2
        assert r.best_value <= 1e-4

    def test_f5_table_settings(self):
        obj = make_objective("F5")
        r = solve(obj, default_config(obj, seed=1))
        assert max(abs(r.best_point[0] + 32.0), abs(r.best_point[1] + 32.0)) <= 1e-1

    def test_eval_accounting_single_counter(self):
        obj = make_objective("TP1")
        cfg = default_config(obj, seed=2)
        r = solve(obj, cfg)
        assert r.evaluations <= cfg.eval_budget
        assert r.evaluations > 0

    def test_budget_respected(self):
        obj = make_objective("BEALE")
        cfg = SgmConfig(eval_budget=137, seed=0)
        r = solve(obj, cfg)
        assert r.evaluations <= 137

    def test_bit_identical_rerun(self):
        for name in ("TP1", "F2", "F4"):
            obj = make_objective(name)
            cfg = default_config(obj, seed=9)
            r1 = solve(obj, cfg)
            r2 = solve(obj, cfg)
            assert r1.without_wallclock() == r2.without_wallclock(), name

    def test_trace_monotone_all_functions(self):
        for name in ("TP1", "BEALE", "F1", "F2", "F3", "F4", "F5"):
            obj = make_objective(name)
            r = solve(obj, default_config(obj, seed=5))
            vals = [row[1] for row in r.trace]
            assert all(b <= a for a, b in zip(vals, vals[1:])), name

    def test_final_trace_row_not_repeated(self):
        cfg = SgmConfig(**{**default_config("TP1", seed=0).__dict__,
                           "labeling": LabelStrategy.GRADIENT, "eval_budget": 28})
        r = solve(make_objective("TP1"), cfg)
        assert r.trace[-1] == (5, -36.0, (0.0, 0.0))
        assert r.trace.count(r.trace[-1]) == 1

    @pytest.mark.parametrize("name", ["TP1", "BEALE"])
    @pytest.mark.parametrize("labeling", list(LabelStrategy))
    def test_no_repeated_trace_rows_small_budgets(self, name, labeling):
        obj = make_objective(name)
        for budget in range(5, 80):
            cfg = SgmConfig(**{**default_config(name, seed=0).__dict__,
                               "labeling": labeling, "eval_budget": budget})
            trace = solve(obj, cfg).trace
            assert all(a != b for a, b in zip(trace, trace[1:])), budget

    def test_max_sense_duality(self):
        obj = make_objective("F2")
        neg = Objective(name="F2neg", dim=obj.dim, domain=obj.domain,
                        fn=lambda x: -obj.fn(x))
        cfg_min = default_config("F2", seed=3)
        cfg_max = default_config("F2", seed=3)
        cfg_max = SgmConfig(**{**cfg_min.__dict__, "sense": Sense.MAX})
        r_min = solve(obj, cfg_min)
        r_max = solve(neg, cfg_max)
        assert r_min.best_point == r_max.best_point
        assert r_min.best_value == -r_max.best_value
        assert r_min.evaluations == r_max.evaluations

    def test_sd_reported(self):
        obj = make_objective("TP1")
        r = solve(obj, default_config(obj, seed=1))
        assert r.sd is not None and r.sd <= 1e-3

    def test_generations_spans_phases(self):
        obj = make_objective("F1")
        cfg = default_config(obj, seed=1)
        r = solve(obj, cfg)
        assert r.generations >= cfg.tf_rounds

    def test_f4_returns_noise_free_optimum(self):
        obj = make_objective("F4")
        r = solve(obj, default_config(obj, seed=4))
        assert f4_deterministic(np.asarray(r.best_point)) <= 1e-2

    def test_nan_at_first_corner_does_not_stick(self):
        # the all-lo corner is the first point evaluated
        def fn(x):
            return float("nan") if tuple(x) == (-2.0, -2.0) else float(np.sum((x - 0.3) ** 2))
        obj = Objective(name="NANCORNER", dim=2,
                        domain=BoxDomain(np.full(2, -2.0), np.full(2, 2.0)), fn=fn)
        r = solve(obj, SgmConfig())
        assert r.best_value < 1e-30
        assert max(abs(c - 0.3) for c in r.best_point) < 1e-12


    def test_raising_objective_keeps_best_point(self):
        seen = []

        def fn(x):
            if len(seen) == 49:
                raise ZeroDivisionError("call 50")
            v = float(np.sum((x - 0.3) ** 2))
            seen.append((v, tuple(float(c) for c in x)))
            return v
        obj = Objective(name="RAISES50", dim=2,
                        domain=BoxDomain(np.full(2, -2.0), np.full(2, 2.0)), fn=fn)
        with pytest.raises(ObjectiveError) as info:
            solve(obj, SgmConfig())
        err = info.value
        assert isinstance(err, RuntimeError)
        assert isinstance(err.__cause__, ZeroDivisionError)
        assert err.partial.evaluations == 50
        assert err.partial.best_value == min(v for v, _ in seen)
        assert (err.partial.best_value, err.partial.best_point) in seen
        assert err.partial.sd is None and err.partial.trace == []

    def test_raising_first_call_has_no_partial(self):
        def fn(x):
            raise ValueError("never")
        obj = Objective(name="RAISES1", dim=1,
                        domain=BoxDomain(np.array([0.0]), np.array([1.0])), fn=fn)
        with pytest.raises(ObjectiveError) as info:
            solve(obj, SgmConfig())
        assert info.value.partial is None
        assert isinstance(info.value.__cause__, ValueError)


class TestSolveValidation:
    def test_gradient_rejected_without_gradient(self):
        cfg = SgmConfig(labeling=LabelStrategy.GRADIENT)
        with pytest.raises(ValueError):
            solve(make_objective("F3"), cfg)
        with pytest.raises(ValueError):
            solve(make_objective("F4"), cfg)

    def test_config_error_before_any_evaluation(self):
        obj = make_objective("F4")
        cfg = SgmConfig(labeling=LabelStrategy.GRADIENT)
        with pytest.raises(ValueError):
            solve(obj, cfg)

    def test_runs(self):
        r = solve(make_objective("F1"), default_config("F1", seed=2))
        assert r.best_value == 0.0

    def test_gradient_labeling_works_on_smooth(self):
        obj = make_objective("F1")
        cfg = SgmConfig(tf_rounds=2, labeling=LabelStrategy.GRADIENT, seed=1)
        r = solve(obj, cfg)
        assert r.best_value <= 1e-6
