from dataclasses import replace

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
        assert r.trace[-1] == (4, -36.0, (0.0, 0.0))
        assert r.trace.count(r.trace[-1]) == 1

    @pytest.mark.parametrize("name", ["TP1", "BEALE"])
    @pytest.mark.parametrize("labeling", list(LabelStrategy))
    def test_no_repeated_trace_rows_small_budgets(self, name, labeling):
        obj = make_objective(name)
        for budget in range(5, 80):
            cfg = SgmConfig(**{**default_config(name, seed=0).__dict__,
                               "labeling": labeling, "eval_budget": budget})
            r = solve(obj, cfg)
            trace = r.trace
            assert all(a != b for a, b in zip(trace, trace[1:])), budget
            # one row per generation; only the engine's final row may repeat one
            rises = [b[0] - a[0] for a, b in zip(trace, trace[1:])]
            assert set(rises[:-1]) <= {1} and set(rises[-1:]) <= {0, 1}, budget
            assert r.generations == trace[-1][0], budget

    def test_max_sense_duality(self):
        """Maximising -f reproduces minimising f exactly: the same points,
        evaluations and generations, with every value negated (repr tells
        -0.0 from 0.0).  -f has no batch form, so it also runs row by row."""
        def negated(r):
            return repr((r.best_point, -r.best_value, r.evaluations, r.generations, r.sd,
                         tuple((g, -v, p) for g, v, p in r.trace)))
        for name in ("TP1", "BEALE", "F1", "F2", "F3", "F5"):
            obj = make_objective(name)
            neg = replace(obj, fn=lambda x, f=obj.fn: -f(x))
            labelings = [LabelStrategy.BEST_NEIGHBOR]
            if obj.gradient_fn is not None:
                neg.gradient_fn = lambda x, g=obj.gradient_fn: -g(x)
                labelings.append(LabelStrategy.GRADIENT)
            for labeling in labelings:
                cfg = replace(default_config(name, seed=3), labeling=labeling)
                r_min = solve(obj, cfg)
                r_max = solve(neg, replace(cfg, sense=Sense.MAX))
                assert negated(r_min) == repr(r_max.without_wallclock()), (name, labeling)

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

    def test_raising_gradient_keeps_best_point(self):
        def gradient(x):
            raise ZeroDivisionError("gradient")
        obj = Objective(name="BOWL", dim=2, domain=BoxDomain(-np.ones(2), np.ones(2)),
                        fn=lambda p: float(np.sum((p - 0.25) ** 2)), gradient_fn=gradient)
        with pytest.raises(ObjectiveError) as info:
            solve(obj, SgmConfig(labeling=LabelStrategy.GRADIENT))
        err = info.value
        assert isinstance(err.__cause__, ZeroDivisionError)
        # Phase 1 evaluates the four box corners in one chunk, then reads
        # the first corner's gradient.
        assert err.partial.evaluations == 4
        assert err.partial.best_point == (1.0, 1.0)

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
    @staticmethod
    def counted(name):
        calls = []
        obj = make_objective(name)
        return replace(obj, fn=lambda p, f=obj.fn: calls.append(p) or f(p)), calls

    def test_sense_must_be_a_sense_member(self):
        # A string would leave the search half minimising, half maximising.
        obj, calls = self.counted("TP1")
        with pytest.raises(ValueError, match="sense"):
            solve(obj, SgmConfig(sense="min"))
        assert calls == []

    def test_labeling_must_be_a_label_strategy_member(self):
        # A string would take the gradient branch on an objective without one.
        obj, calls = self.counted("F3")
        with pytest.raises(ValueError, match="labeling"):
            solve(obj, SgmConfig(labeling="best_neighbor"))
        assert calls == []

    def test_gradient_rejected_without_gradient(self):
        cfg = SgmConfig(labeling=LabelStrategy.GRADIENT)
        with pytest.raises(ValueError):
            solve(make_objective("F3"), cfg)
        with pytest.raises(ValueError):
            solve(make_objective("F4"), cfg)
        # A stochastic objective is refused even with a gradient_fn, and
        # before any evaluation rather than mid-solve.
        calls = []

        def noise_free(p):
            calls.append(p)
            return float(np.sum(p * p))
        noisy = Objective(name="NOISY_BOWL", dim=2, domain=BoxDomain(-np.ones(2), np.ones(2)),
                          fn=lambda p, rng: noise_free(p) + rng.normal(),
                          gradient_fn=lambda p: 2.0 * np.asarray(p), stochastic=True,
                          noise_free_fn=noise_free)
        with pytest.raises(ValueError, match="NOISY_BOWL"):
            solve(noisy, cfg)
        assert calls == []

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
        # Labels come from the objective's own gradient_fn, whatever its
        # name: a smooth bowl named like the test bed's step function solves.
        bowl = Objective(name="F3", dim=2, domain=BoxDomain(-np.ones(2), np.ones(2)),
                         fn=lambda p: float(np.sum((p - 0.25) ** 2)),
                         gradient_fn=lambda p: 2.0 * (np.asarray(p) - 0.25))
        r = solve(bowl, cfg)
        assert r.best_value <= 1e-6
