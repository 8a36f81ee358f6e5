from dataclasses import replace

import numpy as np
import pytest

from sgmopt.baselines import (DE_JONG_COLUMNS, RS_BLOCK, SaConfig, de_row, random_search,
                              reference_table, rslmga_row, simulated_annealing)
from sgmopt.core import BoxDomain, Objective, RngStream, batch_form, vectorises
from sgmopt.testbed import make_objective


class TestRandomSearch:
    def test_exact_eval_count(self):
        obj = make_objective("TP1")
        r = random_search(obj, 500, RngStream(0, 0))
        assert r.evaluations == 500
        assert r.generations == 500

    def test_budget_one(self):
        obj = make_objective("F1")
        r = random_search(obj, 1, RngStream(1, 0))
        assert r.evaluations == 1
        assert r.best_value == obj.fn(np.asarray(r.best_point))

    def test_trace_monotone(self):
        obj = make_objective("BEALE")
        r = random_search(obj, 2000, RngStream(2, 0))
        vals = [row[1] for row in r.trace]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == r.best_value

    def test_deterministic(self):
        obj = make_objective("TP1")
        r1 = random_search(obj, 300, RngStream(5, 1))
        r2 = random_search(obj, 300, RngStream(5, 1))
        assert r1.without_wallclock() == r2.without_wallclock()

    def test_tp1_converges_roughly(self):
        obj = make_objective("TP1")
        r = random_search(obj, 20_000, RngStream(3, 0))
        assert r.best_value < -34.0

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            random_search(make_objective("F1"), 0, RngStream(0))


def row_by_row(obj):
    """A copy of ``obj`` whose fn wraps the test-bed one, so random search
    evaluates it one draw at a time."""
    fn = obj.fn
    return replace(obj, fn=lambda p: fn(p))


@pytest.mark.parametrize("name", ["TP1", "BEALE", "F1", "F2", "F3", "F5"])
def test_batched_random_search_equals_row_by_row(name):
    obj = make_objective(name)
    assert batch_form(obj.fn) is not None
    for budget in (1, RS_BLOCK - 1, RS_BLOCK, RS_BLOCK + 1, 3 * RS_BLOCK + 7):
        got = random_search(obj, budget, RngStream(4, budget))
        want = random_search(row_by_row(obj), budget, RngStream(4, budget))
        assert repr(got.without_wallclock()) == repr(want.without_wallclock())


def holey(p):
    """A sphere that is NaN wherever x_1 > -1.99: at seeds 0 and 4 every
    draw of random search's first block is NaN."""
    x = np.asarray(p, dtype=float)
    if x[0] > -1.99:
        return float("nan")
    return float((x * x).sum())


@vectorises(holey)
def holey_rows(P):
    return np.where(P[:, 0] > -1.99, np.nan, (P * P).sum(axis=1))


@pytest.mark.parametrize("seed", range(6))
def test_batched_random_search_ranks_nan_worst(seed):
    obj = Objective(name="HOLEY", dim=2, domain=BoxDomain(np.full(2, -2.0), np.full(2, 2.0)),
                    fn=holey)
    got = random_search(obj, 4 * RS_BLOCK + 3, RngStream(seed))
    want = random_search(row_by_row(obj), 4 * RS_BLOCK + 3, RngStream(seed))
    assert repr(got.without_wallclock()) == repr(want.without_wallclock())
    assert np.isfinite(got.best_value)


class TestSimulatedAnnealing:
    def test_best_is_monotone_in_trace(self):
        obj = make_objective("TP1")
        r = simulated_annealing(obj, SaConfig(), RngStream(0, 0))
        vals = [row[1] for row in r.trace]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_zero_proposal_scale_stays_at_start(self):
        obj = make_objective("TP1")
        start = RngStream(1, 0).uniform(obj.domain.lo, obj.domain.hi)
        r = simulated_annealing(obj, SaConfig(proposal_scale=0.0), RngStream(1, 0))
        assert r.best_point == tuple(start.tolist())
        assert r.evaluations > 1

    def test_deterministic(self):
        obj = make_objective("BEALE")
        r1 = simulated_annealing(obj, SaConfig(), RngStream(7, 2))
        r2 = simulated_annealing(obj, SaConfig(), RngStream(7, 2))
        assert r1.without_wallclock() == r2.without_wallclock()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SaConfig(t0=-1.0).validate()
        with pytest.raises(ValueError):
            SaConfig(cooling=1.5).validate()
        with pytest.raises(ValueError):
            SaConfig(t_min=20.0).validate()

    @pytest.mark.parametrize("field,value,message", [
        ("t0", np.nan, "t0 must be positive and finite"),
        ("t0", np.inf, "t0 must be positive and finite"),
        ("proposal_scale", np.nan, "proposal_scale must be finite and >= 0"),
        ("proposal_scale", np.inf, "proposal_scale must be finite and >= 0"),
        ("steps_per_temp", 0, "steps_per_temp must be >= 1"),
    ])
    def test_rejects_non_finite_settings(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SaConfig(**{field: value}).validate()
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulated_annealing(make_objective("TP1"), SaConfig(**{field: value}), RngStream(0))

    @pytest.mark.parametrize("value", [np.nan, 2.5, 30.0, "30"])
    def test_rejects_non_integer_steps(self, value):
        message = "^steps_per_temp must be an integer"
        with pytest.raises(ValueError, match=message):
            SaConfig(steps_per_temp=value).validate()
        with pytest.raises(ValueError, match=message):
            simulated_annealing(make_objective("TP1"), SaConfig(steps_per_temp=value), RngStream(0))
        SaConfig(steps_per_temp=np.int64(30)).validate()

    @pytest.mark.parametrize("name", ["F1", "F2", "F3", "F4", "F5"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_proposal_lies_in_the_box(self, name, seed):
        obj = make_objective(name)
        fn, seen = obj.fn, []

        def recording(p, *rng):
            seen.append(p)
            return fn(p, *rng)
        r = simulated_annealing(replace(obj, fn=recording), SaConfig(), RngStream(seed, 3))
        P = np.array(seen)
        lo, hi = obj.domain.lo, obj.domain.hi
        assert len(P) == r.evaluations
        assert ((P >= lo) & (P <= hi)).all()
        assert ((P == lo) | (P == hi)).any()  # some proposals were clamped

    def test_tp1_converges(self):
        obj = make_objective("TP1")
        r = simulated_annealing(obj, SaConfig(), RngStream(11, 0))
        assert max(abs(r.best_point[0]), abs(r.best_point[1])) <= 0.1


def nan_first_objective():
    """Quadratic on [-2, 2]^2 whose first evaluation returns NaN."""
    calls = []

    def fn(x):
        calls.append(x)
        return float("nan") if len(calls) == 1 else float(np.sum((x - 0.3) ** 2))
    return Objective(name="NANFIRST", dim=2,
                     domain=BoxDomain(np.full(2, -2.0), np.full(2, 2.0)), fn=fn)


@pytest.mark.parametrize("run", [
    lambda obj: random_search(obj, 200, RngStream(0)),
    lambda obj: simulated_annealing(obj, SaConfig(), RngStream(0)),
], ids=["random_search", "simulated_annealing"])
def test_nan_first_draw_does_not_stick(run):
    r = run(nan_first_objective())
    assert np.isfinite(r.best_value)
    assert r.best_value == float(np.sum((np.asarray(r.best_point) - 0.3) ** 2))


class TestReferenceTable:
    def test_rows_exact(self):
        rows = {r.algorithm: r.gens for r in reference_table()}
        assert rows["PGA(lambda=4)"] == (1170, 1235, 3481, 3194, 1256)
        assert rows["PGA(lambda=8)"] == (1526, 1671, 3634, 5243, 2076)
        assert rows["Grefensstette"] == (2210, 14229, 2259, 3070, 4334)
        assert rows["Eshelman"] == (1538, 9477, 1740, 4137, 3004)
        assert rows["DE(F: RandomValues)"] == (260, 670, 125, 2300, 1200)
        assert rows["RSLMGA"] == (20, 29, 32, 107, 19)

    def test_named_cells(self):
        rows = {r.algorithm: r.gens for r in reference_table()}
        assert rows["DE(F: RandomValues)"][0] == 260
        assert rows["RSLMGA"][4] == 19
        assert rows["PGA(lambda=4)"][2] == 3481

    def test_helper_rows(self):
        assert de_row() == (260, 670, 125, 2300, 1200)
        assert rslmga_row() == (20, 29, 32, 107, 19)

    def test_one_count_per_de_jong_column(self):
        assert DE_JONG_COLUMNS == ("F1", "F2", "F3", "F4", "F5")
        assert {len(r.gens) for r in reference_table()} == {len(DE_JONG_COLUMNS)}

    def test_rows_are_static_copies(self):
        t1 = reference_table()
        t1.pop()
        assert len(reference_table()) == 6
