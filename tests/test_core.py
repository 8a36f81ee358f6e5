import numpy as np
import pytest

from sgmopt.core import (BoxDomain, BudgetExceeded, EvalContext, EvalCounter,
                         RngStream, Sense, SgmConfig, better, clamp, contains,
                         counted_eval, deviation)
from sgmopt.testbed import make_objective


def box2(lo, hi):
    return BoxDomain(np.array([lo, lo]), np.array([hi, hi]))


class TestBoxDomain:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, 0.0]), np.array([1.0, -1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, np.nan]), np.array([1.0, 1.0]))

    def test_extent_and_center(self):
        b = box2(-4.5, 4.5)
        assert np.array_equal(b.extent, [9.0, 9.0])
        assert np.array_equal(b.center, [0.0, 0.0])


class TestContains:
    def test_interior(self):
        assert contains(box2(-1, 1), (0.0, 0.0))

    def test_boundary_is_inside(self):
        assert contains(box2(-1, 1), (1.0, 1.0))

    def test_outside_beale_bound(self):
        assert not contains(box2(-4.5, 4.5), (4.6, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(box2(-1, 1), (0.0, 0.0, 0.0))


class TestClamp:
    def test_projection(self):
        assert tuple(clamp(box2(-1, 1), (2.0, 0.0))) == (1.0, 0.0)

    def test_identity_inside(self):
        assert tuple(clamp(box2(-1, 1), (0.5, -0.5))) == (0.5, -0.5)

    def test_lower_clamp_1d(self):
        b = BoxDomain(np.array([0.0]), np.array([1.0]))
        assert tuple(clamp(b, (-3.0,))) == (0.0,)

    def test_idempotent_and_contained(self):
        rng = np.random.default_rng(0)
        b = box2(-2, 3)
        for _ in range(200):
            p = rng.uniform(-100, 100, size=2)
            q = clamp(b, p)
            assert contains(b, q)
            assert np.array_equal(clamp(b, q), q)


class TestCountedEval:
    def test_counts_exactly_one(self):
        obj = make_objective("F1")
        counter = EvalCounter(10)
        v = counted_eval(obj, (0.0, 0.0, 0.0), counter)
        assert v == 0.0
        assert counter.count == 1

    def test_beale_optimum(self):
        obj = make_objective("BEALE")
        counter = EvalCounter(10)
        assert counted_eval(obj, (3.0, 0.5), counter) == 0.0

    def test_budget_exhaustion(self):
        obj = make_objective("F1")
        counter = EvalCounter(2)
        counted_eval(obj, (1.0, 1.0, 1.0), counter)
        counted_eval(obj, (1.0, 1.0, 1.0), counter)
        with pytest.raises(BudgetExceeded):
            counted_eval(obj, (1.0, 1.0, 1.0), counter)
        assert counter.count == 2

    def test_out_of_domain_rejected(self):
        obj = make_objective("F2")
        with pytest.raises(ValueError):
            counted_eval(obj, (5.0, 0.0), EvalCounter(5))

    def test_stochastic_draws_differ(self):
        obj = make_objective("F4")
        x = tuple([0.3] * 30)
        counter = EvalCounter(10)
        v1 = counted_eval(obj, x, counter, RngStream(1, 0))
        v2 = counted_eval(obj, x, counter, RngStream(1, 1))
        assert v1 != v2

    def test_stochastic_needs_rng(self):
        obj = make_objective("F4")
        with pytest.raises(ValueError):
            counted_eval(obj, tuple([0.0] * 30), EvalCounter(5))


class TestRngStream:
    def test_same_entropy_same_sequence(self):
        a = RngStream(42, 3)
        b = RngStream(42, 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_index_differs(self):
        assert RngStream(42, 0).random() != RngStream(42, 1).random()

    def test_substream_is_stable(self):
        a = RngStream(7).substream(2, 5)
        b = RngStream(7, 2, 5)
        assert a.entropy == b.entropy
        assert a.random() == b.random()


class TestSgmConfig:
    def test_defaults_validate(self):
        SgmConfig().validate(make_objective("TP1"))

    def test_beta_must_increase(self):
        with pytest.raises(ValueError):
            SgmConfig(beta_sweep=(0.1, 0.1)).validate()

    def test_alpha_bounded_by_extent(self):
        with pytest.raises(ValueError):
            SgmConfig(alpha_base=5.0).validate(make_objective("F2"))

    def test_gradient_labeling_needs_gradient(self):
        from sgmopt.core import LabelStrategy
        cfg = SgmConfig(labeling=LabelStrategy.GRADIENT)
        with pytest.raises(ValueError):
            cfg.validate(make_objective("F3"))
        cfg.validate(make_objective("F1"))


class TestEvalContext:
    def test_cache_saves_budget(self):
        obj = make_objective("F1")
        ctx = EvalContext(obj, EvalCounter(10), RngStream(0), Sense.MIN)
        p = np.array([1.0, 2.0, 3.0])
        v1 = ctx.value(p)
        v2 = ctx.value(p)
        assert v1 == v2
        assert ctx.counter.count == 1

    def test_best_tracking(self):
        obj = make_objective("F1")
        ctx = EvalContext(obj, EvalCounter(10), RngStream(0), Sense.MIN)
        ctx.value(np.array([1.0, 1.0, 1.0]))
        ctx.value(np.array([0.5, 0.0, 0.0]))
        ctx.value(np.array([2.0, 2.0, 2.0]))
        assert tuple(ctx.best_point) == (0.5, 0.0, 0.0)
        assert ctx.best_value == 0.25

    def test_stochastic_epochs_share_noise(self):
        obj = make_objective("F4")
        ctx = EvalContext(obj, EvalCounter(100), RngStream(3), Sense.MIN)
        a = np.zeros(30)
        b = np.full(30, 0.5)
        # within one epoch the noise offset cancels in differences
        d1 = ctx.value(b) - ctx.value(a)
        ctx.new_epoch()
        d2 = ctx.value(b) - ctx.value(a)
        assert d1 == pytest.approx(d2, abs=1e-9)
        # but absolute values change across epochs
        ctx2 = EvalContext(obj, EvalCounter(100), RngStream(3), Sense.MIN)
        v_epoch0 = ctx2.value(a)
        ctx2.new_epoch()
        assert ctx2.value(a) != v_epoch0


def ctx_state(ctx):
    return (ctx.counter.count, dict(ctx._cache), repr(ctx.best_point), ctx.best_value)


class TestEvalContextValues:
    """``values(P)`` must equal successive ``value`` calls row by row."""

    @staticmethod
    def batch(n, seed):
        rng = np.random.default_rng(seed)
        P = rng.uniform(-1.0, 1.0, size=(12, n))
        P[3] = P[1]          # repeats hit the cache within the batch
        P[7] = 0.0
        P[8] = -0.0          # same cache key as the +0.0 row
        P[11] = P[0]
        return P

    def run_both(self, obj, P, budget, epochs=0, warm=None):
        ctxs = [EvalContext(obj, EvalCounter(budget), RngStream(5), Sense.MIN)
                for _ in range(2)]
        for ctx in ctxs:
            for _ in range(epochs):
                ctx.new_epoch()
            if warm is not None:
                ctx.value(warm)
        got, want = [], []
        raised = []
        try:
            got.extend(ctxs[0].values(P))
        except BudgetExceeded:
            raised.append("values")
        try:
            for p in P:
                want.append(ctxs[1].value(p))
        except BudgetExceeded:
            raised.append("value")
        return ctxs, got, want, raised

    def test_matches_value_calls(self):
        obj = make_objective("F1")
        P = self.batch(3, 0)
        (a, b), got, want, raised = self.run_both(obj, P, 100, warm=P[5])
        assert raised == []
        assert got == want
        assert ctx_state(a) == ctx_state(b)
        assert a.counter.count == 9

    def test_budget_runs_out_mid_batch(self):
        obj = make_objective("F1")
        P = self.batch(3, 1)
        (a, b), got, want, raised = self.run_both(obj, P, 6)
        assert raised == ["values", "value"]
        assert got == []
        assert a.counter.count == b.counter.count == 6
        assert ctx_state(a) == ctx_state(b)

    def test_stochastic_epoch(self):
        obj = make_objective("F4")
        P = self.batch(30, 2)
        (a, b), got, want, raised = self.run_both(obj, P, 100, epochs=2)
        assert raised == []
        assert got == want
        assert ctx_state(a) == ctx_state(b)


class TestDeviation:
    def test_max_norm(self):
        sd, vec = deviation((1.0, 2.0), ((0.0, 0.0), 0.0))
        assert sd == 2.0
        assert vec == (1.0, 2.0)

    def test_unknown_optimum(self):
        assert deviation((1.0,), None) == (None, None)


def test_better_is_strict():
    assert better(1.0, 2.0, Sense.MIN)
    assert not better(2.0, 2.0, Sense.MIN)
    assert better(2.0, 1.0, Sense.MAX)
    assert not better(1.0, 1.0, Sense.MAX)


def test_better_ranks_nan_worst():
    nan = float("nan")
    for sense in (Sense.MIN, Sense.MAX):
        assert better(1.0, nan, sense)
        assert not better(nan, 1.0, sense)
        assert not better(nan, nan, sense)
