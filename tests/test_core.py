import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sgmopt
from sgmopt.baselines import random_search
from sgmopt.core import (BoxDomain, BudgetExceeded, EvalContext, EvalCounter,
                         Objective, ObjectiveError, RngStream, Sense, SgmConfig,
                         batch_form, better, contains, counted_eval,
                         deviation, rank, row_keys, vectorises)
from sgmopt.engine import solve
from sgmopt.testbed import VALID_NAMES, make_objective


def box2(lo, hi):
    return BoxDomain(np.array([lo, lo]), np.array([hi, hi]))


class TestBoxDomain:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, 0.0]), np.array([1.0, -1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, np.nan]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("lo,hi,message", [
        (np.zeros((1, 2)), np.ones((1, 2)), "point must be 1-D"),
        (np.zeros(2), np.ones(3), "lo/hi dimension mismatch"),
    ], ids=["not_1d", "dim_mismatch"])
    def test_rejects_malformed_bounds(self, lo, hi, message):
        with pytest.raises(ValueError, match=message):
            BoxDomain(lo, hi)

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


class TestObjective:
    @pytest.mark.parametrize("dim,stochastic,message", [
        (0, False, "dim must be positive"),
        (3, False, "domain dimension mismatch"),
        (2, True, "stochastic objectives must supply noise_free_fn"),
    ], ids=["dim_zero", "domain_mismatch", "stochastic_without_noise_free_part"])
    def test_rejects_inconsistent_fields(self, dim, stochastic, message):
        with pytest.raises(ValueError, match=message):
            Objective(name="Q", dim=dim, domain=box2(-1.0, 1.0), fn=lambda p: 0.0,
                      stochastic=stochastic)


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

    def test_tick_many_counts_all_or_none(self):
        counter = EvalCounter(5)
        counter.tick(3)
        with pytest.raises(BudgetExceeded):
            counter.tick(3)
        assert counter.count == 3
        counter.tick(2)
        assert counter.remaining == 0

    @pytest.mark.parametrize("budget", [0, -1])
    def test_counter_needs_a_positive_budget(self, budget):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            EvalCounter(budget)

    def test_out_of_domain_rejected(self):
        obj = make_objective("F2")
        with pytest.raises(ValueError):
            counted_eval(obj, (5.0, 0.0), EvalCounter(5))

    @pytest.mark.parametrize("p", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0),
                                   (0.0,), (0.0, 0.0, 0.0), [[0.0, 0.0]]])
    def test_bad_point_rejected_without_counting(self, p):
        obj = make_objective("F2")
        counter = EvalCounter(5)
        with pytest.raises(ValueError):
            counted_eval(obj, p, counter)
        assert counter.count == 0

    def test_boundary_accepted(self):
        obj = make_objective("F2")
        assert counted_eval(obj, obj.domain.hi, EvalCounter(1)) == obj.fn(obj.domain.hi)

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

    @staticmethod
    def numpy_twin(*entropy):
        """The numpy Generator an ``RngStream(*entropy)`` wraps."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    @pytest.mark.parametrize("name", VALID_NAMES)
    @pytest.mark.parametrize("rows", [None, 1, 512])
    def test_uniform_matches_generator(self, name, rows):
        box = make_objective(name).domain
        size = None if rows is None else (rows, box.dim)
        ours, numpys = RngStream(9, 1), self.numpy_twin(9, 1)
        for _ in range(3):
            got = ours.uniform(box.lo, box.hi, size=size)
            want = numpys.uniform(box.lo, box.hi, size=size)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_uniform_scalar_bounds(self):
        assert RngStream(4).uniform(-2.0, 3.0) == self.numpy_twin(4).uniform(-2.0, 3.0)

    def test_rejects_empty_entropy(self):
        with pytest.raises(ValueError, match="entropy tuple must be non-empty"):
            RngStream()

    def test_uniform_rejects_non_finite_range(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, np.inf])
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(lo, hi)
        with pytest.raises(OverflowError):
            RngStream(0).uniform(lo, hi)


class TestSgmConfig:
    def test_defaults_validate(self):
        SgmConfig().validate(make_objective("TP1"))

    def test_beta_must_increase(self):
        with pytest.raises(ValueError):
            SgmConfig(beta_sweep=(0.1, 0.1)).validate()

    @pytest.mark.parametrize("field,value,message", [
        ("alpha_base", np.nan, "alpha_base must be positive and finite"),
        ("alpha_base", np.inf, "alpha_base must be positive and finite"),
        ("tolerance", np.nan, "tolerance must be positive and finite"),
        ("tolerance", np.inf, "tolerance must be positive and finite"),
        ("beta_sweep", (0.1, np.nan), "beta_sweep must contain positive finite values"),
        ("beta_sweep", (0.1, np.inf), "beta_sweep must contain positive finite values"),
        ("tf_rounds", -1, "tf_rounds must be >= 0"),
        ("trm_max", -1, "trm_max/tc_max must be >= 0"),
        ("tc_max", -1, "trm_max/tc_max must be >= 0"),
        ("seed", -1, "seed must fit in 64 unsigned bits"),
        ("seed", 2**64, "seed must fit in 64 unsigned bits"),
    ])
    def test_rejects_non_finite_settings(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SgmConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["tf_rounds", "trm_max", "tc_max", "eval_budget", "seed"])
    @pytest.mark.parametrize("value", [np.nan, 2.5, 100.0, "3"])
    def test_rejects_non_integer_settings(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SgmConfig(**{field: value}).validate()
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            solve(make_objective("TP1"), SgmConfig(**{field: value}))
        SgmConfig(**{field: np.int64(2)}).validate()

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

    def test_sense_must_be_a_member(self):
        # A string would otherwise pick a sign silently.
        with pytest.raises(KeyError):
            EvalContext(make_objective("F1"), EvalCounter(10), RngStream(0), "max")

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


# Finite coordinates, with signed zeros and a few repeated values drawn
# often enough that equal rows occur.
coords = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(allow_nan=False,
                                                            allow_infinity=False)


def batches(rows=st.integers(1, 6), cols=st.integers(1, 30)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=coords))


class TestRowKeys:
    @settings(deadline=None)
    @given(batches())
    def test_keys_equal_exactly_when_rows_do(self, P):
        keys = row_keys(P)
        assert len(keys) == len(P)
        for i in range(len(P)):
            for j in range(len(P)):
                assert (keys[i] == keys[j]) == bool((P[i] == P[j]).all())

    @settings(deadline=None)
    @given(batches())
    def test_point_key_is_its_row_key(self, P):
        keys = row_keys(P)
        assert [row_keys(p) for p in P] == keys
        n = P.shape[1]
        obj = Objective("ZERO", n, BoxDomain(np.full(n, -1.0), np.ones(n)), lambda p: 0.0)
        ctx = EvalContext(obj, EvalCounter(100), RngStream(0), Sense.MIN)
        for p in P:
            ctx.value(p)
        assert set(ctx._cache) == set(keys)
        spent = ctx.counter.count
        ctx.values(P)
        # Strided rows with every zero negated hit the same entries.
        for p in np.asfortranarray(np.where(P == 0.0, -0.0, P)):
            ctx.value(p)
        assert ctx.counter.count == spent

    @settings(deadline=None)
    @given(batches(rows=st.integers(2, 12), cols=st.integers(2, 30)))
    def test_layout_does_not_change_keys(self, A):
        views = [A[1:], A[::2], A[:, ::2], A[::-1, 1:], np.asfortranarray(A),
                 np.asfortranarray(A)[::2, ::3]]
        for V in views:
            assert row_keys(V) == row_keys(V.copy(order="C"))

    def test_nan_row_hits_only_its_bit_twin(self):
        P = np.array([[np.nan, 1.0], [np.nan, 1.0], [-np.nan, 1.0]])
        keys = row_keys(P)
        assert keys[0] == keys[1] != keys[2]
        obj = Objective("SUM", 2, box2(-1.0, 1.0), lambda p: float(np.sum(p)))
        ctx = EvalContext(obj, EvalCounter(10), RngStream(0), Sense.MIN)
        assert [np.isnan(v) for v in ctx.values(P)] == [True] * 3
        assert ctx.counter.count == 2


def ctx_state(ctx):
    return (ctx.counter.count, dict(ctx._cache), repr(ctx.best_point), ctx.best_value)


def row_by_row(obj):
    """A copy of ``obj`` whose evaluated function wraps the test-bed one, so
    no batch form is registered for it."""
    if obj.stochastic:
        nf = obj.noise_free_fn
        return replace(obj, noise_free_fn=lambda p: nf(p))
    fn = obj.fn
    return replace(obj, fn=lambda p: fn(p))


def objective(name, path):
    obj = make_objective(name)
    obj = obj if path == "batch" else row_by_row(obj)
    fn = obj.noise_free_fn if obj.stochastic else obj.fn
    assert (batch_form(fn) is not None) == (path == "batch")
    return obj


class TestEvalContextValues:
    """``values(P)`` must equal successive ``value`` calls row by row.  The
    test-bed objectives here evaluate through their batch forms; the
    subclass below repeats every check without them."""

    path = "batch"

    @staticmethod
    def batch(n, seed):
        rng = np.random.default_rng(seed)
        P = rng.uniform(-1.0, 1.0, size=(12, n))
        P[3] = P[1]          # repeats hit the cache within the batch
        P[7] = 0.0
        P[8] = -0.0          # same cache key as the +0.0 row
        P[11] = P[0]
        return P

    @staticmethod
    def walk(n, seed, stop=None, far=0.0):
        """80 rows from [0.5, 1]^n, with repeats and signed zeros on both
        sides of row ``stop``, which holds ``far`` in every coordinate."""
        rng = np.random.default_rng(seed)
        P = rng.uniform(0.5, 1.0, size=(80, n))
        P[[20, 60], 0] = 0.0
        P[[9, 22, 41, 66, 75]] = P[[2, 20, 30, 60, 64]]
        P[[22, 66], 0] = -0.0   # same cache key as rows 20 and 60
        if stop is not None:
            P[stop] = far
        return P

    def run_both(self, obj, P, budget, epochs=0, warm=None, beat=None, sense=Sense.MIN):
        """``values(P, beat=beat)`` on one context, and on another the
        ``value`` calls it stands for: row by row up to the first row
        strictly better than ``beat``."""
        ctxs = [EvalContext(obj, EvalCounter(budget), RngStream(5), sense)
                for _ in range(2)]
        for ctx in ctxs:
            for _ in range(epochs):
                ctx.new_epoch()
            if warm is not None:
                ctx.value(warm)
        got, want = [], []
        raised = []
        try:
            got.extend(ctxs[0].values(P, beat=beat))
        except BudgetExceeded:
            raised.append("values")
        try:
            for p in P:
                want.append(ctxs[1].value(p))
                if beat is not None and better(want[-1], beat):
                    break
        except BudgetExceeded:
            raised.append("value")
        return ctxs, got, want, raised

    def test_matches_value_calls(self):
        obj = objective("F1", self.path)
        P = self.batch(3, 0)
        (a, b), got, want, raised = self.run_both(obj, P, 100, warm=P[5])
        assert raised == []
        assert got == want
        assert ctx_state(a) == ctx_state(b)
        assert a.counter.count == 9

    def test_budget_runs_out_mid_batch(self):
        obj = objective("F1", self.path)
        P = self.batch(3, 1)
        (a, b), got, want, raised = self.run_both(obj, P, 6)
        assert raised == ["values", "value"]
        assert got == []
        assert a.counter.count == b.counter.count == 6
        assert ctx_state(a) == ctx_state(b)

    @pytest.mark.parametrize("budget", [1, 4, 8])
    def test_budget_cut_at_other_rows(self, budget):
        obj = objective("F1", self.path)
        P = self.batch(3, 1)
        (a, b), got, want, raised = self.run_both(obj, P, budget)
        assert raised == ["values", "value"]
        assert a.counter.count == b.counter.count == budget
        assert ctx_state(a) == ctx_state(b)

    def test_stochastic_epoch(self):
        obj = objective("F4", self.path)
        P = self.batch(30, 2)
        (a, b), got, want, raised = self.run_both(obj, P, 100, epochs=2, warm=P[4])
        assert raised == []
        assert got == want
        assert ctx_state(a) == ctx_state(b)

    def test_stochastic_budget_cut(self):
        obj = objective("F4", self.path)
        P = self.batch(30, 2)
        (a, b), got, want, raised = self.run_both(obj, P, 7, epochs=2, warm=P[4])
        assert raised == ["values", "value"]
        assert a.counter.count == 7
        assert ctx_state(a) == ctx_state(b)

    @pytest.mark.parametrize("stop", [0, 37, 79, None])
    def test_beat_stops_at_first_better_row(self, stop):
        obj = objective("F1", self.path)
        P = self.walk(3, 4, stop)
        (a, b), got, want, raised = self.run_both(obj, P, 100, warm=P[30], beat=0.5)
        assert raised == []
        assert got == want
        assert len(got) == (80 if stop is None else stop + 1)
        assert ctx_state(a) == ctx_state(b)

    def test_beat_stops_on_cache_hit(self):
        obj = objective("F1", self.path)
        P = self.walk(3, 5, 37)
        (a, b), got, want, raised = self.run_both(obj, P, 100, warm=-P[37], beat=0.5)
        assert raised == [] and len(got) == 38
        assert got == want
        assert ctx_state(a) == ctx_state(b)
        assert a.counter.count == 1 + len(set(row_keys(P[:37])))

    @pytest.mark.parametrize("spare", [-1, 0, 5])
    def test_beat_budget_cut_around_stop(self, spare):
        obj = objective("F1", self.path)
        P = self.walk(3, 6, 50)
        budget = len(set(row_keys(P[:51]))) + spare
        (a, b), got, want, raised = self.run_both(obj, P, budget, beat=0.5)
        assert raised == (["values", "value"] if spare < 0 else [])
        assert got == ([] if spare < 0 else want)
        assert a.counter.count == b.counter.count == min(budget, budget - spare)
        assert ctx_state(a) == ctx_state(b)

    def test_beat_nan_is_beaten_by_the_first_number(self):
        obj = objective("F1", self.path)
        P = self.walk(3, 7)
        (a, b), got, want, raised = self.run_both(obj, P, 100, beat=float("nan"))
        assert raised == [] and got == want and len(got) == 1
        assert ctx_state(a) == ctx_state(b)

    def test_beat_max_sense(self):
        # Under MAX, values and ``beat`` are negated: row 44 (F1 = 75) is
        # the first above 10.
        obj = objective("F1", self.path)
        P = self.walk(3, 8, 44, far=5.0)
        (a, b), got, want, raised = self.run_both(obj, P, 100, beat=-10.0, sense=Sense.MAX)
        assert raised == [] and got == want and len(got) == 45
        assert got == [-obj.fn(p) for p in P[:45]]
        assert ctx_state(a) == ctx_state(b)

    def test_beat_stochastic_epoch(self):
        obj = objective("F4", self.path)
        P = self.walk(30, 9, 61)
        ref = EvalContext(obj, EvalCounter(1), RngStream(5), Sense.MIN)
        ref.new_epoch()
        ref.new_epoch()
        beat = ref._noise_offset + 1.0
        (a, b), got, want, raised = self.run_both(obj, P, 100, epochs=2, warm=P[4], beat=beat)
        assert raised == [] and got == want and len(got) == 62
        assert ctx_state(a) == ctx_state(b)

    def test_sign_is_exact(self):
        """``value``, ``values`` (with and without ``beat``, 70 rows
        reaching the batch path) and ``gradient`` return f under MIN and
        -f under MAX, bit for bit on +-0.0 and +-inf; NaN stays NaN."""
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.5])

        def rows(P):
            return specials[P[:, 0].astype(int)]

        def fn(p):
            return float(rows(p[None])[0])

        vectorises(fn)(rows)
        obj = Objective("SPECIALS", 1, BoxDomain(np.zeros(1), np.full(1, 6.0)),
                        fn if self.path == "batch" else (lambda p: fn(p)),
                        gradient_fn=lambda p: specials)
        P = np.arange(7.0)[:, None]
        for sense, sign in ((Sense.MIN, 1.0), (Sense.MAX, -1.0)):
            want = [repr(sign * v) if v == v else "nan" for v in specials.tolist()]

            def ctx():
                return EvalContext(obj, EvalCounter(100), RngStream(0), sense)
            assert [repr(ctx().value(p)) for p in P] == want
            assert list(map(repr, ctx().values(P))) == want
            assert list(map(repr, ctx().values(np.tile(P, (10, 1)), beat=-np.inf))) == want * 10
            assert list(map(repr, ctx().gradient(P[0]).tolist())) == want


class TestEvalContextValuesRowByRow(TestEvalContextValues):
    """The same checks on copies of the objectives with no batch form."""

    path = "rows"


def counting_sphere():
    """A scalar sphere with a registered batch form that records the rows
    it is called with."""
    seen = []

    def sphere(p):
        return float((np.asarray(p) ** 2).sum())

    @vectorises(sphere)
    def sphere_rows(P):
        seen.append(P.tolist())
        return (P ** 2).sum(axis=1)

    return Objective("SPHERE", 2, box2(-1.0, 1.0), sphere), seen


class TestBatchForm:
    def test_called_once_with_first_occurrence_of_each_miss(self):
        obj, seen = counting_sphere()
        ctx = EvalContext(obj, EvalCounter(4), RngStream(0), Sense.MIN)
        ctx.value(np.array([0.5, 0.5]))
        P = np.array([[0.5, 0.5], [0.0, 0.0], [0.25, 0.0], [-0.0, 0.0],
                      [0.25, 0.0], [0.0, 0.5], [1.0, 1.0]])
        with pytest.raises(BudgetExceeded):
            ctx.values(P)
        assert seen == [[[0.0, 0.0], [0.25, 0.0], [0.0, 0.5]]]
        assert ctx.counter.count == 4
        P[1] = 0.75      # the best point is a copy, not a view of P
        assert ctx.best_point.tolist() == [0.0, 0.0]
        assert ctx.values(P[2:5]) == [0.0625, 0.0, 0.0625]
        assert len(seen) == 1

    def test_long_walk_is_one_batch_call(self):
        obj, seen = counting_sphere()
        ctx = EvalContext(obj, EvalCounter(100), RngStream(0), Sense.MIN)
        P = np.linspace(1.0, 0.0, 64).repeat(2).reshape(64, 2)
        assert ctx.values(P, beat=0.5)[-1] < 0.5
        assert len(seen) == 1 and len(seen[0]) == 64
        # Rows past the stop were computed, but neither counted nor cached.
        assert ctx.counter.count == 33
        ctx.value(P[40])
        assert ctx.counter.count == 34

    def test_short_walk_never_calls_the_batch_form(self):
        obj, seen = counting_sphere()
        ctx = EvalContext(obj, EvalCounter(100), RngStream(0), Sense.MIN)
        P = np.linspace(1.0, 0.0, 63).repeat(2).reshape(63, 2)
        assert ctx.values(P, beat=-1.0) == [obj.fn(p) for p in P]
        assert seen == [] and ctx.counter.count == 63

    def test_replaced_fn_never_calls_the_old_batch_form(self):
        obj, seen = counting_sphere()
        calls = []

        def g(p):
            calls.append(1)
            return -float(np.sum(p))

        new = replace(obj, fn=g)
        assert batch_form(new.fn) is None
        ctx = EvalContext(new, EvalCounter(100), RngStream(0), Sense.MIN)
        P = np.array([[0.5, 0.5], [0.0, 0.25], [1.0, 1.0]])
        assert ctx.values(P) == [-1.0, -0.25, -2.0]
        r = random_search(new, 600, RngStream(0))
        assert r.best_value == g(np.asarray(r.best_point))
        assert len(calls) == 3 + 1 + 600 and seen == []

    def test_error_becomes_objective_error(self):
        sent = []

        def fn(p):
            return float(np.sum(p))

        @vectorises(fn)
        def fn_rows(P):
            sent.append(len(P))
            raise ZeroDivisionError("batch")

        obj = Objective("RAISES", 2, box2(-1.0, 1.0), fn)
        ctx = EvalContext(obj, EvalCounter(100), RngStream(0), Sense.MIN)
        ctx.value(np.array([1.0, 1.0]))
        P = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(ObjectiveError) as info:
            ctx.values(P)
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        # Both rows sent to the batch form count; neither is cached.
        assert ctx.counter.count == 3
        assert list(ctx._cache.values()) == [2.0]
        assert (repr(ctx.best_point), ctx.best_value) == (repr(np.array([1.0, 1.0])), 2.0)
        assert ctx.value(np.array([1.0, 1.0])) == 2.0
        assert ctx.counter.count == 3

        # Through solve, phase 1's first chunk sends the four box corners
        # and their Moore neighbours, the nine points of the 3 x 3 grid, to
        # the batch form in one call; it raises before any value is known,
        # so there is no ``partial``.
        with pytest.raises(ObjectiveError) as info:
            solve(obj, SgmConfig(eval_budget=100))
        assert info.value.partial is None
        assert sent == [2, 9]


class TestDeviation:
    def test_max_norm(self):
        sd, vec = deviation((1.0, 2.0), ((0.0, 0.0), 0.0))
        assert sd == 2.0
        assert vec == (1.0, 2.0)

    def test_unknown_optimum(self):
        assert deviation((1.0,), None) == (None, None)


def test_better_is_strict():
    assert better(1.0, 2.0)
    assert not better(2.0, 2.0)
    # A MAX run compares negated values: 2.0 beats 1.0 as -2.0 < -1.0.
    assert better(-2.0, -1.0)
    assert not better(-1.0, -1.0)


# NaN, +-0.0 and +-inf drawn often, next to ordinary floats.
ranked_floats = st.one_of(st.sampled_from([float("nan"), 0.0, -0.0, np.inf, -np.inf, 1.0]),
                          st.floats(allow_nan=True, allow_infinity=True))


@settings(deadline=None, max_examples=500)
@given(ranked_floats, ranked_floats)
def test_better_ranks_nan_worst(a, b):
    nan = float("nan")
    assert better(1.0, nan)
    assert not better(nan, 1.0)
    assert not better(nan, nan)
    assert rank(nan) == rank(-nan)
    assert rank(nan) > max(rank(np.inf), rank(-np.inf))
    # ``better`` is the strict order of ``rank``, on values and on the
    # negated values a MAX run compares.
    assert better(a, b) == (rank(a) < rank(b))
    assert better(-a, -b) == (rank(-a) < rank(-b))


def imported_modules(path: Path):
    """Every module an ``import`` in the sgmopt source file ``path`` names,
    relative imports resolved, plus ``module.name`` for each name a
    ``from module import name`` takes (that name may be a submodule)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["sgmopt" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["core", "subdivision", "refinement", "engine"])
def test_sgm_modules_do_not_import_testbed(module):
    path = Path(sgmopt.__file__).parent / f"{module}.py"
    bad = [m for m in imported_modules(path)
           if m == "sgmopt.testbed" or m.startswith("sgmopt.testbed.")]
    assert bad == [], f"sgmopt.{module} imports the test bed: {bad}"
