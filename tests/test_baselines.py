import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmopt.baselines import (DE_JONG_COLUMNS, RS_BLOCK, SaConfig, de_row, random_search,
                              reference_table, rslmga_row, simulated_annealing)
from sgmopt.core import (BoxDomain, Objective, RngStream, RunResult, batch_form, better,
                         box_mask, vectorises)
from sgmopt.testbed import VALID_NAMES, make_objective


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

    def test_rejects_a_non_integer_budget(self):
        # A bool is a Python int, but not a budget.
        for budget in (100.0, True, False):
            with pytest.raises(ValueError, match=f"^budget must be an integer, got {budget!r}$"):
                random_search(make_objective("F1"), budget, RngStream(0))
        assert random_search(make_objective("F1"), np.int64(100), RngStream(0)).evaluations == 100

    def test_rejects_a_box_too_wide_to_draw_from(self):
        # The box is refused where it is built, before random search runs.
        # Warnings are errors here, so this also checks that none comes first.
        with pytest.raises(ValueError, match="finite hi - lo"):
            random_search(wide_objective(), 3, RngStream(0))


def wide_objective():
    """A 2-D objective on a box whose extent hi - lo overflows to inf;
    building its BoxDomain raises ValueError."""
    return Objective("WIDE", 2, BoxDomain(np.full(2, -1e308), np.full(2, 1e308)),
                     lambda p: 0.0)


def bowl_on(box):
    """A 2-D bowl in the box's own units, finite on any BoxDomain."""
    return Objective("BOWL", 2, box,
                     lambda p: float((((p - box.lo) / box.extent - 0.5) ** 2).sum()))


# Boxes at the edge of what BoxDomain admits: bounds near the float limit,
# and a box 1e-12 wide.
EDGE_BOXES = {
    "NEARLIMIT": lambda: bowl_on(BoxDomain(np.full(2, -1e308), np.full(2, 7e307))),
    "NARROW": lambda: bowl_on(BoxDomain(np.full(2, 0.3), np.full(2, 0.3 + 1e-12))),
}


def row_by_row(obj):
    """A copy of ``obj`` whose fn wraps the test-bed one, so random search
    evaluates it one draw at a time; a stochastic one is passed the rng."""
    fn = obj.fn
    return replace(obj, fn=lambda p, *rng: fn(p, *rng))


# F4's batch form draws the noise of a block's rows in one call, and must
# leave the stream where its row-by-row calls do.  perfbench's traced runs
# wrap fn, so they evaluate one draw at a time, and rely on this equality.
@pytest.mark.parametrize("name", ["TP1", "BEALE", "F1", "F2", "F3", "F4", "F5"])
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


# Random search's boxes: the test bed's, one 1e-12 wide, one whose extent is
# near the float limit, and one whose bounds are not symmetric about 0.
RS_BOXES = {
    **{name: make_objective(name).domain for name in VALID_NAMES},
    "narrow": BoxDomain(np.full(2, 0.3), np.full(2, 0.3 + 1e-12)),
    "near_limit": BoxDomain(np.full(2, -1e308), np.full(2, 7e307)),
    "skewed": BoxDomain(np.array([-5.12, -2.048]), np.array([1.28, 0.7])),
}
RS_PATHS = ("batch", "row_by_row", "stochastic")


def recording_objective(box: BoxDomain, path: str):
    """(objective, calls): a max-norm objective on ``box`` that random search
    evaluates by ``path``, and the list of (argument, copy taken at the
    call) for each call of its fn or batch form."""
    calls = []

    def fn(p, *rng):
        calls.append((p, p.copy()))
        return float(np.max(np.abs(p))) + (rng[0].random() if rng else 0.0)

    @vectorises(fn)
    def rows(P, *rng):
        calls.append((P, P.copy()))
        return np.max(np.abs(P), axis=1) + (rng[0].random(len(P)) if rng else 0.0)
    obj = Objective("RECORDING", box.dim, box, fn if path == "batch" else lambda p: fn(p))
    if path == "stochastic":
        obj = replace(obj, fn=fn, stochastic=True, noise_free_fn=lambda p: fn(p))
    return obj, calls


class TestRandomSearchDraws:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2))
    def test_the_largest_draw_lies_in_the_box(self, bounds):
        # The rounding argument in random_search, at the largest u that
        # Generator.random returns, on any box that BoxDomain accepts.
        lo, hi = np.array([min(bounds)]), np.array([max(bounds)])
        try:
            BoxDomain(lo, hi)
        except ValueError:
            return
        assert (lo + (hi - lo) * (1.0 - 2.0**-53) <= hi).all()

    @pytest.mark.parametrize("path", RS_PATHS)
    @pytest.mark.parametrize("box", sorted(RS_BOXES))
    def test_every_draw_lies_in_the_box_and_is_never_written(self, box, path):
        obj, calls = recording_objective(RS_BOXES[box], path)
        r = random_search(obj, 2 * RS_BLOCK + 7, RngStream(5, 1))
        P = np.concatenate([np.atleast_2d(p) for p, _ in calls])
        assert len(P) == r.evaluations
        assert box_mask(obj.domain, P).all()
        assert all(p.tobytes() == copy.tobytes() for p, copy in calls)
        assert len(calls) == (r.evaluations if path == "row_by_row" else 3)


def noisy(p, rng):
    """A quadratic whose noise grows with |x_n|, NaN where x_1 > 0."""
    if p[0] > 0.0:
        return float("nan")
    return float(np.sum((p - 0.3) ** 2) + abs(p[-1]) * rng.normal())


def block_reference(obj: Objective, budget: int, rng: RngStream) -> RunResult:
    """Random search on a stochastic objective, written out: the points of
    each block of up to RS_BLOCK draws come first, then each row is
    evaluated with the rng in turn and ranked by ``better``."""
    t0 = time.perf_counter()
    lo, hi = obj.domain.lo, obj.domain.hi
    best_x = best_v = None
    trace = []
    for start in range(0, budget, RS_BLOCK):
        X = lo + (hi - lo) * rng.random((min(RS_BLOCK, budget - start), obj.dim))
        for i, x in enumerate(X, start):
            v = float(obj.fn(x, rng))
            if best_v is None or better(v, best_v):
                best_x, best_v = x, v
                trace.append((i, v, tuple(float(c) for c in best_x)))
    return RunResult.build(obj, best_x, best_v, budget, budget, trace, t0)


@pytest.mark.parametrize("budget", [1, 2, 300, RS_BLOCK + 3])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_stochastic_random_search_equals_the_block_reference(n, budget):
    obj = Objective("NOISY", n, BoxDomain(np.full(n, -1.0), np.full(n, 1.0)), noisy,
                    stochastic=True, noise_free_fn=lambda p: noisy(p, RngStream(0)))
    nan_first = 0
    for seed in range(6):
        got = random_search(obj, budget, RngStream(seed, n))
        want = block_reference(obj, budget, RngStream(seed, n))
        assert repr(got.without_wallclock()) == repr(want.without_wallclock())
        nan_first += np.isnan(want.trace[0][1])
    assert nan_first    # some run starts at NaN, which any later number beats


SA_BOX_CASES = ["F1", "F2", "F3", "F4", "F5", "NEARLIMIT", "NARROW"]


@functools.lru_cache(maxsize=None)
def recorded_annealing(name: str, seed: int):
    """(objective, result, P, unwritten) of a default annealing run on the
    test-bed function or edge box ``name`` from ``RngStream(seed, 3)``: P
    holds a copy of each point its fn was called at, taken at the call, and
    ``unwritten`` says whether every point still held that copy's bytes when
    the run ended."""
    obj = EDGE_BOXES[name]() if name in EDGE_BOXES else make_objective(name)
    fn, seen = obj.fn, []

    def recording(p, *rng):
        seen.append((p, p.copy()))
        return fn(p, *rng)
    r = simulated_annealing(replace(obj, fn=recording), SaConfig(), RngStream(seed, 3))
    P = np.array([copy for _, copy in seen])
    return obj, r, P, all(p.tobytes() == copy.tobytes() for p, copy in seen)


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
        with pytest.raises(ValueError, match="^t0 must exceed t_min = 1e-05$"):
            SaConfig(t0=SaConfig.t_min).validate()

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

    @pytest.mark.parametrize("value", [np.nan, 2.5, 30.0, "30", True, False])
    def test_rejects_non_integer_steps(self, value):
        message = "^steps_per_temp must be an integer"
        with pytest.raises(ValueError, match=message):
            SaConfig(steps_per_temp=value).validate()
        with pytest.raises(ValueError, match=message):
            simulated_annealing(make_objective("TP1"), SaConfig(steps_per_temp=value), RngStream(0))
        SaConfig(steps_per_temp=np.int64(30)).validate()

    @pytest.mark.parametrize("name", SA_BOX_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_proposal_lies_in_the_box(self, name, seed):
        obj, r, P, unwritten = recorded_annealing(name, seed)
        assert len(P) == r.evaluations
        assert ((P >= obj.domain.lo) & (P <= obj.domain.hi)).all()
        # Proposals are built in place; none is written once evaluated.
        assert unwritten

    @pytest.mark.parametrize("name", SA_BOX_CASES)
    def test_some_proposals_are_clamped(self, name):
        # Coverage for the clamp, over the seeds above: a single seed may
        # clamp none (F5 clamps 0, 5 and 1 proposals on seeds 0-2, F2 127,
        # 171 and 0).
        clamped = 0
        for seed in (0, 1, 2):
            obj, _, P, _ = recorded_annealing(name, seed)
            clamped += ((P == obj.domain.lo) | (P == obj.domain.hi)).any(axis=1).sum()
        assert clamped

    def test_tp1_converges(self):
        obj = make_objective("TP1")
        r = simulated_annealing(obj, SaConfig(), RngStream(11, 0))
        assert max(abs(r.best_point[0]), abs(r.best_point[1])) <= 0.1

    def test_rejects_a_box_too_wide_to_draw_from(self):
        with pytest.raises(ValueError, match="finite hi - lo"):
            simulated_annealing(wide_objective(), SaConfig(), RngStream(0))


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


def sa_reference(obj: Objective, sa: SaConfig, rng: RngStream) -> RunResult:
    """Simulated annealing written out: each stage draws its proposal
    offsets and acceptance draws in one block each, each proposal is a fresh
    expression, and the Metropolis test ranks by ``better`` and takes libm's
    ``exp``."""
    t0_clock = time.perf_counter()
    box = obj.domain

    def call(p):
        return float(obj.fn(p, rng) if obj.stochastic else obj.fn(p))
    x = rng.uniform(box.lo, box.hi)
    base_sigma = sa.proposal_scale * box.extent
    fx = call(x)
    best_x, best_v = x, fx
    trace = [(0, fx, tuple(float(c) for c in x))]
    temp = sa.t0
    stage = 0
    while temp > sa.t_min:
        stage += 1
        if temp < 0.01 * sa.t0:
            x, fx = best_x, best_v
        sigma = base_sigma * max(np.sqrt(temp / sa.t0), 0.02)
        Z = rng.normal(size=(sa.steps_per_temp, obj.dim)) * sigma
        U = rng.random(sa.steps_per_temp)
        for z, u in zip(Z, U):
            prop = np.minimum(np.maximum(x + z, box.lo), box.hi)
            fp = call(prop)
            if better(fp, fx) or u < math.exp(-(fp - fx) / temp):
                x, fx = prop, fp
            if better(fp, best_v):
                best_x, best_v = prop, fp
                trace.append((stage, fp, tuple(float(c) for c in prop)))
        temp *= sa.cooling
    return RunResult.build(obj, best_x, best_v, 1 + stage * sa.steps_per_temp, stage, trace,
                           t0_clock)


@pytest.mark.parametrize("make", [
    nan_first_objective,
    lambda: Objective("HOLEY", 2, BoxDomain(np.full(2, -2.0), np.full(2, 2.0)), holey),
    lambda: Objective("NOISY", 3, BoxDomain(np.full(3, -1.0), np.full(3, 1.0)), noisy,
                      stochastic=True, noise_free_fn=lambda p: noisy(p, RngStream(0))),
], ids=["nan_first", "holey", "noisy"])
def test_simulated_annealing_equals_the_reference(make):
    # NaN values exercise the ranking at both of the walk's tests.
    sa = SaConfig(cooling=0.8, steps_per_temp=7, proposal_scale=0.3)
    for seed in range(3):
        got = simulated_annealing(make(), sa, RngStream(seed, 8))
        want = sa_reference(make(), sa, RngStream(seed, 8))
        assert repr(got.without_wallclock()) == repr(want.without_wallclock())


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
