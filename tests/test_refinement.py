import numpy as np
import pytest

from sgmopt.core import (BoxDomain, BudgetExceeded, EvalContext, EvalCounter,
                         Objective, RngStream, Sense, SgmConfig, better)
from sgmopt.refinement import (DIR_FULL_MAX_DIM, RefineState,
                               crossover_adjacent_sides, crossover_midpoint,
                               diagonal_directions, ray_mutate, ray_sweep,
                               rotational_sweep, run_phase2, select_best_vertex,
                               sweep_directions)
from sgmopt.subdivision import (LabeledVertex, Phase1Outcome, initial_cell,
                                run_phase1)
from sgmopt.testbed import make_objective


def make_ctx(obj, budget=100_000, seed=0, sense=Sense.MIN):
    return EvalContext(obj, EvalCounter(budget), RngStream(seed), sense)


def outcome_for(obj, tf=2, seed=0, budget=100_000):
    ctx = make_ctx(obj, budget=budget, seed=seed)
    cfg = SgmConfig(tf_rounds=tf)
    return run_phase1(obj, cfg, ctx), ctx


def vertex(point, rel, label, value):
    return LabeledVertex(tuple(point), tuple(rel), label, value)


class TestSelectBestVertex:
    def test_lowest_value_wins(self):
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        out = Phase1Outcome(cell, [
            vertex((-1.0, 1.0), (0, 2), 2, -17.4),
            vertex((1.0, 1.0), (2, 2), 2, -17.4),
            vertex((0.0, 0.0), (1, 1), 0, -36.0),
        ], 0, 1, True)
        p, v = select_best_vertex(out, Sense.MIN)
        assert tuple(p) == (0.0, 0.0) and v == -36.0

    def test_single_vertex(self):
        cell = initial_cell(make_objective("F1").domain)
        out = Phase1Outcome(cell, [vertex((0.0, 0.0, 0.0), (0, 0, 0), 0, 5.0)], 0, 0, False)
        p, _ = select_best_vertex(out, Sense.MIN)
        assert tuple(p) == (0.0, 0.0, 0.0)

    def test_tie_breaks_lexicographic_rel(self):
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        out = Phase1Outcome(cell, [
            vertex((1.0, -1.0), (2, 0), 1, -17.4),
            vertex((-1.0, -1.0), (0, 0), 0, -17.4),
        ], 0, 0, False)
        p, _ = select_best_vertex(out, Sense.MIN)
        assert tuple(p) == (-1.0, -1.0)

    def test_max_sense(self):
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        out = Phase1Outcome(cell, [
            vertex((0.0, 0.0), (1, 1), 0, -36.0),
            vertex((1.0, 1.0), (2, 2), 2, -17.4),
        ], 0, 0, True)
        p, _ = select_best_vertex(out, Sense.MAX)
        assert tuple(p) == (1.0, 1.0)


class TestDiagonalDirections:
    def test_n2(self):
        assert diagonal_directions(2) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def test_n1(self):
        assert diagonal_directions(1) == [(1,), (-1,)]

    def test_n3_all_ones_first(self):
        dirs = diagonal_directions(3)
        assert len(dirs) == 8
        assert dirs[0] == (1, 1, 1)

    def test_capped_sweep_directions(self):
        n = 30
        s = np.full(n, -1.0)
        dirs = sweep_directions(n, s, np.zeros(n))
        assert dirs[0] == tuple([1] * n)
        assert dirs[1] == tuple([-1] * n)
        assert tuple([1] * n) in dirs  # inward from all-negative s is all-ones
        assert len(dirs) == len(set(dirs)) <= 2 * n + 3


class TestRayMutate:
    def test_basic(self):
        assert tuple(ray_mutate((0.0, 0.0), (1, 1), 0.1)) == (0.1, 0.1)

    def test_reaches_origin(self):
        assert tuple(ray_mutate((0.5, 0.5), (-1, -1), 0.5)) == (0.0, 0.0)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            ray_mutate((3.0, 0.5), (1, -1), 0.0)

    def test_norms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = rng.integers(1, 6)
            s = rng.normal(size=n)
            d = rng.choice([-1.0, 1.0], size=n)
            alpha = float(rng.uniform(0.01, 2.0))
            step = ray_mutate(s, d, alpha) - s
            assert np.max(np.abs(step)) == pytest.approx(alpha)
            assert np.linalg.norm(step) == pytest.approx(alpha * np.sqrt(n))


class TestAlphaSweep:
    def test_tp1_first_improvement(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.array([0.5, 0.5]), s_value=obj.fn(np.array([0.5, 0.5])),
                            cell=initial_cell(obj.domain))
        got = ray_sweep(state, ctx, SgmConfig(), [(-1, -1)])
        assert got is not None
        p, v = got
        assert tuple(p) == (0.4, 0.4)
        assert v < state.s_value

    def test_no_improvement_from_optimum(self):
        obj = make_objective("F1")
        ctx = make_ctx(obj)
        state = RefineState(s=np.zeros(3), s_value=0.0, cell=initial_cell(obj.domain))
        for d in diagonal_directions(3):
            assert ray_sweep(state, ctx, SgmConfig(), [d]) is None

    def test_all_endpoints_infeasible(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.array([1.0, 1.0]), s_value=obj.fn(np.array([1.0, 1.0])),
                            cell=initial_cell(obj.domain))
        before = ctx.counter.count
        assert ray_sweep(state, ctx, SgmConfig(), [(1, 1)]) is None
        assert ctx.counter.count == before  # infeasible candidates cost nothing


class TestRotationalSweep:
    def test_finds_origin(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        s = np.array([0.1, -0.1])
        state = RefineState(s=s, s_value=obj.fn(s), cell=initial_cell(obj.domain))
        got = rotational_sweep(state, ctx, SgmConfig(), diagonal_directions(2))
        assert got is not None
        p, v = got
        assert tuple(p) == (0.0, 0.0)
        assert v == -36.0

    def test_cap_exhausted(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        s = np.array([0.1, -0.1])
        state = RefineState(s=s, s_value=obj.fn(s), cell=initial_cell(obj.domain),
                            rotations_used=5)
        cfg = SgmConfig(trm_max=5)
        assert rotational_sweep(state, ctx, cfg, diagonal_directions(2)) is None

    def test_no_improvement_at_optimum(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.zeros(2), s_value=-36.0, cell=initial_cell(obj.domain))
        assert rotational_sweep(state, ctx, SgmConfig(), diagonal_directions(2)) is None
        assert state.rotations_used > 0

    def test_counts_candidates_tried(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.zeros(2), s_value=-36.0, cell=initial_cell(obj.domain))
        cfg = SgmConfig(trm_max=7)
        rotational_sweep(state, ctx, cfg, diagonal_directions(2))
        assert state.rotations_used == 7


def reference_ray_sweep(state, ctx, config, directions):
    """One candidate at a time: the loop the batched ``ray_sweep`` must
    reproduce."""
    for d in directions:
        for m in range(1, 11):
            alpha = m * config.alpha_base * state.scale
            p = ray_mutate(state.s, d, alpha)
            state.last_ray = (tuple(d), alpha)
            if not ctx.feasible(p):
                continue
            v = ctx.value(p)
            if better(v, state.s_value, ctx.sense):
                return p, v
    return None


def reference_rotational_sweep(state, ctx, config, directions):
    """One candidate at a time, checking trm_max before each."""
    skip = state.last_ray[0] if state.last_ray is not None else None
    for beta in config.beta_sweep:
        for e in directions:
            if skip is not None and tuple(e) == skip:
                continue
            if state.rotations_used >= config.trm_max:
                return None
            p = ray_mutate(state.s, e, beta * state.scale)
            if not ctx.feasible(p):
                continue
            v = ctx.value(p)
            state.rotations_used += 1
            if better(v, state.s_value, ctx.sense):
                return p, v
    return None


def objective_in_box(n, sense, steps):
    """A sphere, or with ``steps`` a staircase with many ties, around a
    shifted optimum in an asymmetric box."""
    lo, hi = np.full(n, -2.0), np.full(n, 3.0)
    lo[0] = -1.5
    shift = np.random.default_rng(n).uniform(lo, hi)
    sign = 1.0 if sense is Sense.MIN else -1.0

    def fn(p):
        if steps:
            return sign * float(np.sum(np.floor(2.0 * np.abs(p - shift))))
        return sign * float(np.sum((p - shift) ** 2))
    return Objective(name=f"S{n}", dim=n, domain=BoxDomain(lo, hi), fn=fn), shift


def sweep_cases(n):
    """(objective, sense, incumbent, scale, trm_max, budget, warm-up points):
    incumbents on the box boundary, inside it and at the optimum (where no
    candidate improves), caps that stop the rotational sweep mid-batch,
    budgets that run out mid-sweep, and warm-up points that put some of
    the sweeps' candidates in the cache beforehand."""
    cases = []
    for sense, steps in ((Sense.MIN, False), (Sense.MAX, False), (Sense.MIN, True)):
        obj, shift = objective_in_box(n, sense, steps)
        lo, hi = obj.domain.lo, obj.domain.hi
        mixed = np.where(np.arange(n) % 2 == 0, lo, hi)
        inner = lo + 0.3 * (hi - lo)
        for s in (lo, hi, mixed, inner, shift):
            d0 = np.ones(n)
            warm = [s + 0.2 * d0, s - 0.1 * d0, s + 0.1 * d0]
            for scale in (1.0, 0.25):
                for trm, budget in ((50, 100_000), (3, 100_000), (0, 100_000),
                                    (50, 5), (50, 17)):
                    cases.append((obj, sense, s, scale, trm, budget, warm))
    return cases


def sweep_run(sweep, ctx, state, config, dirs):
    """Outcome of one sweep plus every piece of state it may touch."""
    try:
        got = sweep(state, ctx, config, dirs)
        out = None if got is None else (repr(got[0].tolist()), got[1])
    except BudgetExceeded:
        out = "budget"
    return out, (ctx.counter.count, dict(ctx._cache), repr(ctx.best_point),
                 ctx.best_value, state.rotations_used, state.last_ray)


def sweep_start(obj, sense, s, scale, budget, warm, last_ray=None):
    ctx = make_ctx(obj, budget=budget, sense=sense)
    for p in warm:
        if ctx.feasible(p) and ctx.counter.remaining > 1:
            ctx.value(p)
    s_value = ctx.value(s) if obj.stochastic else obj.fn(s)
    state = RefineState(s=s.copy(), s_value=s_value, cell=initial_cell(obj.domain),
                        scale=scale, last_ray=last_ray)
    return ctx, state


def sweep_sequences(case):
    """The directions of one case and its sweep sequences, each as (sweeps,
    last_ray at the start): a ray sweep and then a rotational sweep, as
    run_phase2 runs them, and a rotational sweep alone, skipping the last
    direction."""
    obj, sense, s, scale, trm, budget, warm = case
    dirs = sweep_directions(obj.dim, s, obj.domain.center)
    return dirs, [(("ray", "rot"), None), (("rot",), (dirs[-1], 1.0))]


BATCHED = {"ray": ray_sweep, "rot": rotational_sweep}
REFERENCE = {"ray": reference_ray_sweep, "rot": reference_rotational_sweep}


def run_sequence(impl, case, dirs, kinds, last_ray):
    obj, sense, s, scale, trm, budget, warm = case
    config = SgmConfig(sense=sense, trm_max=trm)
    ctx, state = sweep_start(obj, sense, s, scale, budget, warm, last_ray)
    out = []
    for kind in kinds:
        count = ctx.counter.count
        out.append(sweep_run(impl[kind], ctx, state, config, dirs))
        out[-1] += (ctx.counter.count - count,)
    return out


def all_cases(n):
    if n < 30:
        return sweep_cases(n)
    return [(make_objective("F4"), Sense.MIN, np.full(30, 0.3), 1.0, trm, budget, [])
            for trm, budget in ((75, 100_000), (4, 100_000), (75, 300))]


class TestSweepsMatchReference:
    @pytest.mark.parametrize("n", list(range(1, 9)) + [30])
    def test_batched_equals_reference(self, n):
        for case in all_cases(n):
            dirs, sequences = sweep_sequences(case)
            if n > DIR_FULL_MAX_DIM:
                assert len(dirs) < 2 ** n
            for kinds, last_ray in sequences:
                got = run_sequence(BATCHED, case, dirs, kinds, last_ray)
                want = run_sequence(REFERENCE, case, dirs, kinds, last_ray)
                assert got == want, (n, kinds, case[1:6])

    def test_cases_reach_every_stop(self):
        """The cases stop where batching could go wrong: at an improvement,
        at the budget, at the end of the sweep, and at the rotation cap
        with candidates left, where cache hits counted toward trm_max."""
        stops = set()
        for n in (2, 7):
            for case in sweep_cases(n):
                trm = case[4]
                dirs, sequences = sweep_sequences(case)
                for kinds, last_ray in sequences:
                    run = run_sequence(REFERENCE, case, dirs, kinds, last_ray)
                    for kind, (out, state, evaluated) in zip(kinds, run):
                        stops.add((kind, out if out in (None, "budget") else "better"))
                        used = state[4]
                        if kind == "rot" and out is None and 0 < used == trm:
                            stops.add(("rot", "cap"))
                            if evaluated < used:
                                stops.add(("rot", "cap with hits"))
        assert stops >= {("ray", "better"), ("ray", None), ("ray", "budget"),
                         ("rot", "better"), ("rot", None), ("rot", "budget"),
                         ("rot", "cap"), ("rot", "cap with hits")}


class TestCrossoverMidpoint:
    def test_examples(self):
        assert tuple(crossover_midpoint((2.0, 4.0), (4.0, 2.0))) == (3.0, 3.0)
        assert tuple(crossover_midpoint((1.0, 1.0), (1.0, 1.0))) == (1.0, 1.0)
        assert tuple(crossover_midpoint((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))) == (0.0, 0.0, 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            crossover_midpoint((1.0,), (1.0, 2.0))

    def test_symmetry_and_convexity(self):
        rng = np.random.default_rng(9)
        lo, hi = -3.0, 7.0
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            p1 = rng.uniform(lo, hi, size=n)
            p2 = rng.uniform(lo, hi, size=n)
            m12 = crossover_midpoint(p1, p2)
            m21 = crossover_midpoint(p2, p1)
            assert np.array_equal(m12, m21)
            assert np.all(m12 >= np.minimum(p1, p2)) and np.all(m12 <= np.maximum(p1, p2))


class TestCrossoverAdjacentSides:
    def test_2d_near_upper_corner(self):
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        mids = {tuple(m) for m in crossover_adjacent_sides(cell, np.array([0.9, 0.95]))}
        assert mids == {(0.0, 1.0), (1.0, 0.0)}

    def test_3d_gives_three_midpoints(self):
        cell = initial_cell(make_objective("F1").domain)
        mids = crossover_adjacent_sides(cell, np.array([5.0, 5.0, 5.0]))
        assert len(mids) == 3

    def test_tie_takes_lex_smaller_corner(self):
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        mids = {tuple(m) for m in crossover_adjacent_sides(cell, np.zeros(2))}
        # center is equidistant from all corners: corner (-1, -1) wins
        assert mids == {(0.0, -1.0), (-1.0, 0.0)}

    @staticmethod
    def per_edge_reference(cell, idx):
        """The per-edge loop: midpoint of the corner and its neighbour
        across each axis."""
        corner = cell.corner(idx)
        mids = []
        for j in range(cell.dim):
            other = corner.copy()
            if (idx >> j) & 1:
                other[j] -= cell.step[j]
            else:
                other[j] += cell.step[j]
            mids.append(crossover_midpoint(corner, other))
        return mids

    def test_matches_per_edge_loop(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            lo = rng.uniform(-5.0, 0.0, size=n)
            box = BoxDomain(lo, lo + rng.uniform(0.5, 4.0, size=n))
            cells = [initial_cell(box)]
            cells.append(cells[0].subdivide()[int(rng.integers(2 ** n))])
            for cell in cells:
                for idx in range(2 ** n):
                    got = crossover_adjacent_sides(cell, cell.corner(idx))
                    want = self.per_edge_reference(cell, idx)
                    assert len(got) == n
                    assert [repr(m.tolist()) for m in got] == \
                        [repr(m.tolist()) for m in want]


class TestRunPhase2:
    def test_tp1_reaches_origin(self):
        obj = make_objective("TP1", bounds=1.0)
        out, ctx = outcome_for(obj, tf=2)
        state, gens, trace = run_phase2(out, obj, SgmConfig(tf_rounds=2), ctx)
        assert np.max(np.abs(state.s)) <= 1e-3
        assert gens >= 1

    def test_caps_zero_returns_incumbent(self):
        obj = make_objective("TP1", bounds=1.0)
        out, ctx = outcome_for(obj, tf=2)
        cfg = SgmConfig(trm_max=0, tc_max=0)
        state, gens, trace = run_phase2(out, obj, cfg, ctx)
        best_vertex, best_val = select_best_vertex(out, Sense.MIN)
        assert np.array_equal(state.s, best_vertex)
        assert gens == 0

    def test_monotone_incumbent(self):
        obj = make_objective("BEALE")
        out, ctx = outcome_for(obj, tf=3)
        _, _, trace = run_phase2(out, obj, SgmConfig(tf_rounds=3), ctx)
        vals = [row[1] for row in trace]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_candidate_accounting(self):
        obj = make_objective("F2")
        cfg = SgmConfig(tf_rounds=2, trm_max=16, tc_max=11)
        out, ctx = outcome_for(obj, tf=2)
        state, _, _ = run_phase2(out, obj, cfg, ctx)
        assert state.rotations_used <= 16
        assert state.crossovers_used <= 11

    def test_feasibility_throughout(self):
        obj = make_objective("F5")
        cfg = SgmConfig(tf_rounds=8, trm_max=9, tc_max=2)
        out, ctx = outcome_for(obj, tf=8)
        state, _, _ = run_phase2(out, obj, cfg, ctx)
        assert ctx.feasible(state.s)

    def test_budget_exhaustion_graceful(self):
        obj = make_objective("BEALE")
        out, ctx = outcome_for(obj, tf=3, budget=200)
        cfg = SgmConfig(tf_rounds=3, eval_budget=200)
        state, gens, trace = run_phase2(out, obj, cfg, ctx)
        assert ctx.counter.count <= 200
        assert ctx.feasible(state.s)
