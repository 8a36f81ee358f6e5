import itertools

import numpy as np
import pytest

from sgmopt.core import (BoxDomain, BudgetExceeded, EvalContext, EvalCounter,
                         Objective, RngStream, Sense, SgmConfig, better)
from sgmopt.refinement import (RefineState, crossover_adjacent_sides,
                               crossover_midpoint, ray_mutate, run_phase2,
                               select_best_vertex, sweep, sweep_directions)
from sgmopt.subdivision import (MOORE_FULL_MAX_DIM, LabeledVertex, Phase1Outcome,
                                initial_cell, run_phase1)
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
        p, v = select_best_vertex(out)
        assert tuple(p) == (0.0, 0.0) and v == -36.0

    def test_single_vertex(self):
        cell = initial_cell(make_objective("F1").domain)
        out = Phase1Outcome(cell, [vertex((0.0, 0.0, 0.0), (0, 0, 0), 0, 5.0)], 0, 0, False)
        p, _ = select_best_vertex(out)
        assert tuple(p) == (0.0, 0.0, 0.0)

    def test_tie_breaks_lexicographic_rel(self):
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        out = Phase1Outcome(cell, [
            vertex((1.0, -1.0), (2, 0), 1, -17.4),
            vertex((-1.0, -1.0), (0, 0), 0, -17.4),
        ], 0, 0, False)
        p, _ = select_best_vertex(out)
        assert tuple(p) == (-1.0, -1.0)

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    def test_nan_ranks_worst_and_all_nan_ties_go_to_lowest_rel(self, sense):
        # Vertex values are in minimisation form: a MAX run's are negated.
        nan = float("nan")
        sign = -1.0 if sense is Sense.MAX else 1.0
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        verts = [vertex((1.0, 1.0), (2, 2), 0, nan),
                 vertex((-1.0, 1.0), (0, 2), 0, nan),
                 vertex((1.0, -1.0), (2, 0), 0, sign * -np.inf)]
        p, v = select_best_vertex(Phase1Outcome(cell, verts, 0, 0, False))
        assert tuple(p) == (1.0, -1.0) and v == sign * -np.inf
        p, v = select_best_vertex(Phase1Outcome(cell, verts[:2], 0, 0, False))
        assert tuple(p) == (-1.0, 1.0) and v != v

    def test_max_sense(self):
        # A MAX run's vertices hold negated values: -17.4 is the larger.
        cell = initial_cell(make_objective("TP1", bounds=1.0).domain)
        out = Phase1Outcome(cell, [
            vertex((0.0, 0.0), (1, 1), 0, 36.0),
            vertex((1.0, 1.0), (2, 2), 2, 17.4),
        ], 0, 0, True)
        p, v = select_best_vertex(out)
        assert tuple(p) == (1.0, 1.0) and v == 17.4


def diagonals(n):
    """Every sign vector of dimension n <= MOORE_FULL_MAX_DIM, in sweep order."""
    return sweep_directions(n, np.zeros(n), np.zeros(n))


def reference_directions(n, s, center):
    """The direction list built in full on every call: every sign vector up
    to MOORE_FULL_MAX_DIM, else the main diagonals, the inward diagonal and
    the flips of both main diagonals axis by axis, first occurrences kept."""
    if n <= MOORE_FULL_MAX_DIM:
        return [tuple(p) for p in itertools.product((1, -1), repeat=n)]
    inward = np.sign(np.asarray(center, dtype=float) - np.asarray(s, dtype=float))
    inward = np.where(inward == 0, 1.0, inward)
    dirs = [tuple([1] * n), tuple([-1] * n), tuple(int(v) for v in inward)]
    for j in range(n):
        flip = [1] * n
        flip[j] = -1
        dirs.append(tuple(flip))
        flip2 = [-1] * n
        flip2[j] = 1
        dirs.append(tuple(flip2))
    return list(dict.fromkeys(dirs))


class TestDiagonalDirections:
    def test_n2(self):
        assert diagonals(2) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def test_n1(self):
        assert diagonals(1) == [(1,), (-1,)]

    def test_n3_all_ones_first(self):
        dirs = diagonals(3)
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

    def test_matches_reference(self):
        """Same tuples of Python ints in the same order, with s off the
        center, on it along some axes (inward +1 there), and one axis away
        from it, where the inward diagonal is a main diagonal or a flip."""
        rng = np.random.default_rng(4)
        for k in range(400):
            n = int(rng.integers(1, 41))
            center = rng.uniform(-3.0, 3.0, n)
            s = rng.uniform(-5.0, 5.0, n)
            if k % 3 == 1:
                s = np.where(rng.random(n) < 0.5, center, s)
            elif k % 3 == 2:
                s = center.copy()
                s[rng.integers(n)] += rng.choice([-1.0, 1.0])
            got = sweep_directions(n, s, center)
            assert got == reference_directions(n, s, center)
            assert all(type(c) is int for d in got for c in d)


class TestRayMutate:
    def test_basic(self):
        assert tuple(ray_mutate((0.0, 0.0), (1, 1), 0.1)) == (0.1, 0.1)

    def test_reaches_origin(self):
        assert tuple(ray_mutate((0.5, 0.5), (-1, -1), 0.5)) == (0.0, 0.0)

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


def needle_at_origin():
    """-1 at the origin exactly, 0 everywhere else: no ray from
    (0.25, -0.25) lands on it, the rotation at beta 0.25 along (-1, 1)
    does."""
    return Objective(name="NEEDLE", dim=2, domain=BoxDomain(np.full(2, -1.0), np.ones(2)),
                     fn=lambda p: -1.0 if not p.any() else 0.0)


class TestAlphaSweep:
    def test_tp1_first_improvement(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.array([0.5, 0.5]), s_value=obj.fn(np.array([0.5, 0.5])))
        got = sweep(state, ctx, SgmConfig(), [(-1, -1)])
        assert got is not None
        p, v = got
        assert tuple(p) == (0.4, 0.4)
        assert v < state.s_value
        assert state.rotations_used == 0  # a ray won, so no rotation was tried

    def test_no_improvement_from_optimum(self):
        obj = make_objective("F1")
        ctx = make_ctx(obj)
        state = RefineState(s=np.zeros(3), s_value=0.0)
        assert sweep(state, ctx, SgmConfig(), diagonals(3)) is None

    def test_all_endpoints_infeasible(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.array([1.0, 1.0]), s_value=obj.fn(np.array([1.0, 1.0])))
        before = ctx.counter.count
        assert sweep(state, ctx, SgmConfig(), [(1, 1)]) is None
        assert ctx.counter.count == before  # infeasible candidates cost nothing


class TestRotationalSweep:
    def test_finds_origin(self):
        obj = needle_at_origin()
        ctx = make_ctx(obj)
        state = RefineState(s=np.array([0.25, -0.25]), s_value=0.0)
        got = sweep(state, ctx, SgmConfig(), diagonals(2))
        assert got is not None
        p, v = got
        assert tuple(p) == (0.0, 0.0) and v == -1.0
        # beta 0.1 along (1, 1), (1, -1), (-1, 1), then beta 0.25 to (-1, 1)
        assert state.rotations_used == 6

    def test_cap_exhausted(self):
        obj = needle_at_origin()
        ctx = make_ctx(obj)
        state = RefineState(s=np.array([0.25, -0.25]), s_value=0.0, rotations_used=5)
        cfg = SgmConfig(trm_max=5)
        assert sweep(state, ctx, cfg, diagonals(2)) is None
        assert state.rotations_used == 5

    def test_no_improvement_at_optimum(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.zeros(2), s_value=-36.0)
        assert sweep(state, ctx, SgmConfig(), diagonals(2)) is None
        assert state.rotations_used > 0

    def test_counts_candidates_tried(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        state = RefineState(s=np.zeros(2), s_value=-36.0)
        cfg = SgmConfig(trm_max=7)
        sweep(state, ctx, cfg, diagonals(2))
        assert state.rotations_used == 7


def reference_rays(state, ctx, config, directions):
    """The ray loop, one candidate at a time: each direction at 1x..10x
    alpha_base."""
    for d in directions:
        for m in range(1, 11):
            p = ray_mutate(state.s, d, m * config.alpha_base * state.scale)
            if not ctx.feasible(p):
                continue
            v = ctx.value(p)
            if better(v, state.s_value):
                return p, v
    return None


def reference_rotations(state, ctx, config, directions):
    """The rotation loop, one candidate at a time: each beta over every
    direction but the last, checking trm_max before each candidate.  It
    adds the rotations it used to ``state.rotations_used`` when it returns,
    so a budget stop leaves the count as it was."""
    used = 0
    for beta in config.beta_sweep:
        for e in directions[:-1]:
            if state.rotations_used + used >= config.trm_max:
                break
            p = ray_mutate(state.s, e, beta * state.scale)
            if not ctx.feasible(p):
                continue
            v = ctx.value(p)
            used += 1
            if better(v, state.s_value):
                state.rotations_used += used
                return p, v
    state.rotations_used += used
    return None


def reference_sweep(state, ctx, config, directions):
    """The point-by-point sweep ``sweep`` must reproduce: the ray loop,
    then, with no ray better, the rotation loop."""
    return (reference_rays(state, ctx, config, directions)
            or reference_rotations(state, ctx, config, directions))


def objective_in_box(n, sense, kind):
    """A sphere, a staircase with many ties, or a needle, in an asymmetric
    box.  The sphere and the staircase sit around a shifted optimum.  The
    needle improves only at 0.25 past the lower corner along all-ones: from
    that corner no ray lands on it at scale 1, but a rotation does."""
    lo, hi = np.full(n, -2.0), np.full(n, 3.0)
    lo[0] = -1.5
    shift = np.random.default_rng(n).uniform(lo, hi)
    sign = 1.0 if sense is Sense.MIN else -1.0

    def fn(p):
        if kind == "needle":
            return -sign if np.array_equal(p, lo + 0.25) else 0.0
        if kind == "steps":
            return sign * float(np.sum(np.floor(2.0 * np.abs(p - shift))))
        return sign * float(np.sum((p - shift) ** 2))
    return Objective(name=f"S{n}", dim=n, domain=BoxDomain(lo, hi), fn=fn), shift


def sweep_cases(n):
    """(objective, sense, incumbent, scale, trm_max, budget, warm-up points):
    incumbents on the box boundary, inside it and at the optimum (where no
    candidate improves), caps that stop the rotations mid-batch, budgets
    that run out mid-sweep (10 does so in the rotations from the lower
    corner), and warm-up points that put some of the sweep's candidates in
    the cache beforehand."""
    cases = []
    for sense, kind in ((Sense.MIN, "sphere"), (Sense.MAX, "sphere"),
                        (Sense.MIN, "steps"), (Sense.MAX, "needle")):
        obj, shift = objective_in_box(n, sense, kind)
        lo, hi = obj.domain.lo, obj.domain.hi
        mixed = np.where(np.arange(n) % 2 == 0, lo, hi)
        inner = lo + 0.3 * (hi - lo)
        for s in (lo, hi, mixed, inner, shift):
            d0 = np.ones(n)
            warm = [s + 0.2 * d0, s - 0.1 * d0, s + 0.1 * d0]
            for scale in (1.0, 0.25):
                for trm, budget in ((50, 100_000), (3, 100_000), (0, 100_000),
                                    (50, 5), (50, 10), (50, 17)):
                    cases.append((obj, sense, s, scale, trm, budget, warm))
    return cases


def sweep_run(sweep_fn, ctx, state, config, dirs):
    """Outcome of one sweep plus every piece of state it may touch."""
    count = ctx.counter.count
    try:
        got = sweep_fn(state, ctx, config, dirs)
        out = None if got is None else (repr(got[0].tolist()), got[1])
    except BudgetExceeded:
        out = "budget"
    return out, (ctx.counter.count, dict(ctx._cache), repr(ctx.best_point),
                 ctx.best_value, state.rotations_used), ctx.counter.count - count


def sweep_start(case):
    """The case's directions, config, and a context and state with the
    warm-up points evaluated."""
    obj, sense, s, scale, trm, budget, warm = case
    ctx = make_ctx(obj, budget=budget, sense=sense)
    for p in warm:
        if ctx.feasible(p) and ctx.counter.remaining > 1:
            ctx.value(p)
    s_value = ctx.value(s) if obj.stochastic else ctx.sign * obj.fn(s)
    state = RefineState(s=s.copy(), s_value=s_value, scale=scale)
    dirs = sweep_directions(obj.dim, s, obj.domain.center)
    return dirs, SgmConfig(trm_max=trm), ctx, state


def all_cases(n):
    if n < 30:
        return sweep_cases(n)
    return [(make_objective("F4"), Sense.MIN, np.full(30, 0.3), 1.0, trm, budget, [])
            for trm, budget in ((75, 100_000), (4, 100_000), (75, 300))]


class TestSweepsMatchReference:
    @pytest.mark.parametrize("n", list(range(1, 9)) + [30])
    def test_batched_equals_reference(self, n):
        for case in all_cases(n):
            runs = []
            for sweep_fn in (sweep, reference_sweep):
                dirs, config, ctx, state = sweep_start(case)
                runs.append(sweep_run(sweep_fn, ctx, state, config, dirs))
            if n > MOORE_FULL_MAX_DIM:
                assert len(dirs) < 2 ** n
            assert runs[0] == runs[1], (n, case[1:6])

    def test_cases_reach_every_stop(self):
        """In each block the cases stop where batching could go wrong: at
        an improvement, at the budget, at the end of the block, and in the
        rotations at the cap with candidates left, where cache hits
        counted toward trm_max."""
        stops = set()
        for n in (2, 7):
            for case in sweep_cases(n):
                dirs, config, ctx, state = sweep_start(case)
                out, _, _ = sweep_run(reference_rays, ctx, state, config, dirs)
                stops.add(("ray", out if out in (None, "budget") else "better"))
                if out is not None:
                    continue
                out, after, evaluated = sweep_run(reference_rotations, ctx, state,
                                                  config, dirs)
                stops.add(("rot", out if out in (None, "budget") else "better"))
                used = after[4]
                if out is None and 0 < used == config.trm_max:
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
        best_vertex, best_val = select_best_vertex(out)
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
