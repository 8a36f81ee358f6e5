import itertools

import numpy as np
import pytest

from sgmopt.core import (BoxDomain, EvalContext, EvalCounter, LabelStrategy,
                         Objective, RefinementLimit, RngStream, Sense,
                         SgmConfig, contains)
from sgmopt.subdivision import (MOORE_FULL_MAX_DIM, best_neighbor, initial_cell,
                                is_completely_labeled, label_by_direction,
                                label_by_gradient, label_vertex, neighborhood,
                                run_phase1)
from sgmopt.testbed import make_objective


def make_ctx(obj, budget=100_000, seed=0, sense=Sense.MIN):
    return EvalContext(obj, EvalCounter(budget), RngStream(seed), sense)


def box(lo, hi, n=2):
    return BoxDomain(np.full(n, float(lo)), np.full(n, float(hi)))


class TestInitialCell:
    def test_unit_square_corners(self):
        cell = initial_cell(box(-1, 1))
        corners = {tuple(cell.corner(i)) for i in range(4)}
        assert corners == {(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)}

    def test_3d_corners(self):
        cell = initial_cell(box(-5.12, 5.12, n=3))
        assert 2 ** cell.dim == 8
        assert len({tuple(cell.corner(i)) for i in range(8)}) == 8

    def test_1d(self):
        cell = initial_cell(box(0, 1, n=1))
        assert {tuple(cell.corner(i)) for i in range(2)} == {(0.0,), (1.0,)}


class TestNeighborhood:
    def test_full_moore_interior(self):
        pts = neighborhood(np.zeros(2), np.ones(2), box(-1, 1))
        assert len(pts) == 8

    def test_corner_clipping(self):
        pts = neighborhood(np.array([-1.0, -1.0]), np.ones(2), box(-1, 1))
        assert [tuple(p) for p in pts] == [(-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)]

    def test_1d_boundary(self):
        pts = neighborhood(np.array([0.0]), np.array([0.5]), box(0, 1, n=1))
        assert [tuple(p) for p in pts] == [(0.5,)]

    def test_lexicographic_order(self):
        pts = neighborhood(np.zeros(2), np.ones(2), box(-2, 2))
        expected = [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0), (0.0, -1.0),
                    (0.0, 1.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)]
        assert [tuple(p) for p in pts] == expected

    def test_capped_high_dimension(self):
        n = 30
        b = BoxDomain(np.full(n, -1.28), np.full(n, 1.28))
        p = np.full(n, -1.28)
        pts = neighborhood(p, np.full(n, 1.28), b, center_hint=np.zeros(n))
        # feasible: +h per axis and the all-up diagonal reaching the center
        assert len(pts) == n + 1
        assert any(np.allclose(q, 0.0) for q in pts)


def reference_neighborhood(p, h, box, center_hint=None):
    """One offset pattern at a time: the construction the batched
    ``neighborhood`` must reproduce bit for bit and in order."""
    n = p.size
    if n <= MOORE_FULL_MAX_DIM:
        patterns = [np.array(pat) for pat in itertools.product((-1.0, 0.0, 1.0), repeat=n)
                    if any(pat)]
    else:
        patterns = []
        for i in range(n):
            for s in (-1.0, 1.0):
                pat = np.zeros(n)
                pat[i] = s
                patterns.append(pat)
        patterns += [-np.ones(n), np.ones(n)]
        if center_hint is not None:
            inward = np.sign(np.asarray(center_hint, dtype=float) - p)
            if np.any(inward) and not (np.all(inward == 1.0) or np.all(inward == -1.0)):
                patterns.append(inward)
    return [q for q in (p + pat * h for pat in patterns) if contains(box, q)]


def neighborhood_cases(n):
    """(p, h, box, center_hint) on and inside the box, with -0.0 coordinates."""
    lo, hi = np.full(n, -2.0), np.full(n, 3.0)
    lo[0] = -1.5
    b = BoxDomain(lo, hi)
    h = (hi - lo) / 4
    mixed = np.where(np.arange(n) % 2 == 0, lo, hi)
    signed_zero = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
    inner = lo + h * (np.arange(1, n + 1) % 4)
    points = (lo, hi, mixed, signed_zero, inner, np.where(mixed == lo, inner, -0.0))
    hints = (None, 0.5 * (lo + hi), inner, signed_zero, lo)
    return [(p, h, b, c) for p in points for c in hints]


class TestNeighborhoodMatchesReference:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bitwise_in_order(self, n):
        for p, h, b, hint in neighborhood_cases(n):
            got = neighborhood(p, h, b, center_hint=hint)
            want = reference_neighborhood(p, h, b, center_hint=hint)
            assert [repr(q.tolist()) for q in got] == [repr(q.tolist()) for q in want]


class TestBestNeighbor:
    def test_tp1_corner_maps_to_origin(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        c, d = best_neighbor(ctx, np.array([-1.0, -1.0]), np.ones(2))
        assert tuple(c) == (0.0, 0.0)
        assert tuple(d) == (1.0, 1.0)

    def test_global_min_has_zero_direction(self):
        obj = make_objective("F1")
        ctx = make_ctx(obj)
        c, d = best_neighbor(ctx, np.zeros(3), np.full(3, 1.0))
        assert tuple(d) == (0.0, 0.0, 0.0)

    def test_tp1_upper_corner(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        _, d = best_neighbor(ctx, np.array([1.0, 1.0]), np.ones(2))
        assert tuple(d) == (-1.0, -1.0)

    def test_point_wins_ties(self):
        ctx = make_ctx(Objective("FLAT", 2, box(-2, 2), lambda p: 1.0))
        _, d = best_neighbor(ctx, np.array([1.0, 1.0]), np.ones(2))
        assert tuple(d) == (0.0, 0.0)

    def test_neighbor_ties_go_to_enumeration_order(self):
        # -max|x_i|: all eight neighbors of 0 tie, below 0 itself
        obj = Objective("PEAK", 2, box(-2, 2), lambda p: -float(np.max(np.abs(p))))
        _, d = best_neighbor(make_ctx(obj), np.zeros(2), np.ones(2))
        assert tuple(d) == (-1.0, -1.0)


class TestLabelRules:
    def test_direction_rule(self):
        assert label_by_direction((1.0, 1.0)) == 0
        assert label_by_direction((-1.0, 1.0)) == 1
        assert label_by_direction((-1.0, -1.0)) == 2
        assert label_by_direction((1.0, -1.0)) == 2

    def test_direction_zero_vector(self):
        assert label_by_direction(np.zeros(4)) == 0

    def test_gradient_rule(self):
        assert label_by_gradient((0.0, 0.0)) == 0
        assert label_by_gradient((-0.1, 0.3)) == 1
        assert label_by_gradient((0.3, -0.1)) == 2

    def test_gradient_zero_vector(self):
        assert label_by_gradient(np.zeros(4)) == 0

    def test_labels_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = rng.integers(1, 7)
            d = rng.normal(size=n)
            assert 0 <= label_by_direction(d) <= n
            assert 0 <= label_by_gradient(d) <= n


class TestLabelVertex:
    def test_level0_labels_on_tp1(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        cell = initial_cell(obj.domain)
        cfg = SgmConfig()
        got = {}
        for i in range(4):
            v = label_vertex(ctx, cell, i, cfg)
            got[v.point] = v.label
        assert got == {(-1.0, 1.0): 2, (1.0, 1.0): 2, (-1.0, -1.0): 0, (1.0, -1.0): 1}
        assert is_completely_labeled(got.values(), 2)

    def test_gradient_strategy_interior_stationary(self):
        obj = make_objective("F1")
        cfg = SgmConfig(labeling=LabelStrategy.GRADIENT)
        ctx = make_ctx(obj)
        cell = initial_cell(obj.domain).subdivide()[0].subdivide()[7]
        # cell whose upper corner is the origin
        idx = 2 ** cell.dim - 1
        assert tuple(cell.corner(idx)) == (0.0, 0.0, 0.0)
        v = label_vertex(ctx, cell, idx, cfg)
        assert v.label == 0

    def test_value_cached(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        cell = initial_cell(obj.domain)
        v = label_vertex(ctx, cell, 0, SgmConfig())
        assert v.value == obj.fn(np.asarray(v.point))


class TestCompletelyLabeled:
    def test_worked_example(self):
        assert is_completely_labeled([2, 2, 0, 1], 2)

    def test_missing_label(self):
        assert not is_completely_labeled([0, 0, 1, 1], 2)

    def test_3d(self):
        assert is_completely_labeled([0, 1, 2, 3, 3, 3, 3, 3], 3)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            is_completely_labeled([0, 1, 2], 2)


class TestSubdivide:
    def test_children_introduce_midpoint(self):
        cell = initial_cell(box(-1, 1))
        kids = cell.subdivide()
        assert len(kids) == 4
        assert all(tuple(k.step) == (1.0, 1.0) for k in kids)
        corner_pts = {tuple(k.corner(i)) for k in kids for i in range(4)}
        assert (0.0, 0.0) in corner_pts

    def test_3d_count(self):
        assert len(initial_cell(box(0, 1, n=3)).subdivide()) == 8

    def test_exact_halving(self):
        cell = initial_cell(box(-1, 1, n=1))
        for _ in range(2):
            cell = cell.subdivide()[0]
        assert cell.step[0] == 0.5

    def test_step_exact_to_level_40(self):
        cell = initial_cell(BoxDomain(np.array([-1.0, -3.0]), np.array([1.0, 7.0])))
        extent = cell.extent.copy()
        for level in range(1, 41):
            cell = cell.child(0)
            assert np.array_equal(cell.step, extent * 2.0 ** -level)
        with pytest.raises(RefinementLimit):
            cell.subdivide()

    def test_vertex_reconstruction_bitwise(self):
        cell = initial_cell(box(-5.12, 5.12, n=3))
        for _ in range(5):
            cell = cell.subdivide()[3]
        from sgmopt.subdivision import grid_point
        for i in range(2 ** cell.dim):
            rel = cell.corner_rel(i)
            reconstructed = grid_point(cell.lo, rel, cell.step)
            assert np.array_equal(reconstructed, cell.corner(i))

    def test_children_tile_parent(self):
        cell = initial_cell(box(0, 4))
        kids = cell.subdivide()
        bases = {tuple(k.base) for k in kids}
        assert bases == {(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)}


class TestRunPhase1:
    def test_tf0_returns_initial_cell(self):
        obj = make_objective("TP1", bounds=1.0)
        cfg = SgmConfig(tf_rounds=0)
        out = run_phase1(obj, cfg, make_ctx(obj))
        assert out.rounds_completed == 0
        assert out.cell.level == 0
        assert len(out.vertices) == 4

    def test_tp1_one_round(self):
        obj = make_objective("TP1", bounds=1.0)
        cfg = SgmConfig(tf_rounds=1)
        out = run_phase1(obj, cfg, make_ctx(obj))
        # level-0 labels were complete, and the selected child has the
        # introduced midpoint (0, 0) as a vertex
        corner_pts = {v.point for v in out.vertices}
        assert (0.0, 0.0) in corner_pts
        assert out.cell.level == 1
        assert out.rounds_completed == 1

    def test_f1_selected_cell_straddles_origin(self):
        obj = make_objective("F1")
        cfg = SgmConfig(tf_rounds=2)
        out = run_phase1(obj, cfg, make_ctx(obj))
        assert out.cell.contains_point(np.zeros(3))
        assert out.complete

        # independent check: label every level-2 cell of the zoom lineage
        # and confirm the one run_phase1 picked is the first complete one
        ctx = make_ctx(obj, seed=99)
        cfg2 = SgmConfig(tf_rounds=0)
        level0 = initial_cell(obj.domain)

        def labels_of(cell, ctx):
            return [label_vertex(ctx, cell, i, cfg2) for i in range(2 ** cell.dim)]

        def first_complete(cells, ctx):
            all_labeled = [labels_of(c, ctx) for c in cells]
            for c, verts in zip(cells, all_labeled):
                if is_completely_labeled([v.label for v in verts], obj.dim):
                    return c, verts
            return None, None

        sel0, _ = first_complete([level0], ctx)
        sel1, _ = first_complete(sel0.subdivide(), ctx)
        sel2, _ = first_complete(sel1.subdivide(), ctx)
        assert tuple(sel2.base) == tuple(out.cell.base)
        assert np.array_equal(sel2.step, out.cell.step)

    def test_shrinkage(self):
        obj = make_objective("TP1", bounds=1.0)
        for tf in (1, 2, 3):
            out = run_phase1(obj, SgmConfig(tf_rounds=tf),
                             make_ctx(obj))
            assert np.allclose(out.cell.step, 2.0 / 2 ** tf)

    def test_determinism(self):
        obj = make_objective("F2")
        cfg = SgmConfig(tf_rounds=2, seed=4)
        out1 = run_phase1(obj, cfg, make_ctx(obj, seed=4))
        out2 = run_phase1(obj, cfg, make_ctx(obj, seed=4))
        assert tuple(out1.cell.base) == tuple(out2.cell.base)
        assert [(v.point, v.label, v.value) for v in out1.vertices] == \
               [(v.point, v.label, v.value) for v in out2.vertices]
        assert out1.evaluations == out2.evaluations

    def test_budget_exhaustion_graceful(self):
        obj = make_objective("F3")
        cfg = SgmConfig(tf_rounds=2)
        ctx = make_ctx(obj, budget=50)
        out = run_phase1(obj, cfg, ctx)
        assert not out.complete
        assert ctx.counter.count <= 50

    def test_trace_sink_called_per_round(self):
        obj = make_objective("TP1", bounds=1.0)
        rounds = []
        run_phase1(obj, SgmConfig(tf_rounds=2),
                   make_ctx(obj), trace_sink=lambda r, cells, labeled: rounds.append(r))
        assert rounds == [0, 1, 2]

    def test_high_dimensional_zoom(self):
        obj = make_objective("F4")
        cfg = SgmConfig(tf_rounds=2, eval_budget=60_000)
        ctx = make_ctx(obj, budget=60_000, seed=3)
        out = run_phase1(obj, cfg, ctx)
        assert out.cell.level == 2
        # the zoom keeps the origin (global noise-free optimum) in the cell
        assert out.cell.contains_point(np.zeros(30))
        assert any(np.allclose(v.point, 0.0) for v in out.vertices)
