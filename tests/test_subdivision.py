import itertools

import numpy as np
import pytest

from sgmopt.core import (BoxDomain, BudgetExceeded, EvalContext, EvalCounter,
                         LabelStrategy, Objective, RefinementLimit, RngStream,
                         Sense, SgmConfig, better, box_mask, contains, rank,
                         vectorises)
from sgmopt.subdivision import (MOORE_FULL_MAX_DIM, LabeledVertex, _select_cell,
                                best_neighbor, grid_point, initial_cell,
                                label_by_direction, label_by_gradient, label_round,
                                label_vertex, moore_offsets, neighborhood, run_phase1)
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


def feasible_neighbors(p, h, b, center_hint=None):
    """The in-box rows of ``neighborhood`` for the one point p, in order."""
    hints = None if center_hint is None else np.asarray(center_hint, dtype=float)[None]
    Q, mask = neighborhood(np.asarray(p, dtype=float)[None], h, b, hints)
    return Q[0][mask[0]]


class TestNeighborhood:
    def test_full_moore_interior(self):
        pts = feasible_neighbors(np.zeros(2), np.ones(2), box(-1, 1))
        assert len(pts) == 8

    def test_corner_clipping(self):
        pts = feasible_neighbors(np.array([-1.0, -1.0]), np.ones(2), box(-1, 1))
        assert [tuple(p) for p in pts] == [(-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)]

    def test_1d_boundary(self):
        pts = feasible_neighbors(np.array([0.0]), np.array([0.5]), box(0, 1, n=1))
        assert [tuple(p) for p in pts] == [(0.5,)]

    def test_lexicographic_order(self):
        pts = feasible_neighbors(np.zeros(2), np.ones(2), box(-2, 2))
        expected = [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0), (0.0, -1.0),
                    (0.0, 1.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)]
        assert [tuple(p) for p in pts] == expected

    def test_capped_high_dimension(self):
        n = 30
        b = BoxDomain(np.full(n, -1.28), np.full(n, 1.28))
        p = np.full(n, -1.28)
        pts = feasible_neighbors(p, np.full(n, 1.28), b, center_hint=np.zeros(n))
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
            got = feasible_neighbors(p, h, b, center_hint=hint)
            want = reference_neighborhood(p, h, b, center_hint=hint)
            assert [repr(q.tolist()) for q in got] == [repr(q.tolist()) for q in want]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_batch_rows_match_one_point_calls(self, n):
        cases = neighborhood_cases(n)
        h, b = cases[0][1], cases[0][2]
        V = np.array([p for p, _, _, _ in cases])
        hints = np.array([0.5 * (b.lo + b.hi) if c is None else c for _, _, _, c in cases])
        Q, mask = neighborhood(V, h, b, hints)
        for q, m, p, c in zip(Q, mask, V, hints):
            want = reference_neighborhood(p, h, b, center_hint=c)
            assert [repr(r.tolist()) for r in q[m]] == [repr(r.tolist()) for r in want]


class TestBestNeighbor:
    def test_tp1_corner_maps_to_origin(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        (c,), (d,), _ = best_neighbor(ctx, np.array([[-1.0, -1.0]]), np.ones(2))
        assert tuple(c) == (0.0, 0.0)
        assert tuple(d) == (1.0, 1.0)

    def test_global_min_has_zero_direction(self):
        obj = make_objective("F1")
        ctx = make_ctx(obj)
        _, (d,), _ = best_neighbor(ctx, np.zeros((1, 3)), np.full(3, 1.0))
        assert tuple(d) == (0.0, 0.0, 0.0)

    def test_tp1_upper_corner(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        _, (d,), _ = best_neighbor(ctx, np.array([[1.0, 1.0]]), np.ones(2))
        assert tuple(d) == (-1.0, -1.0)

    def test_point_wins_ties(self):
        ctx = make_ctx(Objective("FLAT", 2, box(-2, 2), lambda p: 1.0))
        _, (d,), _ = best_neighbor(ctx, np.array([[1.0, 1.0]]), np.ones(2))
        assert tuple(d) == (0.0, 0.0)

    def test_neighbor_ties_go_to_enumeration_order(self):
        # -max|x_i|: all eight neighbors of 0 tie, below 0 itself
        obj = Objective("PEAK", 2, box(-2, 2), lambda p: -float(np.max(np.abs(p))))
        _, (d,), _ = best_neighbor(make_ctx(obj), np.zeros((1, 2)), np.ones(2))
        assert tuple(d) == (-1.0, -1.0)


def reference_best(vals):
    """The row ``better`` picks, one comparison at a time."""
    best = 0
    for i in range(1, len(vals)):
        if better(vals[i], vals[best]):
            best = i
    return best


class TestBestNeighborRanking:
    """best_neighbor picks the same row as ``better``, the first of smallest
    ``rank``, over values with NaN, +-inf and ties, under both senses: a
    MAX context ranks the negated values."""

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    def test_matches_reference(self, sense):
        rng = np.random.default_rng(11)
        p, h = np.zeros(2), np.ones(2)
        P = np.vstack([p, feasible_neighbors(p, h, box(-2, 2))])
        pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1.0, -1.0])
        for _ in range(400):
            vals = rng.choice(pool, size=len(P))
            table = {tuple(q): v for q, v in zip(P.tolist(), vals.tolist())}
            obj = Objective("TABLE", 2, box(-2, 2), lambda q: table[tuple(q.tolist())])
            ctx = make_ctx(obj, sense=sense)
            (c,), (d,), _ = best_neighbor(ctx, p[None], h)
            mins = (ctx.sign * vals).tolist()
            want = reference_best(mins)
            # The row ``better`` picks is the first of smallest ``rank``.
            assert want == min(range(len(P)), key=lambda i: (rank(mins[i]), i))
            assert c.tolist() == P[want].tolist(), vals
            assert d.tolist() == (P[want] - p).tolist()

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    def test_all_nan_keeps_the_point(self, sense):
        obj = Objective("NAN", 2, box(-2, 2), lambda q: float("nan"))
        _, (d,), _ = best_neighbor(make_ctx(obj, sense=sense), np.zeros((1, 2)), np.ones(2))
        assert d.tolist() == [0.0, 0.0]

    def test_nan_point_loses_to_infinite_neighbour(self):
        # Under MAX, even -inf beats NaN.
        obj = Objective("NANINF", 2, box(-2, 2),
                        lambda q: float("nan") if not q.any() else -np.inf)
        _, (d,), _ = best_neighbor(make_ctx(obj, sense=Sense.MAX), np.zeros((1, 2)), np.ones(2))
        assert d.tolist() == [-1.0, -1.0]


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
            v = label_vertex(ctx, cell, cell.corner_rel(i), cfg)
            got[v.point] = v.label
        assert got == {(-1.0, 1.0): 2, (1.0, 1.0): 2, (-1.0, -1.0): 0, (1.0, -1.0): 1}
        assert set(got.values()) == {0, 1, 2}

    def test_gradient_strategy_interior_stationary(self):
        obj = make_objective("F1")
        cfg = SgmConfig(labeling=LabelStrategy.GRADIENT)
        ctx = make_ctx(obj)
        cell = initial_cell(obj.domain).subdivide()[0].subdivide()[7]
        # cell whose upper corner is the origin
        idx = 2 ** cell.dim - 1
        assert tuple(cell.corner(idx)) == (0.0, 0.0, 0.0)
        v = label_vertex(ctx, cell, cell.corner_rel(idx), cfg)
        assert v.label == 0

    def test_value_cached(self):
        obj = make_objective("TP1", bounds=1.0)
        ctx = make_ctx(obj)
        cell = initial_cell(obj.domain)
        v = label_vertex(ctx, cell, cell.corner_rel(0), SgmConfig())
        assert v.value == obj.fn(np.asarray(v.point))


# The per-vertex labeling that ``label_round`` replaced, kept as its
# reference: one ``value`` call for the vertex, one neighborhood, one
# ``values`` call on [v, neighbors], and a label cache per round.

def reference_vertex_neighborhood(p, h, box, center_hint):
    offsets = moore_offsets(p.size)
    if p.size > MOORE_FULL_MAX_DIM and center_hint is not None:
        inward = np.sign(np.asarray(center_hint, dtype=float) - p)
        if inward.any() and not ((inward == 1.0).all() or (inward == -1.0).all()):
            offsets = np.vstack([offsets, inward])
    Q = p + offsets * h
    return Q[box_mask(box, Q)]


def reference_label_vertex(ctx, cell, rel, config):
    v = grid_point(cell.lo, rel, cell.step)
    value = ctx.value(v)
    if config.labeling is LabelStrategy.BEST_NEIGHBOR:
        P = np.vstack([v, reference_vertex_neighborhood(v, 0.5 * cell.step, ctx.obj.domain,
                                                        cell.center)])
        d = P[reference_best(ctx.values(P))] - v
        neg = np.flatnonzero(d < 0)
        label = 0 if neg.size == 0 else int(neg[-1]) + 1
    else:
        box = ctx.obj.domain
        off = 1e-9 * cell.step
        x = np.where(v <= box.lo, v + off, v)
        x = np.where(v >= box.hi, x - off, x)
        label = label_by_gradient(ctx.gradient(x))
    return LabeledVertex(tuple(float(c) for c in v), rel, label, value)


def reference_label_round(ctx, candidates, config):
    label_cache = {}
    labeled = [[] for _ in candidates]
    try:
        for ci, cell in enumerate(candidates):
            for idx in cell.corner_indices():
                rel = cell.corner_rel(idx)
                vert = label_cache.get(rel)
                if vert is None:
                    vert = reference_label_vertex(ctx, cell, rel, config)
                    label_cache[rel] = vert
                labeled[ci].append(vert)
    except BudgetExceeded:
        return labeled, True
    return labeled, False


def patchy(n, batched):
    """A bowl with ties, NaN, +inf and -inf on parts of the box and a band
    of -0.0, with or without a registered batch form."""
    def rows(P):
        f = np.round(((P - 0.3) ** 2).sum(axis=1), 1)
        f = np.where((P[:, -1] >= 0.4) & (P[:, -1] <= 0.6), -0.0, f)
        f = np.where(P[:, 0] > 1.0, np.nan, f)
        f = np.where((P[:, 0] < -0.7) & (P[:, -1] < -0.7), np.inf, f)
        return np.where((P[:, 0] > 0.5) & (P[:, -1] < -0.5), -np.inf, f)

    def fn(p):
        return float(rows(p[None])[0])

    if batched:
        vectorises(fn)(rows)
    lo = np.full(n, -1.0)
    lo[0] = -1.25
    return Objective(f"PATCHY{n}", n, BoxDomain(lo, np.full(n, 1.5)), fn,
                     gradient_fn=lambda p: np.where(p > 1.0, np.nan, 2.0 * (p - 0.3)))


def lineage(obj, levels):
    """The candidates of rounds 0..levels-1, each round's the children of
    one cell of the round before (one child above CORNER_ENUM_MAX_DIM)."""
    rounds = [[initial_cell(obj.domain)]]
    for r in range(1, levels):
        parent = rounds[-1][(5 * r) % len(rounds[-1])]
        n = parent.dim
        rounds.append(parent.subdivide() if n <= 12 else [parent.child((3 * r) % 2 ** n)])
    return rounds


def labeling_state(ctx, labeled, budget_hit):
    """Everything a round leaves behind; a vertex shared by two corners
    must be one object, so ``first`` numbers the objects by first use."""
    first: dict = {}
    return ([[(v.point, v.rel, v.label, repr(v.value), first.setdefault(id(v), len(first)))
              for v in verts] for verts in labeled],
            budget_hit, ctx.counter.count, list(ctx._cache),
            repr(ctx.best_point), repr(ctx.best_value))


def run_rounds(label, obj, rounds, budget, sense, labeling):
    """Label ``rounds`` in order under one context, as run_phase1 does,
    stopping after a round the budget ran out in; the state after each."""
    ctx = EvalContext(obj, EvalCounter(budget), RngStream(0), sense)
    config = SgmConfig(labeling=labeling)
    states = []
    for candidates in rounds:
        ctx.new_epoch()
        labeled, budget_hit = label(ctx, candidates, config)
        states.append(labeling_state(ctx, labeled, budget_hit))
        if budget_hit:
            break
    return states


@pytest.mark.filterwarnings("error")
class TestLabelRoundMatchesPerVertexReference:
    """``label_round`` leaves the labels, counter, cache (in insertion
    order) and best point exactly as labeling one vertex at a time did."""

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "rows"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 13])
    def test_rounds_to_level_3(self, n, batched):
        obj = patchy(n, batched)
        rounds = lineage(obj, 4)
        for sense, labeling in itertools.product(Sense, LabelStrategy):
            want = run_rounds(reference_label_round, obj, rounds, 2500, sense, labeling)
            got = run_rounds(label_round, obj, rounds, 2500, sense, labeling)
            assert got == want, (sense, labeling)

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "rows"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_budget(self, n, batched):
        obj = patchy(n, batched)
        rounds = lineage(obj, 2)
        total = run_rounds(reference_label_round, obj, rounds, 10**6, Sense.MIN,
                           LabelStrategy.BEST_NEIGHBOR)[-1][2]
        for budget in range(1, total + 1):
            want = run_rounds(reference_label_round, obj, rounds, budget, Sense.MIN,
                              LabelStrategy.BEST_NEIGHBOR)
            got = run_rounds(label_round, obj, rounds, budget, Sense.MIN,
                             LabelStrategy.BEST_NEIGHBOR)
            assert got == want, budget
            assert want[-1][1] == (budget < total)


def labeled_corners(cell, labels, values):
    return [LabeledVertex(tuple(cell.corner(i)), cell.corner_rel(i), lab, val)
            for i, (lab, val) in enumerate(zip(labels, values))]


def is_complete(labels, n=2):
    """``_select_cell``'s completeness flag for one level-0 cell in n
    dimensions whose corners carry ``labels``."""
    cell = initial_cell(box(-1, 1, n))
    return _select_cell([cell], [labeled_corners(cell, labels, [0.0] * len(labels))])[2]


class TestCompletelyLabeled:
    def test_worked_example(self):
        assert is_complete([2, 2, 0, 1])

    def test_missing_label(self):
        assert not is_complete([0, 0, 1, 1])

    def test_3d(self):
        assert is_complete([0, 1, 2, 3, 3, 3, 3, 3], 3)

    def test_wrong_count_rejected(self):
        # Every label present, but one corner of the plan unlabeled.
        assert not is_complete([0, 1, 2])


class TestSelectCell:
    def test_nan_corner_does_not_win(self):
        # Equal label counts, so the best vertex decides: 1.0 beats 5.0,
        # although the first candidate lists a NaN corner first.
        nan = float("nan")
        cells = initial_cell(box(-1, 1)).subdivide()[:2]
        labeled = [labeled_corners(cells[0], [0, 1, 0, 1], [nan, 5.0, nan, 5.0]),
                   labeled_corners(cells[1], [0, 1, 0, 1], [1.0, 2.0, 1.0, 2.0])]
        cell, verts, complete = _select_cell(cells, labeled)
        assert cell is cells[1] and verts is labeled[1] and not complete

    @pytest.mark.parametrize("sense", [Sense.MIN, Sense.MAX])
    def test_more_labels_then_rank_then_index(self, sense):
        # Vertex values are in minimisation form: a MAX run's are negated.
        nan = float("nan")
        sign = -1.0 if sense is Sense.MAX else 1.0
        cells = initial_cell(box(-1, 1)).subdivide()

        def corners(i, labels, values):
            return labeled_corners(cells[i], labels, [sign * v for v in values])
        labeled = [corners(0, [0, 0, 0, 0], [-9.0, 9.0, 0.0, 0.0]),
                   corners(1, [0, 1, 1, 0], [nan, nan, nan, nan]),
                   corners(2, [0, 1, 1, 0], [2.0, nan, 4.0, 3.0]),
                   corners(3, [1, 0, 0, 1], [3.0, 5.0, 3.0, 3.0])]
        assert _select_cell(cells, labeled)[0] is cells[2 if sense is Sense.MIN else 3]
        labeled[3] = corners(3, [1, 0, 0, 1], [2.0, 4.0, 2.0, 2.0])
        assert _select_cell(cells, labeled)[0] is cells[2]

    def test_complete_cell_needs_its_whole_plan(self):
        cells = initial_cell(box(-1, 1)).subdivide()[:2]
        labeled = [labeled_corners(cells[0], [0, 1, 2], [0.0, 0.0, 0.0]),
                   labeled_corners(cells[1], [2, 1, 0, 0], [9.0, 9.0, 9.0, 9.0])]
        assert _select_cell(cells, labeled) == (cells[1], labeled[1], True)
        labeled[1] = []
        assert _select_cell(cells, labeled) == (cells[0], labeled[0], False)
        assert _select_cell(cells, [[], []]) == (cells[0], [], False)


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
        assert np.all(out.cell.base <= 0.0) and np.all(0.0 <= out.cell.base + out.cell.step)
        assert out.complete

        # independent check: label every level-2 cell of the zoom lineage
        # and confirm the one run_phase1 picked is the first complete one
        ctx = make_ctx(obj, seed=99)
        cfg2 = SgmConfig(tf_rounds=0)
        level0 = initial_cell(obj.domain)

        def labels_of(cell, ctx):
            return [label_vertex(ctx, cell, cell.corner_rel(i), cfg2)
                    for i in range(2 ** cell.dim)]

        def first_complete(cells, ctx):
            all_labeled = [labels_of(c, ctx) for c in cells]
            for c, verts in zip(cells, all_labeled):
                if {v.label for v in verts} == set(range(obj.dim + 1)):
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
        assert np.all(out.cell.base <= 0.0) and np.all(0.0 <= out.cell.base + out.cell.step)
        assert any(np.allclose(v.point, 0.0) for v in out.vertices)
