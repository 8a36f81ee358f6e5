"""Search-space reduction phase: grid construction over the box, integer
labeling of grid vertices, completely-labeled cell detection, and bisection.

Each vertex gets a label in {0..n} from the sign pattern of a descent
indicator: either the direction to its best Moore neighbor (one grid step
finer than the cell) or the objective gradient.  A cell whose corner labels
cover {0, 1, ..., n} brackets a stationary point, so the round subdivides it
and continues on the children.

Exactness: cell steps are represented as initial_extent * 2**(-level), so
halving never accumulates rounding error, and vertices are reconstructed
from integer grid coordinates with one fixed expression.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .core import (BoxDomain, BudgetExceeded, EvalContext, LabelStrategy,
                   RefinementLimit, SgmConfig, box_mask, rank, row_keys)
# Unused here, but perfbench/trace.py wraps subdivision.contains.
from .core import contains  # noqa: F401

# Full Moore neighborhoods / corner enumerations are exponential in the
# dimension; above these limits a deterministic structured subset is used.
MOORE_FULL_MAX_DIM = 6
CORNER_ENUM_MAX_DIM = 12
MAX_LEVEL = 40
# Rows of one phase-1 labeling chunk: bounds the memory of a batch, not a
# tuning knob.
CHUNK_ROWS = 1024


def grid_point(lo: np.ndarray, k, step: np.ndarray) -> np.ndarray:
    """Canonical vertex construction lo + k*step.

    Every vertex in the package is built through this one expression, so
    identical (lo, k, step) always reproduce bit-identical coordinates.
    """
    return lo + np.asarray(k, dtype=float) * step


def index_bits(index: int, n: int) -> list:
    """Bit j of a corner or child index, for each axis j < n: 1 on the
    upper side of that axis, 0 on the lower."""
    return [(index >> j) & 1 for j in range(n)]


@dataclass(frozen=True)
class GridCell:
    """Axis-aligned hypercube cell of the subdivision grid.

    ``base_k`` locates the lowest corner in integer grid coordinates at this
    level; the grid spacing is ``extent * 2**-level`` per axis.
    """

    lo: np.ndarray          # domain lower corner
    extent: np.ndarray      # domain extents (level-0 step)
    level: int
    base_k: tuple           # integer grid coords of the lowest corner

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def step(self) -> np.ndarray:
        return np.ldexp(self.extent, -self.level)

    @property
    def base(self) -> np.ndarray:
        return grid_point(self.lo, self.base_k, self.step)

    @property
    def center(self) -> np.ndarray:
        return self.base + 0.5 * self.step

    def corner_rel(self, index: int) -> tuple:
        return tuple(k + b for k, b in zip(self.base_k, index_bits(index, self.dim)))

    def corner(self, index: int) -> np.ndarray:
        return grid_point(self.lo, self.corner_rel(index), self.step)

    def corner_indices(self) -> List[int]:
        """Corner enumeration plan: all 2^n corners, or for high dimensions
        the structured subset {lowest, highest, single-axis flips of each}."""
        n = self.dim
        if n <= CORNER_ENUM_MAX_DIM:
            return list(range(2 ** n))
        top = 2 ** n - 1
        sampled = {0, top}
        for j in range(n):
            sampled.add(1 << j)
            sampled.add(top ^ (1 << j))
        return sorted(sampled)

    def closest_corner_index(self, p) -> int:
        """Index of the corner nearest p, per axis; a coordinate on the
        split plane picks the lower corner (the lexicographically smaller
        point)."""
        mid = self.center
        return sum(1 << j for j in range(self.dim) if p[j] > mid[j])

    def subdivide(self) -> List["GridCell"]:
        """The 2^n children obtained by halving every axis, ordered by child
        corner index (axis j is bit j)."""
        return [self.child(i) for i in range(2 ** self.dim)]

    def child(self, index: int) -> "GridCell":
        if self.level >= MAX_LEVEL:
            raise RefinementLimit(f"cell at level {self.level} cannot be halved further")
        child_k = tuple(2 * k + b for k, b in zip(self.base_k, index_bits(index, self.dim)))
        return GridCell(self.lo, self.extent, self.level + 1, child_k)

    def child_containing(self, p) -> "GridCell":
        """The child holding p; points on the split plane go to the lower child."""
        return self.child(self.closest_corner_index(p))


@dataclass(frozen=True)
class LabeledVertex:
    point: tuple
    rel: tuple
    label: int
    value: float


@dataclass
class Phase1Outcome:
    cell: GridCell
    vertices: List[LabeledVertex]
    evaluations: int
    rounds_completed: int
    complete: bool
    trace: list = field(default_factory=list)


def initial_cell(box: BoxDomain) -> GridCell:
    """The whole box as one level-0 cell; its corners are the initial population."""
    return GridCell(box.lo.copy(), box.extent.copy(), 0, tuple([0] * box.dim))


@functools.lru_cache(maxsize=None)
def moore_offsets(n: int) -> np.ndarray:
    """Read-only Moore offset rows for dimension n, before any center hint.

    Up to MOORE_FULL_MAX_DIM this is {-1, 0, 1}^n minus the zero row, in
    lexicographic order (- before 0 before +); above it, -e_1, +e_1, ...,
    -e_n, +e_n, then the all -1 and all +1 diagonals.  Zero entries must
    be +0.0: p + (-0.0 * h) would keep the sign of a -0.0 coordinate.
    """
    if n <= MOORE_FULL_MAX_DIM:
        full = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
        off = full[full.any(axis=1)]
    else:
        off = np.zeros((2 * n + 2, n))
        axes = np.arange(n)
        off[2 * axes, axes] = -1.0
        off[2 * axes + 1, axes] = 1.0
        off[-2] = -1.0
        off[-1] = 1.0
    off.flags.writeable = False
    return off


def neighborhood(V, h, box: BoxDomain, hints=None):
    """Moore neighborhoods of the rows of the (k, n) batch ``V`` at per-axis
    steps h, as ``(Q, mask)``: Q is ``V[:, None] + moore_offsets(n) * h``,
    shape (k, m, n), and ``mask`` marks the rows of Q inside the box.

    Above MOORE_FULL_MAX_DIM dimensions, with ``hints`` (one point per row
    of V), each neighborhood gets one more row, the diagonal toward its
    hint, masked out when that is zero or one of the two full diagonals.
    """
    V = np.asarray(V, dtype=float)
    Q = V[:, None] + moore_offsets(V.shape[1]) * h
    if V.shape[1] <= MOORE_FULL_MAX_DIM or hints is None:
        return Q, box_mask(box, Q)
    inward = np.sign(hints - V)
    Q = np.concatenate([Q, (V + inward * h)[:, None]], axis=1)
    mask = box_mask(box, Q)
    # Zero and the two full diagonals are the inward rows of one value.
    mask[:, -1] &= (inward != inward[:, :1]).any(axis=1)
    return Q, mask


def best_neighbor(ctx: EvalContext, V, h, hints=None):
    """Best point over the Moore neighborhood of each row v of the (k, n)
    batch ``V``, v itself included, evaluated in one ``ctx.values`` call.

    Returns (C, D, f): the best points, D = C - V, and the values of the
    rows of V.  A row of D is zero exactly when v beats or ties every
    neighbor (v wins ties, neighbor ties go to enumeration order).
    """
    V = np.asarray(V, dtype=float)
    Q, mask = neighborhood(V, h, ctx.obj.domain, hints)
    R = np.concatenate([V[:, None], Q], axis=1)
    M = np.concatenate([np.ones((len(V), 1), dtype=bool), mask], axis=1)
    A = np.full(M.shape, np.nan)
    A[M] = ctx.values(R[M])
    # ``better``'s ranking in one reduction per row: the first lowest value
    # among the non-NaN entries, or entry 0 (v) when every value is NaN.
    # Rows outside the box are NaN here, so they never win.
    low = np.fmin.reduce(A, axis=1)
    C = R[np.arange(len(V)), np.argmax(A == low[:, None], axis=1)]
    return C, C - V, A[:, 0]


def label_by_direction(D):
    """Per row of D (or for the one vector D): 0 when no component of the
    improvement direction is negative, otherwise the largest 1-based index
    with a negative component."""
    neg = np.asarray(D, dtype=float) < 0
    last = neg.shape[-1] - np.argmax(neg[..., ::-1], axis=-1)
    return np.where(neg.any(axis=-1), last, 0)


def label_by_gradient(w) -> int:
    """0 when no gradient component is negative, otherwise the smallest
    1-based index with a negative component."""
    w = np.asarray(w, dtype=float)
    neg = np.flatnonzero(w < 0)
    return 0 if neg.size == 0 else int(neg[0]) + 1


def label_vertices(ctx: EvalContext, cell: GridCell, rels, hints,
                   config: SgmConfig) -> List[LabeledVertex]:
    """Label the vertices of ``cell``'s grid at the integer grid coordinates
    ``rels`` (a (k, n) array), with one ``ctx.values`` call.

    The neighborhood step is half the cell step (the next grid's spacing):
    labels then mirror where the refined grid's improvement step would move
    each vertex; ``hints`` are the neighborhoods' center hints (see
    ``neighborhood``).  Gradient labeling evaluates the vertices alone and
    reads ``ctx.gradient`` at each, after nudging boundary vertices inward
    so the gradient is taken at an interior point.
    """
    V = grid_point(cell.lo, rels, cell.step)
    if config.labeling is LabelStrategy.BEST_NEIGHBOR:
        _, D, f = best_neighbor(ctx, V, 0.5 * cell.step, hints)
        labels, values = label_by_direction(D).tolist(), f.tolist()
    else:
        values = ctx.values(V)
        box = ctx.obj.domain
        off = 1e-9 * cell.step
        X = np.where(V <= box.lo, V + off, V)
        X = np.where(V >= box.hi, X - off, X)
        labels = [label_by_gradient(ctx.gradient(x)) for x in X]
    return [LabeledVertex(tuple(v), tuple(r), lab, val) for v, r, lab, val
            in zip(V.tolist(), rels.tolist(), labels, values)]


def label_vertex(ctx: EvalContext, cell: GridCell, rel: tuple,
                 config: SgmConfig) -> LabeledVertex:
    """``label_vertices`` of the one vertex at grid coordinates ``rel`` (a
    corner's ``cell.corner_rel(index)``), hinted toward ``cell.center``."""
    return label_vertices(ctx, cell, np.array([rel]), cell.center[None], config)[0]


def _corner_blocks(candidates: List[GridCell]):
    """Yield ``(i, R)`` over the corner plans of the same-level
    ``candidates`` in (candidate, corner) order: R holds the integer grid
    coordinates of up to CHUNK_ROWS corners of candidate i, as rows of
    ``base_k`` plus the corner index's bits."""
    plan = np.array(candidates[0].corner_indices(), dtype=np.int64)
    bits = ((plan[:, None] >> np.arange(candidates[0].dim)) & 1).astype(np.int8)
    for i, cell in enumerate(candidates):
        base = np.array(cell.base_k, dtype=np.int64)
        for start in range(0, len(bits), CHUNK_ROWS):
            yield i, bits[start:start + CHUNK_ROWS] + base


def label_round(ctx: EvalContext, candidates: List[GridCell], config: SgmConfig):
    """Label the corner plan of every candidate, walking (candidate, corner)
    in order and labeling each distinct vertex once, in chunks.

    Returns ``(labeled, budget_hit)``: each candidate's labeled corners,
    cut on BudgetExceeded at the first corner whose vertex was not labeled
    (later candidates get none).  A vertex takes the center hint of the
    candidate that reached it first.  A chunk holds as many vertices as fit
    in ``min(remaining budget, CHUNK_ROWS)`` rows, at least one, counting
    a vertex as its full neighborhood: a chunk of several vertices then
    never runs out of budget, and a one-vertex chunk commits exactly the
    evaluations that fit.  Corners are enumerated only as far as the
    chunks need them, so a round the budget stops early stays small.
    """
    grid, n = candidates[0], candidates[0].dim
    hinted = config.labeling is LabelStrategy.BEST_NEIGHBOR and n > MOORE_FULL_MAX_DIM
    width = 1 if config.labeling is LabelStrategy.GRADIENT else 1 + len(moore_offsets(n)) + hinted
    verts = []                 # labeled vertices, by id
    walks = [[] for _ in candidates]    # vertex id of each corner walked

    def label_chunks(todo, hints, last):
        """Label chunks of the found vertices ``todo`` (and their hints),
        only full ones unless ``last``; return what is left."""
        while len(todo):
            k = max(1, min(ctx.counter.remaining, CHUNK_ROWS) // width)
            if len(todo) < k and not last:
                break
            verts.extend(label_vertices(ctx, grid, todo[:k], hints[:k] if hinted else None,
                                        config))
            todo, hints = todo[k:], hints[k:]
        return todo, hints

    seen: dict = {}            # row_keys of grid coordinates -> vertex id
    todo, hints = np.empty((0, n), dtype=np.int64), np.empty((0, n))
    budget_hit = False
    try:
        for i, R in _corner_blocks(candidates):
            ids = [seen.setdefault(key, len(seen)) for key in row_keys(R)]
            walks[i] += ids
            new = R[np.array(ids) >= len(verts) + len(todo)]
            if hinted:
                hints = np.concatenate([hints, np.tile(candidates[i].center, (len(new), 1))])
            todo, hints = label_chunks(np.concatenate([todo, new]), hints, last=False)
        label_chunks(todo, hints, last=True)
    except BudgetExceeded:
        budget_hit = True
    labeled = [[] for _ in candidates]
    for lab, ids in zip(labeled, walks):
        lab += [verts[i] for i in itertools.takewhile(lambda i: i < len(verts), ids)]
        if len(lab) < len(ids):
            break
    return labeled, budget_hit


def _select_cell(candidates, labeled):
    """First candidate completely labeled over its whole corner plan, else
    the one with the most distinct labels (ties: best vertex ``rank``, then index)."""
    want = set(range(candidates[0].dim + 1))
    for cell, verts in zip(candidates, labeled):
        if want <= {v.label for v in verts} and len(verts) == len(cell.corner_indices()):
            return cell, verts, True
    started = [i for i, verts in enumerate(labeled) if verts]
    if not started:
        return candidates[0], [], False
    i = min(started, key=lambda j: (-len({v.label for v in labeled[j]}),
                                    min(rank(v.value) for v in labeled[j]), j))
    return candidates[i], labeled[i], False


def run_phase1(obj, config: SgmConfig, ctx: EvalContext,
               trace_sink=None) -> Phase1Outcome:
    """Run the labeling/subdivision rounds.

    Performs tf_rounds subdivisions with a labeling pass before each and one
    final labeling pass over the last children, so grids at levels
    0..tf_rounds all get labeled.  On budget exhaustion the outcome so far
    is returned with complete=False.
    """
    candidates = [initial_cell(obj.domain)]
    rounds_done = 0
    start_count = ctx.counter.count
    trace = []
    for r in range(config.tf_rounds + 1):
        ctx.new_epoch()
        labeled, budget_hit = label_round(ctx, candidates, config)
        sel, verts, comp = _select_cell(candidates, labeled)
        if verts or r == 0:
            selected, selected_verts, complete = sel, verts, comp
        if trace_sink is not None:
            trace_sink(r, candidates, labeled)
        trace.append((r, ctx.best_value, tuple(float(c) for c in ctx.best_point)))
        if budget_hit:
            complete = False
            break
        if r == config.tf_rounds:
            break
        try:
            if selected.dim <= CORNER_ENUM_MAX_DIM:
                candidates = selected.subdivide()
            else:
                candidates = [selected.child_containing(ctx.best_point)]
        except RefinementLimit:
            break
        rounds_done = r + 1
    return Phase1Outcome(
        cell=selected,
        vertices=selected_verts,
        evaluations=ctx.counter.count - start_count,
        rounds_completed=rounds_done,
        complete=complete,
        trace=trace,
    )
