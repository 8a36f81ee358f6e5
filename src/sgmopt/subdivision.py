"""Search-space reduction phase: grid construction over the box, integer
labeling of grid vertices, completely-labeled cell detection, and bisection.

Each vertex gets a label in {0..n} from the sign pattern of a descent
indicator: either the direction to its best Moore neighbor (one grid step
finer than the cell) or the objective gradient.  A round subdivides a cell
whose corner labels cover {0, 1, ..., n} and continues on the children, or
above CORNER_ENUM_MAX_DIM on the one child on the best point's side of each
split plane.  Labeling evaluates neighbors half a step outside the cell, so
that point need not lie in the cell.  Such a complete cell need not hold a
stationary point: on ten shifts each of F1, F2, TP1 and BEALE the selected
cell held the optimum in 10 of 40 runs (29 ended complete), and the test
fired on 77 of 110 candidate cells holding the optimum and 48 of 410 not.

Exactness: cell steps are represented as initial_extent * 2**(-level), so
halving never accumulates rounding error, and vertices are reconstructed
from integer grid coordinates with one fixed expression.  Moore-neighbour
rows are sums V +- h instead, so they need not equal that expression at the
next level: on [-5.12, 5.12] in 1-D, levels 0-5, 74 of 126 in-box
neighbours differ from it in bytes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .core import (BoxDomain, BudgetExceeded, EvalContext, LabelStrategy,
                   SgmConfig, box_mask, rank, row_keys)
# Unused here, but perfbench/trace.py wraps subdivision.contains.
from .core import contains  # noqa: F401

# Full Moore neighborhoods / corner enumerations are exponential in the
# dimension; above these limits a deterministic structured subset is used.
MOORE_FULL_MAX_DIM = 6
CORNER_ENUM_MAX_DIM = 12
# Deepest cell level: its step, extent * 2**-40, is about 1e-12 of the box,
# and grid coordinates (below 2**41 one level finer) stay exact in float64.
# run_phase1's round count enforces it.
MAX_LEVEL = 40
# Array elements of one phase-1 labeling chunk: keeps them cache-sized.
CHUNK_ELEMS = 2 ** 15


def grid_point(lo: np.ndarray, k, step: np.ndarray) -> np.ndarray:
    """Canonical vertex construction lo + k*step.

    Every vertex in the package is built through this one expression, so
    identical (lo, k, step) always reproduce bit-identical coordinates.
    """
    return lo + np.asarray(k, dtype=float) * step


@functools.lru_cache(maxsize=None)
def corner_plan(n: int) -> np.ndarray:
    """Read-only (k, n) int64 0/1 rows of the corners phase 1 labels in a
    cell of dimension n, each holding bit j of its corner index on axis j (1:
    the upper side): indices 0..2^n-1 up to CORNER_ENUM_MAX_DIM, above it
    the lowest, the highest and the single-axis flips of each, sorted."""
    top = 2 ** n - 1
    index = range(top + 1) if n <= CORNER_ENUM_MAX_DIM else sorted(
        {0, top} | {f for j in range(n) for f in (1 << j, top ^ (1 << j))})
    # Python ints: an index of 64 bits or more does not fit an int64.
    plan = ((np.array(index, dtype=object)[:, None] >> np.arange(n)) & 1).astype(np.int64)
    plan.flags.writeable = False
    return plan


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

    def corner(self, bits) -> np.ndarray:
        """The corner at ``bits``, a ``corner_plan`` row or ``p > center`` (the one nearest p)."""
        return grid_point(self.lo, np.add(self.base_k, bits), self.step)

    def subdivide(self) -> List["GridCell"]:
        """The children at the ``corner_plan`` rows: up to CORNER_ENUM_MAX_DIM,
        all 2^n halves, in corner index order."""
        return self._halves(corner_plan(self.dim))

    def child(self, bits) -> "GridCell":
        """The child at corner ``bits`` (as in ``corner``); ``p > center`` names
        the child on p's side of each split plane, even for a p outside the cell."""
        return self._halves([bits])[0]

    def _halves(self, rows) -> List["GridCell"]:
        return [GridCell(self.lo, self.extent, self.level + 1, tuple(k))
                for k in (2 * np.array(self.base_k) + rows).tolist()]


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
    # A row past the float limit is inf: outside the box, so masked out.
    with np.errstate(over="ignore"):
        Q = V[:, None] + moore_offsets(V.shape[1]) * h
        if V.shape[1] <= MOORE_FULL_MAX_DIM:
            S = V[:, :, None] + h[:, None] * (-1.0, 0.0, 1.0)    # V + -h, V + 0.0, V + h: Q's
            inside = (S >= box.lo[:, None]) & (S <= box.hi[:, None])
            mask = inside[:, 0]
            for j in range(1, V.shape[1]):    # AND over the axes, in offset order
                mask = (mask[:, :, None] & inside[:, j, None]).reshape(len(V), -1)
            mid = mask.shape[1] // 2    # the zero offset; np.delete costs more at small k
            return Q, np.concatenate([mask[:, :mid], mask[:, mid + 1:]], axis=1)
        if hints is None:
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

    Returns (C, D, f) for the leading rows of V the budget paid for: the
    best points, D = C - V and the values.  A row of D is zero exactly
    when v beats or ties every neighbor (neighbor ties: enumeration order).
    """
    V = np.asarray(V, dtype=float)
    Q, mask = neighborhood(V, h, ctx.obj.domain, hints)
    R = np.concatenate([V[:, None], Q], axis=1)
    M = np.concatenate([np.ones((len(V), 1), dtype=bool), mask], axis=1)
    A = np.full(M.shape, np.nan)
    try:
        A[M] = ctx.values(R[M])
    except BudgetExceeded as exc:    # keep the rows of V whose points were all settled
        k = int(np.searchsorted(np.cumsum(M.sum(axis=1)), len(exc.settled), side="right"))
        V, R, M, A = V[:k], R[:k], M[:k], A[:k]
        A[M] = exc.settled[:np.count_nonzero(M)]
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
    ``rels`` (a (k, n) array) with one ``ctx.values`` call, as far as the budget pays.

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
        try:
            values = ctx.values(V)
        except BudgetExceeded as exc:
            values = exc.settled
        box, off = ctx.obj.domain, 1e-9 * cell.step
        X = np.where(V <= box.lo, V + off, V)
        X = np.where(V >= box.hi, X - off, X)
        labels = [label_by_gradient(ctx.gradient(x)) for x in X[:len(values)]]
    return [LabeledVertex(tuple(v), tuple(r), lab, val) for v, r, lab, val
            in zip(V.tolist(), rels.tolist(), labels, values)]


def label_vertex(ctx: EvalContext, cell: GridCell, rel: tuple,
                 config: SgmConfig) -> LabeledVertex:
    """``label_vertices`` of the one vertex at grid coordinates ``rel``, hinted
    toward ``cell.center``; BudgetExceeded if the budget cannot pay for it."""
    for vert in label_vertices(ctx, cell, np.array([rel]), cell.center[None], config):
        return vert
    raise BudgetExceeded(f"evaluation budget {ctx.counter.budget} exhausted")


def label_round(ctx: EvalContext, candidates: List[GridCell], config: SgmConfig):
    """Label the corner plan of every candidate, walking (candidate, corner)
    in order and labeling each distinct vertex once, in chunks.

    Returns ``(labeled, budget_hit)``: each candidate's labeled corners,
    cut at the first corner whose vertex the budget left unlabeled (later
    candidates get none).  A vertex takes the center hint of the candidate
    that reached it first.  A chunk holds 1 to ``remaining`` vertices, with
    (vertices, neighborhood, n) arrays of at most CHUNK_ELEMS elements; the
    round stops at the first one the budget cut short, as labeling one
    vertex at a time did.  Corners are walked CHUNK_ELEMS // width at a
    time, and only as far as the chunks need them.
    """
    grid, n = candidates[0], candidates[0].dim
    hinted = config.labeling is LabelStrategy.BEST_NEIGHBOR and n > MOORE_FULL_MAX_DIM
    width = 1 if config.labeling is LabelStrategy.GRADIENT else 1 + len(moore_offsets(n)) + hinted
    bits = corner_plan(n)
    seen: dict = {}            # row_keys of grid coordinates -> vertex id
    walks = [[] for _ in candidates]    # vertex id of each corner walked

    def new_vertices():
        """``(rel, hint)`` of each vertex the walk reaches first."""
        for cell, walk in zip(candidates, walks):
            base = np.array(cell.base_k, dtype=np.int64)
            hint = cell.center if hinted else None
            for start in range(0, len(bits), CHUNK_ELEMS // width):
                R, old = bits[start:start + CHUNK_ELEMS // width] + base, len(seen)
                ids = [seen.setdefault(key, len(seen)) for key in row_keys(R)]
                walk += ids
                for rel in R[np.array(ids) >= old]:
                    yield rel, hint

    verts = []                 # labeled vertices, by id
    stream = new_vertices()
    budget_hit = False
    while not budget_hit and (chunk := list(itertools.islice(
            stream, max(1, min(ctx.counter.remaining, CHUNK_ELEMS // (width * n)))))):
        rels, hints = zip(*chunk)
        got = label_vertices(ctx, grid, np.array(rels),
                             np.array(hints) if hinted else None, config)
        verts += got
        budget_hit = len(got) < len(chunk)
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
        if want <= {v.label for v in verts} and len(verts) == len(corner_plan(cell.dim)):
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

    Performs min(tf_rounds, MAX_LEVEL) subdivisions with a labeling pass
    before each and one final labeling pass over the last children, so the
    grids at levels 0 up to that count all get labeled.  Above
    CORNER_ENUM_MAX_DIM a subdivision keeps only the child on
    ``ctx.best_point``'s side of each split plane, wherever that point lies.
    On budget exhaustion the outcome so far is returned with complete=False.
    The trace has one row per labeling pass, so ``len(trace) - 1`` rounds
    were subdivided.
    """
    candidates = [initial_cell(obj.domain)]
    start_count = ctx.counter.count
    trace = []
    last = min(config.tf_rounds, MAX_LEVEL)
    for r in range(last + 1):
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
        if r == last:
            break
        candidates = (selected.subdivide() if selected.dim <= CORNER_ENUM_MAX_DIM
                      else [selected.child(ctx.best_point > selected.center)])
    return Phase1Outcome(
        cell=selected,
        vertices=selected_verts,
        evaluations=ctx.counter.count - start_count,
        complete=complete,
        trace=trace,
    )
