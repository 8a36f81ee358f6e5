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
                   RefinementLimit, Sense, SgmConfig, better)
# Unused here, but perfbench/trace.py wraps subdivision.contains.
from .core import contains  # noqa: F401
from . import testbed

# Full Moore neighborhoods / corner enumerations are exponential in the
# dimension; above these limits a deterministic structured subset is used.
MOORE_FULL_MAX_DIM = 6
CORNER_ENUM_MAX_DIM = 12
MAX_LEVEL = 40


def grid_point(lo: np.ndarray, k, step: np.ndarray) -> np.ndarray:
    """Canonical vertex construction lo + k*step.

    Every vertex in the package is built through this one expression, so
    identical (lo, k, step) always reproduce bit-identical coordinates.
    """
    return lo + np.asarray(k, dtype=float) * step


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

    def corner_bits(self, index: int) -> np.ndarray:
        return np.array([(index >> j) & 1 for j in range(self.dim)], dtype=np.int64)

    def corner_rel(self, index: int) -> tuple:
        bits = self.corner_bits(index)
        return tuple(int(k) + int(b) for k, b in zip(self.base_k, bits))

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
        bits = [(index >> j) & 1 for j in range(self.dim)]
        child_k = tuple(2 * k + b for k, b in zip(self.base_k, bits))
        return GridCell(self.lo, self.extent, self.level + 1, child_k)

    def child_containing(self, p) -> "GridCell":
        """The child holding p; points on the split plane go to the lower child."""
        return self.child(self.closest_corner_index(p))

    def contains_point(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        lo = self.base
        hi = self.base + self.step
        return bool(np.all(p >= lo) and np.all(p <= hi))


@dataclass(frozen=True)
class LabeledVertex:
    point: tuple
    rel: tuple
    label: int
    value: float

    def as_array(self) -> np.ndarray:
        return np.asarray(self.point, dtype=float)


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


def neighborhood(p, h, box: BoxDomain, center_hint=None) -> np.ndarray:
    """Moore neighborhood of p at per-axis steps h, clipped to the box, as
    an (m, n) array of the feasible rows of ``p + moore_offsets(n) * h``.

    Above MOORE_FULL_MAX_DIM dimensions the capped offset set gets one more
    row, the diagonal toward ``center_hint``, unless that is zero or one of
    the two full diagonals.
    """
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    offsets = moore_offsets(p.size)
    if p.size > MOORE_FULL_MAX_DIM and center_hint is not None:
        inward = np.sign(np.asarray(center_hint, dtype=float) - p)
        if inward.any() and not ((inward == 1.0).all() or (inward == -1.0).all()):
            offsets = np.vstack([offsets, inward])
    Q = p + offsets * h
    return Q[((Q >= box.lo) & (Q <= box.hi)).all(axis=1)]


def best_neighbor(ctx: EvalContext, p, h, center_hint=None):
    """Best point over the Moore neighborhood of p including p itself.

    Returns (c, d) with d = c - p; d is zero exactly when p beats or ties
    every neighbor (p wins ties, neighbor ties go to enumeration order).
    """
    p = np.asarray(p, dtype=float)
    P = np.vstack([p, neighborhood(p, h, ctx.obj.domain, center_hint)])
    vals = ctx.values(P)
    best = 0
    for i in range(1, len(vals)):
        if better(vals[i], vals[best], ctx.sense):
            best = i
    return P[best], P[best] - p


def label_by_direction(d) -> int:
    """0 when no component of the improvement direction is negative,
    otherwise the largest 1-based index with a negative component."""
    d = np.asarray(d, dtype=float)
    neg = np.flatnonzero(d < 0)
    return 0 if neg.size == 0 else int(neg[-1]) + 1


def label_by_gradient(w) -> int:
    """0 when no gradient component is negative, otherwise the smallest
    1-based index with a negative component."""
    w = np.asarray(w, dtype=float)
    neg = np.flatnonzero(w < 0)
    return 0 if neg.size == 0 else int(neg[0]) + 1


def label_vertex(ctx: EvalContext, cell: GridCell, corner_index: int,
                 config: SgmConfig) -> LabeledVertex:
    """Label one corner of a cell.

    The neighborhood step is half the cell step (the next grid's spacing):
    labels then mirror where the refined grid's improvement step would move
    each corner.  Gradient labeling nudges boundary vertices inward so the
    gradient is taken at an interior point.
    """
    v = cell.corner(corner_index)
    rel = cell.corner_rel(corner_index)
    value = ctx.value(v)
    if config.labeling is LabelStrategy.BEST_NEIGHBOR:
        h = 0.5 * cell.step
        _, d = best_neighbor(ctx, v, h, center_hint=cell.center)
        label = label_by_direction(d)
    else:
        box = ctx.obj.domain
        x = v.copy()
        off = 1e-9 * cell.step
        on_lo = x <= box.lo
        on_hi = x >= box.hi
        x = np.where(on_lo, x + off, x)
        x = np.where(on_hi, x - off, x)
        w = testbed.gradient(ctx.obj, x)
        if ctx.sense is Sense.MAX:
            w = -w
        label = label_by_gradient(w)
    return LabeledVertex(tuple(float(c) for c in v), rel, label, value)


def is_completely_labeled(labels, n: int) -> bool:
    """True when the 2^n corner labels include every value in {0..n}."""
    labels = list(labels)
    if len(labels) != 2 ** n:
        raise ValueError(f"expected {2 ** n} labels for dimension {n}, got {len(labels)}")
    return set(range(n + 1)) <= set(labels)


def _select_cell(candidates, labeled, planned_counts, sense):
    """First completely labeled candidate, else the one with the most
    distinct labels (ties: best vertex value, then enumeration order)."""
    n = candidates[0].dim
    want = set(range(n + 1))
    for cell, verts, planned in zip(candidates, labeled, planned_counts):
        if verts and len(verts) == planned and want <= {v.label for v in verts}:
            return cell, verts, True
    best_idx = None
    best_key = None
    for idx, (cell, verts) in enumerate(zip(candidates, labeled)):
        if not verts:
            continue
        distinct = len({v.label for v in verts})
        vals = [v.value for v in verts]
        top = min(vals) if sense is Sense.MIN else max(vals)
        ordered_top = top if sense is Sense.MIN else -top
        key = (-distinct, ordered_top, idx)
        if best_key is None or key < best_key:
            best_key, best_idx = key, idx
    if best_idx is None:
        return candidates[0], [], False
    return candidates[best_idx], labeled[best_idx], False


def run_phase1(obj, config: SgmConfig, ctx: EvalContext,
               trace_sink=None) -> Phase1Outcome:
    """Run the labeling/subdivision rounds.

    Performs tf_rounds subdivisions with a labeling pass before each and one
    final labeling pass over the last children, so grids at levels
    0..tf_rounds all get labeled.  On budget exhaustion the outcome so far
    is returned with complete=False.
    """
    cell0 = initial_cell(obj.domain)
    candidates = [cell0]
    selected, selected_verts, complete = cell0, [], False
    rounds_done = 0
    start_count = ctx.counter.count
    trace = []
    budget_hit = False
    for r in range(config.tf_rounds + 1):
        ctx.new_epoch()
        label_cache = {}
        labeled = [[] for _ in candidates]
        planned = []
        try:
            for ci, cell in enumerate(candidates):
                plan = cell.corner_indices()
                planned.append(len(plan))
                for idx in plan:
                    key = cell.corner_rel(idx)
                    vert = label_cache.get(key)
                    if vert is None:
                        vert = label_vertex(ctx, cell, idx, config)
                        label_cache[key] = vert
                    labeled[ci].append(vert)
        except BudgetExceeded:
            budget_hit = True
            planned += [0] * (len(candidates) - len(planned))
        sel, verts, comp = _select_cell(candidates, labeled, planned, ctx.sense)
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
                target = ctx.best_point if ctx.best_point is not None else selected.center
                candidates = [selected.child_containing(target)]
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
