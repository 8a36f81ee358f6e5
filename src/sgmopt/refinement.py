"""Incumbent refinement phase: diagonal ray mutation from the best cell
vertex, rotation over every swept direction but the last when no ray
improves, and midpoint crossover of the cell edges around each accepted
candidate.

Rays run 1x..10x ``alpha_base`` and rotations the BETA_SWEEP lengths, both
times a mesh scale that halves whenever a full sweep fails to improve the
incumbent; without it the fixed lengths quantize the reachable points and
stall at a lattice distance from optima off the grid.  The scale stops
halving at SCALE_MIN, and STALL_LIMIT consecutive improvements below
STALL_TOLERANCE end the run; with the budget, these bound every run.

As in a pattern search poll set, a sweep's candidates are s plus fixed
offsets times the mesh scale.  The offsets are built once per run, kept on
its ``RefineState``, and rebuilt only when the sweep directions change
(above MOORE_FULL_MAX_DIM, when the diagonal toward the center flips).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import BudgetExceeded, EvalContext, SgmConfig, better, box_mask, rank
from .subdivision import MOORE_FULL_MAX_DIM, GridCell, Phase1Outcome

BETA_SWEEP = (0.1, 0.25, 0.5, 0.75, 1.0)
SCALE_MIN = 2.0 ** -24
STALL_LIMIT = 3
STALL_TOLERANCE = 1e-9


@dataclass
class RefineState:
    s: np.ndarray
    s_value: float
    rotations_used: int = 0
    crossovers_used: int = 0
    scale: float = 1.0
    # (key, ray offsets, rotation offsets, wide) of the last sweep; see ``sweep``.
    tables: Optional[tuple] = None


def select_best_vertex(outcome: Phase1Outcome):
    """Vertex with the best ``rank``ed cached value; ties, all-NaN ones
    included, go to the lowest relative coordinates in lexicographic order."""
    if not outcome.vertices:
        raise ValueError("phase-1 outcome has no labeled vertices")
    best = min(outcome.vertices, key=lambda v: (rank(v.value), v.rel))
    return np.asarray(best.point, dtype=float), best.value


@functools.lru_cache(maxsize=None)
def _axis_flips(n: int) -> tuple:
    """For each axis j, the all-ones diagonal with axis j negated, then its
    negation: the all -1 diagonal with axis j positive."""
    flips = [tuple(-1 if i == j else 1 for i in range(n)) for j in range(n)]
    return tuple(d for f in flips for d in (f, tuple(-c for c in f)))


@functools.lru_cache(maxsize=None)
def _sign_vectors(n: int) -> tuple:
    return tuple(itertools.product((1, -1), repeat=n))


def sweep_directions(n: int, s, center) -> List[tuple]:
    """Directions a sweep iterates: up to MOORE_FULL_MAX_DIM, all 2^n sign
    vectors, lexicographic with +1 before -1 (all-ones first); above it,
    the two main diagonals, the diagonal from s toward the domain center
    (+1 on axes where s is centered) and ``_axis_flips(n)``, each once."""
    if n <= MOORE_FULL_MAX_DIM:
        return list(_sign_vectors(n))
    inward = tuple(np.where(np.asarray(center, dtype=float) >= s, 1, -1).tolist())
    return list(dict.fromkeys(((1,) * n, (-1,) * n, inward) + _axis_flips(n)))


def _first_better(ctx: EvalContext, P, s_value: float, limit=None):
    """The first of at most ``limit`` feasible rows of ``P`` strictly better
    than ``s_value``, as (row, value) or None, and the feasible rows walked.
    Rows outside the box cost no evaluation."""
    inside = box_mask(ctx.obj.domain, P)
    Q = (P if inside.all() else P[inside])[:limit]
    vals = ctx.values(Q, beat=s_value)
    if vals and better(vals[-1], s_value):
        return (Q[len(vals) - 1], vals[-1]), len(vals)
    return None, len(vals)


def _candidates(state: RefineState, offsets, wide: bool) -> np.ndarray:
    if not wide:
        return state.s + offsets * state.scale
    with np.errstate(over="ignore"):
        return state.s + offsets * state.scale


def sweep(state: RefineState, ctx: EvalContext, config: SgmConfig,
          directions) -> Optional[Tuple[np.ndarray, float]]:
    """The first strictly better feasible candidate, or None: rays along each
    direction in turn at 1x..10x alpha_base, then, only if no ray improves,
    rotations at each BETA_SWEEP beta over every direction but the last, both
    lengths times the mesh scale.  Each rotation walked, cache hits included,
    counts toward trm_max; a budget stop leaves ``rotations_used`` as is.

    The offsets ``(k*alpha_base)*d`` and ``beta*d`` are built at scale 1
    and kept on ``state`` until the directions or ``alpha_base`` change.  A
    candidate is ``s + offset*scale``, bit for bit
    ``s + (k*alpha_base*scale)*d``: d is +-1 and rounding is sign-symmetric.
    With s in the box and scale <= 1, a candidate overflows only if the box's
    largest |bound| plus the largest |offset| does (``wide``), so only then is overflow ignored."""
    key = (tuple(directions), config.alpha_base)
    if state.tables is None or state.tables[0] != key:
        dirs = np.asarray(directions, dtype=float)
        betas = np.asarray(BETA_SWEEP, dtype=float)
        alphas = np.arange(1, 11) * config.alpha_base
        rays = np.repeat(dirs, 10, axis=0) * np.tile(alphas, len(dirs))[:, None]
        rotations = np.tile(dirs[:-1], (len(betas), 1)) * np.repeat(betas, len(dirs) - 1)[:, None]
        edge = float(np.abs((ctx.obj.domain.lo, ctx.obj.domain.hi)).max())
        reach = float(max(np.abs(rays).max(), np.abs(rotations).max(initial=0.0)))
        state.tables = (key, rays, rotations, edge + reach == np.inf)
    _, rays, rotations, wide = state.tables
    found, _ = _first_better(ctx, _candidates(state, rays, wide), state.s_value)
    left = config.trm_max - state.rotations_used
    if found is not None or left <= 0:
        return found
    found, walked = _first_better(ctx, _candidates(state, rotations, wide), state.s_value, left)
    state.rotations_used += walked
    return found


def crossover_midpoint(p1, p2) -> np.ndarray:
    """Componentwise midpoint of two parents (broadcasts over rows)."""
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("parents must share a dimension")
    return 0.5 * a + 0.5 * b    # as BoxDomain.center: no overflow near the float limit


def crossover_adjacent_sides(cell: GridCell, ray_end) -> np.ndarray:
    """Midpoints of the n cell edges incident to the corner nearest ray_end,
    as an (n, n) matrix whose row j is the edge along axis j."""
    upper = ray_end > cell.center
    corner = cell.corner(upper)
    across = corner + np.where(upper, -cell.step, cell.step)
    ends = np.where(np.eye(cell.dim, dtype=bool), across, corner)
    return crossover_midpoint(corner, ends)


def run_phase2(outcome: Phase1Outcome, obj, config: SgmConfig, ctx: EvalContext,
               trace_sink=None, trace_offset: int = 0):
    """Refine the best phase-1 vertex.

    Each outer iteration is one ``sweep`` from the incumbent s: ray
    mutation along the diagonal directions, all-ones first, and, when no
    ray improves, rotation over every swept direction but the last (for
    n <= 6 that leaves out the all -1 diagonal).  On success at p, midpoint
    crossover around p, and the incumbent moves to the best of {p,
    midpoints}.  A fully failed iteration halves the mesh scale.
    Termination: the scale bottoms out with nothing better, three
    consecutive improvements below STALL_TOLERANCE, or budget exhaustion.

    Returns (state, generations, trace_rows), with one generation and one
    row per iteration, one the budget interrupted included.  Each row
    carries the best value seen so far, starting from the best point
    evaluated before phase 2, so the rows never get worse.
    """
    s, s_value = select_best_vertex(outcome)
    state = RefineState(s=s, s_value=s_value)
    trace = []
    if config.trm_max == 0 and config.tc_max == 0:
        return state, 0, trace
    floor_value = ctx.best_value
    floor_point = tuple(ctx.best_point.tolist())
    center = obj.domain.center
    gens = stall = 0
    done = False
    while not done:
        gens += 1
        try:
            ctx.new_epoch()
            if obj.stochastic:    # else s is cached at state.s_value
                state.s_value = ctx.value(state.s)
            dirs = sweep_directions(obj.dim, state.s, center)
            found = sweep(state, ctx, config, dirs)
            p = found[0] if found else None
            if p is None:
                done = state.scale <= SCALE_MIN
                state.scale *= 0.5
            else:
                pool = [found]
                if state.crossovers_used < config.tc_max:
                    state.crossovers_used += 1
                    mids = crossover_adjacent_sides(outcome.cell, p)
                    mids = mids[box_mask(obj.domain, mids)]
                    pool += zip(mids, ctx.values(mids))
                new_s, new_v = min(pool, key=lambda q: rank(q[1]))
                improvement = abs(new_v - state.s_value)
                state.s, state.s_value = np.asarray(new_s, dtype=float), new_v
                if better(new_v, floor_value):
                    floor_value, floor_point = new_v, tuple(state.s.tolist())
                stall = stall + 1 if improvement < STALL_TOLERANCE else 0
                done = stall >= STALL_LIMIT
            if trace_sink is not None:
                trace_sink(gens, state.s, p, p is not None)
        except BudgetExceeded:
            done = True
        trace.append((trace_offset + gens, floor_value, floor_point))
    return state, gens, trace
