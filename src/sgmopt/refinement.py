"""Incumbent refinement phase: diagonal ray mutation from the best cell
vertex, a rotational sweep over the remaining diagonal directions, and
midpoint crossover of the cell edges around each accepted candidate.

The ray and rotation lengths carry a mesh scale that halves whenever a full
sweep fails to improve the incumbent; without that refinement the fixed
sweep lengths quantize the reachable points and stall at a lattice distance
from optima that do not sit on the grid.  The scale stops halving at
SCALE_MIN, which (together with the stall rule and the evaluation budget)
bounds every run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import BudgetExceeded, EvalContext, Sense, SgmConfig, better, box_mask
from .subdivision import GridCell, Phase1Outcome

DIR_FULL_MAX_DIM = 6
SCALE_MIN = 2.0 ** -24
STALL_LIMIT = 3


@dataclass
class RefineState:
    s: np.ndarray
    s_value: float
    cell: GridCell
    rotations_used: int = 0
    crossovers_used: int = 0
    last_ray: Optional[Tuple[tuple, float]] = None
    scale: float = 1.0


def select_best_vertex(outcome: Phase1Outcome, sense: Sense):
    """Vertex with the best cached value; ties go to the lowest relative
    coordinates in lexicographic order."""
    if not outcome.vertices:
        raise ValueError("phase-1 outcome has no labeled vertices")
    best = None
    for v in outcome.vertices:
        if best is None:
            best = v
        elif v.value == best.value:
            if v.rel < best.rel:
                best = v
        elif better(v.value, best.value, sense):
            best = v
    return best.as_array(), best.value


def diagonal_directions(n: int) -> List[tuple]:
    """All 2^n sign vectors, lexicographic with +1 before -1 (all-ones first)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return [tuple(p) for p in itertools.product((1, -1), repeat=n)]


def sweep_directions(n: int, s=None, center=None) -> List[tuple]:
    """Directions a sweep actually iterates: the full diagonal set for small
    n, else the two main diagonals, the diagonal pointing from s toward the
    domain center, and the single-axis flips of both main diagonals."""
    if n <= DIR_FULL_MAX_DIM:
        return diagonal_directions(n)
    dirs = [tuple([1] * n), tuple([-1] * n)]
    if s is not None and center is not None:
        inward = np.sign(np.asarray(center, dtype=float) - np.asarray(s, dtype=float))
        inward = np.where(inward == 0, 1.0, inward)
        dirs.append(tuple(int(v) for v in inward))
    for j in range(n):
        flip = [1] * n
        flip[j] = -1
        dirs.append(tuple(flip))
        flip2 = [-1] * n
        flip2[j] = 1
        dirs.append(tuple(flip2))
    seen = set()
    out = []
    for d in dirs:
        if d not in seen:
            seen.add(d)
            out.append(d)
    return out


def ray_mutate(s, direction, alpha) -> np.ndarray:
    """Endpoint of the ray from s along a sign vector: every component moves
    by alpha, so the step has max-norm alpha and Euclidean norm alpha*sqrt(n).

    Broadcasts: (m, n) directions with (m, 1) lengths give m endpoints."""
    alpha = np.asarray(alpha, dtype=float)
    if (alpha <= 0).any():
        raise ValueError("alpha must be positive")
    return np.asarray(s, dtype=float) + alpha * np.asarray(direction, dtype=float)


def ray_sweep(state: RefineState, ctx: EvalContext, config: SgmConfig,
              directions) -> Optional[Tuple[np.ndarray, float]]:
    """Try rays of length 1x..10x alpha_base (times the mesh scale) along
    each direction in turn; the first strictly better feasible endpoint
    wins.  Endpoints outside the box are skipped without costing an
    evaluation.  ``state.last_ray`` ends at the candidate the sweep stopped
    on: the winner, the one the budget ran out at, or the last one."""
    dirs = [tuple(d) for d in directions]
    alphas = np.arange(1, 11) * config.alpha_base * state.scale
    P = ray_mutate(state.s, np.repeat(dirs, 10, axis=0),
                   np.tile(alphas, len(dirs))[:, None])
    rows = np.flatnonzero(box_mask(ctx.obj.domain, P))
    walked = 0
    try:
        for v in ctx.iter_values(P[rows]):
            if better(v, state.s_value, ctx.sense):
                return P[rows[walked]], v
            walked += 1
        return None
    finally:
        i = rows[walked] if walked < len(rows) else len(P) - 1
        state.last_ray = (dirs[i // 10], float(alphas[i % 10]))


def rotational_sweep(state: RefineState, ctx: EvalContext, config: SgmConfig,
                     directions) -> Optional[Tuple[np.ndarray, float]]:
    """Rotate through the remaining diagonals at each beta length (times the
    mesh scale).  Every evaluated candidate counts against trm_max; the
    first strict improvement is returned."""
    left = config.trm_max - state.rotations_used
    skip = state.last_ray[0] if state.last_ray is not None else None
    dirs = [e for e in directions if tuple(e) != skip]
    if left <= 0 or not dirs:
        return None
    betas = np.asarray(config.beta_sweep, dtype=float) * state.scale
    P = ray_mutate(state.s, np.tile(dirs, (len(betas), 1)),
                   np.repeat(betas, len(dirs))[:, None])
    rows = np.flatnonzero(box_mask(ctx.obj.domain, P))[:left]
    used = 0
    try:
        for v in ctx.iter_values(P[rows]):
            used += 1
            if better(v, state.s_value, ctx.sense):
                return P[rows[used - 1]], v
        return None
    finally:
        state.rotations_used += used


def crossover_midpoint(p1, p2) -> np.ndarray:
    """Componentwise midpoint of two parents (broadcasts over rows)."""
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("parents must share a dimension")
    return 0.5 * (a + b)


def crossover_adjacent_sides(cell: GridCell, ray_end) -> np.ndarray:
    """Midpoints of the n cell edges incident to the corner nearest ray_end,
    as an (n, n) matrix whose row j is the edge along axis j."""
    idx = cell.closest_corner_index(ray_end)
    corner = cell.corner(idx)
    upper = np.array([(idx >> j) & 1 for j in range(cell.dim)], dtype=bool)
    across = corner + np.where(upper, -cell.step, cell.step)
    ends = np.where(np.eye(cell.dim, dtype=bool), across, corner)
    return crossover_midpoint(corner, ends)


def run_phase2(outcome: Phase1Outcome, obj, config: SgmConfig, ctx: EvalContext,
               trace_sink=None, trace_offset: int = 0):
    """Refine the best phase-1 vertex.

    Each outer iteration: (a) ray sweeps over the diagonal directions,
    all-ones first; (b) on failure, the rotational sweep; (c) on success at
    p, midpoint crossover around p and the incumbent moves to the best of
    {s, p, midpoints}.  A fully failed iteration halves the mesh scale.
    Termination: the scale bottoms out with nothing better, three
    consecutive sub-tolerance improvements, or budget exhaustion.

    Returns (state, generations, trace_rows).  Each row carries the best
    value seen so far, starting from the best point evaluated before phase
    2, so the rows never get worse.
    """
    s, s_value = select_best_vertex(outcome, ctx.sense)
    state = RefineState(s=s, s_value=s_value, cell=outcome.cell)
    trace = []
    gens = 0
    if config.trm_max == 0 and config.tc_max == 0:
        return state, 0, trace
    n = obj.dim
    static_dirs = sweep_directions(n) if n <= DIR_FULL_MAX_DIM else None
    floor_value = ctx.best_value
    floor_point = tuple(float(c) for c in ctx.best_point)
    stall = 0
    try:
        while True:
            ctx.new_epoch()
            state.s_value = ctx.value(state.s)
            dirs = static_dirs if static_dirs is not None else \
                sweep_directions(n, state.s, obj.domain.center)
            found = ray_sweep(state, ctx, config, dirs)
            if found is None:
                found = rotational_sweep(state, ctx, config, dirs)
            gens += 1
            if found is None:
                if trace_sink is not None:
                    trace_sink(gens, state.s, None, False)
                trace.append((trace_offset + gens, floor_value, floor_point))
                if state.scale <= SCALE_MIN:
                    break
                state.scale *= 0.5
                continue
            p, pv = found
            pool = [(p, pv)]
            if state.crossovers_used < config.tc_max:
                state.crossovers_used += 1
                mids = crossover_adjacent_sides(state.cell, p)
                mids = mids[box_mask(obj.domain, mids)]
                pool += zip(mids, ctx.values(mids))
            new_s, new_v = state.s, state.s_value
            for q, qv in pool:
                if better(qv, new_v, ctx.sense):
                    new_s, new_v = q, qv
            improvement = abs(new_v - state.s_value)
            state.s, state.s_value = np.asarray(new_s, dtype=float), new_v
            if better(new_v, floor_value, ctx.sense):
                floor_value, floor_point = new_v, tuple(float(c) for c in state.s)
            if trace_sink is not None:
                trace_sink(gens, state.s, p, True)
            trace.append((trace_offset + gens, floor_value, floor_point))
            if improvement < config.tolerance:
                stall += 1
                if stall >= STALL_LIMIT:
                    break
            else:
                stall = 0
    except BudgetExceeded:
        gens += 1
        trace.append((trace_offset + gens, floor_value, floor_point))
    return state, gens, trace
