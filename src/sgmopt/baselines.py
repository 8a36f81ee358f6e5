"""Baseline solvers (uniform random search, simulated annealing) and the
static literature generation-count table used for comparisons."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (BudgetExceeded, EvalCounter, Objective, RngStream,
                   RunResult, batch_form, better, box_mask, counted_eval)


@dataclass(frozen=True)
class ReferenceRow:
    """Average generation counts for F1..F5, as published (static data)."""

    algorithm: str
    gens: tuple


_REFERENCE_ROWS = (
    ReferenceRow("PGA(lambda=4)", (1170, 1235, 3481, 3194, 1256)),
    ReferenceRow("PGA(lambda=8)", (1526, 1671, 3634, 5243, 2076)),
    ReferenceRow("Grefensstette", (2210, 14229, 2259, 3070, 4334)),
    ReferenceRow("Eshelman", (1538, 9477, 1740, 4137, 3004)),
    ReferenceRow("DE(F: RandomValues)", (260, 670, 125, 2300, 1200)),
    ReferenceRow("RSLMGA", (20, 29, 32, 107, 19)),
)


def reference_table() -> list:
    """The embedded comparison rows, exactly as published."""
    return list(_REFERENCE_ROWS)


def de_row() -> tuple:
    return _REFERENCE_ROWS[4].gens


def rslmga_row() -> tuple:
    return _REFERENCE_ROWS[5].gens


RS_BLOCK = 512


def _uniform_blocks(obj: Objective, budget: int, rng: RngStream):
    """``budget`` uniform points over the box, in draw order, as blocks of
    up to RS_BLOCK rows (the same numbers as one draw per point), or of one
    row for stochastic objectives, whose fn shares the rng."""
    lo, hi = obj.domain.lo, obj.domain.hi
    step = 1 if obj.stochastic else RS_BLOCK
    for start in range(0, budget, step):
        yield rng.uniform(lo, hi, size=(min(step, budget - start), obj.dim))


def random_search(obj: Objective, budget: int, rng: RngStream) -> RunResult:
    """Uniform sampling over the box; returns the best of ``budget`` draws.

    A deterministic objective with a batch form (the test bed's) is
    evaluated one block of draws per call; any other, one draw at a time
    through ``counted_eval``."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    t0 = time.perf_counter()
    counter = EvalCounter(budget)
    batch = None if obj.stochastic else batch_form(obj.fn)
    best_x = None
    best_v = None
    trace = []
    start = 0
    for X in _uniform_blocks(obj, budget, rng):
        if batch is None:
            vals = [counted_eval(obj, x, counter, rng) for x in X]
            rows = range(len(X))
        else:
            if X.shape[1:] != (obj.dim,) or not box_mask(obj.domain, X).all():
                raise ValueError(f"{obj.name}: draws outside domain")
            counter.tick(len(X))
            V = batch(X)
            vals = V.tolist()
            # Only rows below the best so far can beat it; NaN rows pass
            # this filter, and ``better`` ranks them worst.
            rows = range(len(X)) if best_v is None else np.flatnonzero(~(V >= best_v)).tolist()
        for i in rows:
            v = vals[i]
            if best_v is None or better(v, best_v):
                best_x, best_v = X[i], v
                trace.append((start + i, float(v), tuple(float(c) for c in best_x)))
        start += len(X)
    return RunResult.build(obj, best_x, best_v, counter.count, budget, trace, t0)


@dataclass
class SaConfig:
    """Simulated-annealing settings: initial temperature, geometric cooling
    factor, Metropolis steps per temperature, and the Gaussian proposal
    scale as a fraction of each axis extent.  Cooling stops at t_min.

    The proposal width also anneals with sqrt(T/t0) (floored at 2% of the
    base width) so early stages explore the box and late stages resolve
    narrow valleys, and once T drops below 1% of t0 each stage restarts the
    walk from the best point seen so far; both mechanisms are needed for
    reliable convergence on curved-valley objectives."""

    t0: float = 10.0
    cooling: float = 0.95
    steps_per_temp: int = 30
    proposal_scale: float = 0.1
    t_min: float = 1e-5

    def validate(self):
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must lie in (0, 1)")
        if self.steps_per_temp < 1:
            raise ValueError("steps_per_temp must be >= 1")
        if self.proposal_scale < 0:
            raise ValueError("proposal_scale must be >= 0")
        if not 0 < self.t_min < self.t0:
            raise ValueError("t_min must lie in (0, t0)")


_SA_WIDTH_FLOOR = 0.02
_SA_COLD_FRACTION = 0.01


def simulated_annealing(obj: Objective, sa: Optional[SaConfig], rng: RngStream) -> RunResult:
    """Metropolis acceptance with geometric cooling from a uniform draw;
    proposals are Gaussian per axis (scaled by axis extent and the annealing
    width) and clamped to the box.  Returns the best point ever visited."""
    sa = sa or SaConfig()
    sa.validate()
    t0_clock = time.perf_counter()
    box = obj.domain
    base_sigma = sa.proposal_scale * box.extent
    n_temps = 0
    t = sa.t0
    while t > sa.t_min:
        n_temps += 1
        t *= sa.cooling
    counter = EvalCounter(1 + n_temps * sa.steps_per_temp)
    x = rng.uniform(box.lo, box.hi)
    fx = counted_eval(obj, x, counter, rng)
    best_x, best_v = x, fx
    trace = [(0, float(fx), tuple(float(c) for c in x))]
    temp = sa.t0
    stage = 0
    try:
        while temp > sa.t_min:
            stage += 1
            if temp < _SA_COLD_FRACTION * sa.t0:
                x, fx = best_x, best_v
            sigma = base_sigma * max(np.sqrt(temp / sa.t0), _SA_WIDTH_FLOOR)
            for _ in range(sa.steps_per_temp):
                # counted_eval checks the shape and the box once, below.
                prop = np.minimum(np.maximum(x + rng.normal(size=obj.dim) * sigma, box.lo),
                                  box.hi)
                fp = counted_eval(obj, prop, counter, rng)
                if better(fp, fx) or rng.random() < np.exp(-(fp - fx) / temp):
                    x, fx = prop, fp
                if better(fp, best_v):
                    best_x, best_v = prop, fp
                    trace.append((stage, float(fp), tuple(float(c) for c in prop)))
            temp *= sa.cooling
    except BudgetExceeded:
        pass
    return RunResult.build(obj, best_x, best_v, counter.count, stage, trace, t0_clock)
