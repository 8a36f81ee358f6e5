"""Baseline solvers (uniform random search, simulated annealing) and the
static literature generation-count table used for comparisons."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Objective, RngStream, RunResult, batch_form, better, require_integers
# Unused here, but perfbench/trace.py wraps baselines.counted_eval.
from .core import counted_eval  # noqa: F401


# The De Jong functions, in the column order of every reference row.
DE_JONG_COLUMNS = ("F1", "F2", "F3", "F4", "F5")


@dataclass(frozen=True)
class ReferenceRow:
    """Average generation counts for DE_JONG_COLUMNS, as published (static data)."""

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


def _gens(algorithm: str) -> tuple:
    return next(row.gens for row in _REFERENCE_ROWS if row.algorithm == algorithm)


def de_row() -> tuple:
    return _gens("DE(F: RandomValues)")


def rslmga_row() -> tuple:
    return _gens("RSLMGA")


RS_BLOCK = 512


def random_search(obj: Objective, budget: int, rng: RngStream) -> RunResult:
    """Uniform sampling over the box; returns the best of ``budget`` draws.

    The draws come in blocks of up to RS_BLOCK rows, one ``rng.random((m,
    n))`` call a block.  An objective with a batch form (the test bed's)
    evaluates a block in one call, any other one row at a time; a
    stochastic one is passed ``rng`` as well, after the block's points are
    drawn.  Both paths draw the same numbers from ``rng`` (see
    ``core.vectorises``).  No draw is tested against the box: none can
    leave it (the comment below gives the rounding argument)."""
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    t0 = time.perf_counter()
    # (1, n) bounds: numpy broadcasts them over a block faster than (n,) ones.
    lo, hi = obj.domain.lo[None], obj.domain.hi[None]
    span = hi - lo    # finite: BoxDomain refuses a box whose hi - lo overflows
    # No draw lo + span * u can leave [lo, hi].  Generator.random returns
    # u in [0, 1 - 2**-53], and BoxDomain admits only finite lo < hi whose
    # float difference span is finite.  For a normal span, span * u rounds
    # to at most the float just below span, which lies below the exact
    # hi - lo even where span was rounded up (by at most half that gap); a
    # subnormal span is exact.  So lo plus the rounded product is at most
    # hi, and rounding that sum, being monotone, keeps it at most the float
    # hi (and at least lo, as the product is >= 0).
    fn, batch = obj.fn, batch_form(obj.fn)
    extra = (rng,) if obj.stochastic else ()
    best_x = best_v = None
    trace = []
    for start in range(0, budget, RS_BLOCK):
        X = lo + span * rng.random((min(RS_BLOCK, budget - start), obj.dim))
        vals = (batch(X, *extra).tolist() if batch is not None
                else [float(fn(x, *extra)) for x in X])
        # Only values below the best so far can beat it; NaN passes this
        # filter, and ``better`` ranks it worst.
        rows = range(len(X)) if best_v is None else [
            i for i, v in enumerate(vals) if not v >= best_v]
        for i in rows:
            v = vals[i]
            if best_v is None or better(v, best_v):
                best_x, best_v = X[i], v
                trace.append((start + i, v, tuple(float(c) for c in best_x)))
    return RunResult.build(obj, best_x, best_v, budget, budget, trace, t0)


@dataclass
class SaConfig:
    """Simulated-annealing settings: initial temperature, geometric cooling
    factor, Metropolis steps per temperature (also the row count of each
    stage's block of random draws), and the Gaussian proposal scale as a
    fraction of each axis extent.  Cooling stops at t_min, a constant.

    The proposal width also anneals with sqrt(T/t0) (floored at 2% of the
    base width) so early stages explore the box and late stages resolve
    narrow valleys, and once T drops below 1% of t0 each stage restarts the
    walk from the best point seen so far; both mechanisms are needed for
    reliable convergence on curved-valley objectives."""

    t0: float = 10.0
    cooling: float = 0.95
    steps_per_temp: int = 30
    proposal_scale: float = 0.1
    t_min = 1e-5    # unannotated: a class constant, not a field

    def validate(self):
        require_integers(self, "steps_per_temp")
        if not 0 < self.t0 < np.inf:
            raise ValueError("t0 must be positive and finite")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must lie in (0, 1)")
        if self.steps_per_temp < 1:
            raise ValueError("steps_per_temp must be >= 1")
        if not 0 <= self.proposal_scale < np.inf:
            raise ValueError("proposal_scale must be finite and >= 0")
        if self.t0 <= self.t_min:
            raise ValueError(f"t0 must exceed t_min = {self.t_min}")


_SA_WIDTH_FLOOR = 0.02
_SA_COLD_FRACTION = 0.01


def simulated_annealing(obj: Objective, sa: Optional[SaConfig], rng: RngStream) -> RunResult:
    """Metropolis acceptance with geometric cooling from a uniform draw;
    proposals are Gaussian per axis (scaled by axis extent and the annealing
    width) and clamped to the box.  Returns the best point ever visited.

    Each stage draws its randomness before its first evaluation: one
    ``rng.normal((steps_per_temp, n))`` block, whose row i is step i's
    proposal offset, then one ``rng.random(steps_per_temp)`` block of
    acceptance draws.  The Metropolis test uses libm's ``math.exp``, so its
    outcome does not depend on the host's numpy dispatch."""
    sa = sa or SaConfig()
    sa.validate()
    t0_clock = time.perf_counter()
    box = obj.domain
    # lo + (hi - lo) * random(), so in the box by random_search's rounding argument.
    x = rng.uniform(box.lo, box.hi)
    base_sigma = sa.proposal_scale * box.extent
    fn, stochastic, steps, n = obj.fn, obj.stochastic, sa.steps_per_temp, obj.dim
    maximum, minimum, exp = np.maximum, np.minimum, math.exp
    lo, hi = box.lo, box.hi
    fx = float(fn(x, rng) if stochastic else fn(x))
    best_x, best_v = x, fx
    trace = [(0, fx, tuple(float(c) for c in x))]
    temp = sa.t0
    stage = 0
    while temp > sa.t_min:
        stage += 1
        if temp < _SA_COLD_FRACTION * sa.t0:
            x, fx = best_x, best_v
        Z = rng.normal((steps, n))
        Z *= base_sigma * max(np.sqrt(temp / sa.t0), _SA_WIDTH_FLOOR)
        U = rng.random(steps).tolist()
        for i in range(steps):
            # x + z * sigma, built in the stage's fresh row Z[i] (x and
            # best_x may alias earlier rows or blocks, never this row); the
            # clamp keeps every proposal in the box.
            prop = Z[i]
            prop += x
            maximum(prop, lo, out=prop)
            minimum(prop, hi, out=prop)
            fp = float(fn(prop, rng) if stochastic else fn(prop))
            if better(fp, fx) or U[i] < exp(-(fp - fx) / temp):
                x, fx = prop, fp
            if better(fp, best_v):
                best_x, best_v = prop, fp
                trace.append((stage, fp, tuple(float(c) for c in prop)))
        temp *= sa.cooling
    return RunResult.build(obj, best_x, best_v, 1 + stage * steps, stage, trace, t0_clock)
