"""Public SGM solver entry point: phase 1 (subdivision) feeding phase 2
(refinement) under one evaluation counter and one rng stream."""

from __future__ import annotations

import time
from typing import Optional

from .core import (EvalContext, EvalCounter, Objective, ObjectiveError,
                   RngStream, RunResult, SgmConfig, better)
from .refinement import run_phase2
from .subdivision import run_phase1

# Best-performing settings per De Jong function (budget/tolerance are ours).
_FUNCTION_SETTINGS = {
    "F1": dict(tf_rounds=2, trm_max=15, tc_max=3, eval_budget=20_000),
    "F2": dict(tf_rounds=2, trm_max=16, tc_max=11, eval_budget=20_000),
    "F3": dict(tf_rounds=2, trm_max=25, tc_max=5, eval_budget=60_000),
    "F4": dict(tf_rounds=2, trm_max=75, tc_max=30, eval_budget=60_000),
    "F5": dict(tf_rounds=8, trm_max=9, tc_max=2, eval_budget=30_000),
}


def default_config(obj_or_name, seed: int = 0) -> SgmConfig:
    """Per-function tuned settings for F1-F5, SgmConfig's defaults otherwise.
    On an Objective's box narrower than 1.0, ``alpha_base`` is a tenth of its
    widest side, the largest value ``validate`` accepts."""
    name = obj_or_name.name if isinstance(obj_or_name, Objective) else str(obj_or_name)
    settings = _FUNCTION_SETTINGS.get(name.strip().upper(), {})
    cfg = SgmConfig(seed=seed, **settings)
    if isinstance(obj_or_name, Objective):
        cfg.alpha_base = min(cfg.alpha_base, float(max(obj_or_name.domain.extent)) / 10)
    return cfg


def solve(obj: Objective, config: SgmConfig, rng: Optional[RngStream] = None,
          phase1_sink=None, phase2_sink=None) -> RunResult:
    """Run both SGM phases and report the result.

    Deterministic objectives report the best point over every evaluation
    made.  Stochastic objectives report the final incumbent (the point the
    geometric search settled on) with its latest evaluation, because the
    minimum over noisy draws identifies the luckiest noise sample rather
    than a good point.

    An exception from the objective is re-raised as ObjectiveError, chained
    from the original, whose ``partial`` reports the best point evaluated
    before it (with every evaluation made, the failed one included, and no
    trace or generations).  When a test-bed batch form raised, the count
    includes every point of that batch, and the best point is the best from
    before it.  ``partial`` is None when no evaluation succeeded.
    """
    config.validate(obj)
    t0 = time.perf_counter()
    if rng is None:
        rng = RngStream(config.seed)
    counter = EvalCounter(config.eval_budget)
    ctx = EvalContext(obj, counter, rng, config.sense)
    sign = ctx.sign    # both phases minimise; the report negates a MAX run's values back
    try:
        outcome = run_phase1(obj, config, ctx, trace_sink=phase1_sink)
        trace = list(outcome.trace)
        gens = len(trace) - 1
        if outcome.vertices and counter.remaining > 0:
            state, p2_gens, p2_trace = run_phase2(
                outcome, obj, config, ctx,
                trace_sink=phase2_sink, trace_offset=len(trace) - 1)
            gens += p2_gens
            trace.extend(p2_trace)
            final_point, final_value = state.s, state.s_value
        else:
            final_point, final_value = ctx.best_point, ctx.best_value
    except ObjectiveError as exc:
        if ctx.best_point is not None:
            exc.partial = RunResult.build(obj, ctx.best_point, sign * ctx.best_value,
                                          counter.count, 0, [], t0)
        raise
    if not obj.stochastic:
        final_point, final_value = ctx.best_point, ctx.best_value
        if better(final_value, trace[-1][1]):
            trace.append((gens, final_value, tuple(float(c) for c in final_point)))
    trace = [(g, sign * v, p) for g, v, p in trace]
    return RunResult.build(obj, final_point, sign * final_value, counter.count, gens, trace, t0)
