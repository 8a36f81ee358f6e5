"""Run invariants of SGM, random search (RS) and simulated annealing (SA)
on random boxes and deterministic objectives with plateaus and NaN regions:

- evaluations <= budget, and each one is a call of the objective;
- the best point lies inside the box;
- ``best_value == f(best_point)``;
- the trace never gets worse in the sense's direction;
- no NaN is reported once a finite value has been seen.

RS and SA minimise; SGM runs in both senses.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmopt.baselines import SaConfig, random_search, simulated_annealing
from sgmopt.core import BoxDomain, Objective, RngStream, Sense, SgmConfig
from sgmopt.engine import solve

# A short cooling schedule: 14 stages of 4 steps, 57 evaluations.
FAST_SA = SaConfig(t0=1.0, cooling=0.5, steps_per_temp=4, t_min=1e-4)


@st.composite
def problems(draw):
    """(objective, call log, budget, sense): a quadratic around a point of
    a random box, optionally rounded down to plateaus and NaN wherever the
    first coordinate lies past a cut."""
    n = draw(st.integers(1, 6))
    lo = np.array(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(st.floats(0.5, 20), min_size=n, max_size=n)))
    optimum = lo + (hi - lo) * np.array(
        draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    plateau = draw(st.sampled_from([0.0, 0.5, 5.0]))
    cut = draw(st.one_of(st.none(), st.floats(-0.2, 1.0)))
    calls = []

    def fn(p):
        calls.append(1)
        if cut is not None and p[0] > lo[0] + cut * (hi[0] - lo[0]):
            return math.nan
        q = float(np.sum((p - optimum) ** 2))
        return math.floor(q / plateau) * plateau if plateau else q

    obj = Objective(name="Q", dim=n, domain=BoxDomain(lo, hi), fn=fn)
    sense = draw(st.sampled_from([Sense.MIN, Sense.MAX]))
    return obj, calls, draw(st.integers(1, 2_000)), sense


def same(a, b):
    return a == b or (a != a and b != b)


def check_run(obj, calls, result, budget, sense):
    assert result.evaluations == len(calls) <= budget
    p = np.array(result.best_point)
    assert np.all(p >= obj.domain.lo) and np.all(p <= obj.domain.hi)
    calls.clear()
    assert same(result.best_value, obj.fn(p))
    values = [row[1] for row in result.trace]
    finite = [v for v in values if v == v]
    assert values[len(values) - len(finite):] == finite, "NaN after a finite value"
    sign = 1.0 if sense is Sense.MIN else -1.0
    assert all(sign * b <= sign * a for a, b in zip(finite, finite[1:]))
    assert same(result.best_value, values[-1])


@settings(deadline=None, max_examples=200)
@given(problems(), st.integers(0, 2**32 - 1))
def test_run_invariants(problem, seed):
    obj, calls, budget, sense = problem
    cfg = SgmConfig(sense=sense, eval_budget=budget, seed=seed,
                    alpha_base=0.05 * float(np.min(obj.domain.extent)))
    check_run(obj, calls, solve(obj, cfg), budget, sense)
    calls.clear()
    check_run(obj, calls, random_search(obj, budget, RngStream(seed)), budget, Sense.MIN)
    calls.clear()
    sa = simulated_annealing(obj, FAST_SA, RngStream(seed))
    check_run(obj, calls, sa, 1 + 14 * FAST_SA.steps_per_temp, Sense.MIN)
