"""Seeded inputs for the benchmark workloads.

A run repeats cycles until its time is up.  Every input of cycle ``k``
derives from ``SeedSequence((seed, k, ...))``, so one seed always yields the
same objectives, configs and experiment specs, and cycle 0 is identical in
every run with that seed.  The program receives only these inputs.

This module builds inputs and nothing else: the set-up probe imports it to
time how long building them takes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from sgmopt import baselines, bench, engine, testbed
from sgmopt.core import BoxDomain, Objective

# grid: F3 plus shifted spheres on both sides of subdivision's
# MOORE_FULL_MAX_DIM (6) and CORNER_ENUM_MAX_DIM (12).  A 20,000 budget would
# make the n=6 sphere take ~6 s, leaving too few solves in a run for a tail
# percentile; 5,000 keeps the dimension cliff (n=3 solved, n>=6 not).
SPHERE_DIMS = (3, 6, 12, 16)
SPHERE_HALF_WIDTH = 5.12
SPHERE_BUDGET = 5_000

# refine: F4 runs twice per cycle with two seeds; it is the only stochastic
# function, so the two solves differ, and an odd cycle length keeps the
# median solve inside one function's block of times.
REFINE_FUNCTIONS = ("BEALE", "F4", "TP1", "F4", "F2")

EXPERIMENT_FUNCTIONS = ("F1", "F2", "F4", "F5")
EXPERIMENT_ALGORITHMS = ("SGM", "RS", "SA")
# One trial per pair per batch: more, shorter batches average the thread
# pool's scheduling noise better than fewer, longer ones.
EXPERIMENT_TRIALS = 1


def sa_budget(sa=None) -> int:
    """Evaluations simulated annealing makes: one for the start point and
    ``steps_per_temp`` per temperature stage above ``t_min``."""
    sa = sa or baselines.SaConfig()
    stages, t = 0, sa.t0
    while t > sa.t_min:
        stages += 1
        t *= sa.cooling
    return 1 + stages * sa.steps_per_temp


def derived_seed(*entropy: int) -> int:
    """A 64-bit seed drawn from ``SeedSequence(entropy)``."""
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class ShiftedSphere:
    """The test bed's sphere (F1) moved so its minimum sits at ``shift``."""

    def __init__(self, shift: np.ndarray):
        self.shift = shift

    def __call__(self, p) -> float:
        return testbed.eval_f1(np.asarray(p, dtype=float) - self.shift)


def shifted_sphere(n: int, seed: int, k: int) -> Objective:
    rng = np.random.default_rng(np.random.SeedSequence((seed, k, n)))
    shift = rng.uniform(-SPHERE_HALF_WIDTH, SPHERE_HALF_WIDTH, n)
    lo = np.full(n, -SPHERE_HALF_WIDTH)
    return Objective(
        name=f"SPHERE{n}", dim=n, domain=BoxDomain(lo, -lo), fn=ShiftedSphere(shift),
        known_optimum=(tuple(float(c) for c in shift), 0.0))


def grid_inputs(seed: int, k: int) -> list:
    """(objective, config) pairs: F3 with its default config, then one
    shifted sphere per dimension in SPHERE_DIMS."""
    f3 = testbed.make_objective("F3")
    tasks = [(f3, engine.default_config(f3, seed=derived_seed(seed, k, 0)))]
    for n in SPHERE_DIMS:
        obj = shifted_sphere(n, seed, k)
        cfg = engine.default_config(obj, seed=derived_seed(seed, k, n))
        tasks.append((obj, replace(cfg, eval_budget=SPHERE_BUDGET)))
    return tasks


def refine_inputs(seed: int, k: int) -> list:
    """(objective, config) pairs for REFINE_FUNCTIONS with default configs."""
    tasks = []
    for j, name in enumerate(REFINE_FUNCTIONS):
        obj = testbed.make_objective(name)
        tasks.append((obj, engine.default_config(obj, seed=derived_seed(seed, k, j))))
    return tasks


def experiment_inputs(seed: int, k: int, workers: int) -> bench.ExperimentSpec:
    """One experiment batch; ``outputs=None`` so the benchmark writes the
    reports itself and times that step on its own.

    Random search gets simulated annealing's evaluation count, so the two
    baselines compare at equal cost.  With the default 1,000 the six
    shortest trials made up half of each batch, and the median trial time
    jumped between them and the longer ones from run to run."""
    spec = bench.ExperimentSpec(
        functions=EXPERIMENT_FUNCTIONS, algorithms=EXPERIMENT_ALGORITHMS,
        trials=EXPERIMENT_TRIALS, master_seed=derived_seed(seed, k),
        outputs=None, workers=workers, rs_budget=sa_budget())
    spec.validate()
    return spec


def inputs(workload: str, seed: int, k: int, workers: int):
    if workload == "grid":
        return grid_inputs(seed, k)
    if workload == "refine":
        return refine_inputs(seed, k)
    if workload == "experiment":
        return experiment_inputs(seed, k, workers)
    raise ValueError(f"unknown workload {workload!r}")


def planned_trials(workload: str) -> int:
    """Solves (or experiment trials) in one cycle."""
    if workload == "grid":
        return 1 + len(SPHERE_DIMS)
    if workload == "refine":
        return len(REFINE_FUNCTIONS)
    return len(EXPERIMENT_FUNCTIONS) * len(EXPERIMENT_ALGORITHMS) * EXPERIMENT_TRIALS
