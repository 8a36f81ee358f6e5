"""Output checks: per-solve invariants, the success test, and result digests.

Every workload minimises, so "better" means lower throughout.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from sgmopt import bench, testbed
from sgmopt.core import RunResult, SgmConfig, contains

from . import workloads

# Max-norm distance to the optimum at which a shifted sphere counts as solved
# (the test bed's default success radius).
SPHERE_SUCCESS_TOL = bench.SUCCESS_TOL["default"]


def trial_budget(kind: str, args: dict) -> int:
    """Evaluation budget of one recorded trial, from its call arguments."""
    if kind == "SGM":
        config: SgmConfig = args["config"]
        return config.eval_budget
    if kind == "RS":
        return int(args["budget"])
    return workloads.sa_budget(args.get("sa"))


def violations(obj, budget: int, result: RunResult) -> list:
    """Broken invariants of one run; empty when the result is sound."""
    problems = []
    if result.evaluations > budget:
        problems.append(f"{result.evaluations} evaluations over budget {budget}")
    point = np.asarray(result.best_point, dtype=float)
    if point.shape != (obj.dim,) or not np.all(np.isfinite(point)) \
            or not contains(obj.domain, point):
        problems.append(f"best point {result.best_point} outside the box")
    elif not obj.stochastic:
        fn = getattr(obj.fn, "__wrapped__", obj.fn)
        value = float(fn(point))
        if value != result.best_value:
            problems.append(f"best_value {result.best_value!r} != f(best_point) {value!r}")
    if not math.isfinite(result.best_value):
        problems.append(f"best value {result.best_value!r} is not finite")
    values = [row[1] for row in result.trace]
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("trace is not monotone")
    return problems


def solved(obj, result: RunResult) -> bool:
    """The test bed's success test, or for the shifted spheres a max-norm
    distance to the shift within SPHERE_SUCCESS_TOL."""
    if obj.name in testbed.VALID_NAMES:
        return bench.is_success(obj.name, result.best_point)
    return result.sd is not None and result.sd <= SPHERE_SUCCESS_TOL


def row_key(row: bench.TrialRow) -> tuple:
    """A report row without its wallclock."""
    return (row.function, row.algorithm, row.trial, row.seed, row.generations,
            row.evaluations, row.best_f, row.best_x, row.sd, row.sd_vector)


def digest(items) -> str:
    """SHA-256 over the exact reprs of ``items`` (floats repr round-trip)."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()
