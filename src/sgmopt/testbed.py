"""Benchmark objectives: two 2-D test problems (a cosine-modulated bowl and
the Beale function) plus the five De Jong functions F1-F5, with analytic
gradients where they exist.

Every deterministic function, and F4's noise-free part, has a batch form
registered with ``core.vectorises`` that evaluates each row of an (m, n)
array in one call.  F1, F3 and F4's noise-free part are one numpy expression
summed with ``np.add.reduce`` over the last axis, so each is its own batch
form; for one point each returns a numpy float64, a ``float`` subclass with
the same value.  TP1, BEALE, F2 and F5 keep a separate scalar form that
returns a Python float, because a row walk evaluates one point at a time
and these are faster at it.  Where such a scalar form applies ``**`` to a
single number, its batch form uses ``np.float_power``, which calls the same
libm ``pow``; ``np.power`` and ``x * x`` round differently on some points.
No power here goes through numpy's ``**`` on an array: numpy may send that
to an AVX-512 kernel that is slower and an ulp off libm on some points, so
values would depend on the host.  F4 and F5 use ``np.float_power`` instead, and their
values are libm's on every host.  Where F5's scalar form sums an array, its
batch form sums along the rows.  tests/test_testbed.py checks all of this
bit for bit.

The Shekel foxholes constants are a module constant built from their
structure: the 25 well centres are the 5x5 grid over (-32, -16, 0, 16, 32).
"""

from __future__ import annotations

import math

import numpy as np

from .core import BoxDomain, Objective, RngStream, vectorises

# TP1 has no published bounds; a symmetric box large enough for its ~50
# local minima.  Overridable through make_objective(bounds=...).
TP1_DEFAULT_BOUND = 16.0

_F4_COEF = np.arange(1, 31, dtype=float)


def eval_tp1(p) -> float:
    x = np.asarray(p, dtype=float)
    return float(x[0] ** 2 + x[1] ** 2 - 18.0 * math.cos(x[0]) - 18.0 * math.cos(x[1]))


@vectorises(eval_tp1)
def batch_tp1(P) -> np.ndarray:
    x1, x2 = P[:, 0], P[:, 1]
    return (np.float_power(x1, 2) + np.float_power(x2, 2)
            - 18.0 * np.cos(x1) - 18.0 * np.cos(x2))


def grad_tp1(p) -> np.ndarray:
    x = np.asarray(p, dtype=float)
    return 2.0 * x + 18.0 * np.sin(x)


def eval_beale(p) -> float:
    # Second coefficient is the standard 2.25: it is the only value for
    # which f(3, 0.5) = 0 holds, which the known optimum requires.
    x1, x2 = float(p[0]), float(p[1])
    t1 = 1.5 - x1 + x1 * x2
    t2 = 2.25 - x1 + x1 * x2 ** 2
    t3 = 2.625 - x1 + x1 * x2 ** 3
    return t1 * t1 + t2 * t2 + t3 * t3


@vectorises(eval_beale)
def batch_beale(P) -> np.ndarray:
    x1, x2 = P[:, 0], P[:, 1]
    t1 = 1.5 - x1 + x1 * x2
    t2 = 2.25 - x1 + x1 * np.float_power(x2, 2)
    t3 = 2.625 - x1 + x1 * np.float_power(x2, 3)
    return t1 * t1 + t2 * t2 + t3 * t3


def grad_beale(p) -> np.ndarray:
    x1, x2 = float(p[0]), float(p[1])
    t1 = 1.5 - x1 + x1 * x2
    t2 = 2.25 - x1 + x1 * x2 ** 2
    t3 = 2.625 - x1 + x1 * x2 ** 3
    g1 = 2.0 * (t1 * (x2 - 1.0) + t2 * (x2 ** 2 - 1.0) + t3 * (x2 ** 3 - 1.0))
    g2 = 2.0 * (t1 * x1 + t2 * 2.0 * x1 * x2 + t3 * 3.0 * x1 * x2 ** 2)
    return np.array([g1, g2])


def eval_f1(p):
    x = np.asarray(p, dtype=float)
    return np.add.reduce(x * x, axis=-1)


vectorises(eval_f1)(eval_f1)


def grad_f1(p) -> np.ndarray:
    return 2.0 * np.asarray(p, dtype=float)


def eval_f2(p) -> float:
    # Squared Rosenbrock form; without the square the function is unbounded
    # below on the box and (1, 1) would not be the minimizer.
    x1, x2 = float(p[0]), float(p[1])
    return 100.0 * (x1 ** 2 - x2) ** 2 + (1.0 - x1) ** 2


@vectorises(eval_f2)
def batch_f2(P) -> np.ndarray:
    x1, x2 = P[:, 0], P[:, 1]
    return (100.0 * np.float_power(np.float_power(x1, 2) - x2, 2)
            + np.float_power(1.0 - x1, 2))


def grad_f2(p) -> np.ndarray:
    x1, x2 = float(p[0]), float(p[1])
    return np.array([
        400.0 * x1 * (x1 ** 2 - x2) - 2.0 * (1.0 - x1),
        -200.0 * (x1 ** 2 - x2),
    ])


def eval_f3(p):
    return 30.0 + np.add.reduce(np.floor(np.asarray(p, dtype=float)), axis=-1)


vectorises(eval_f3)(eval_f3)


def f4_deterministic(p):
    """Noise-free part of F4: sum_i i * x_i^4."""
    return np.add.reduce(_F4_COEF * np.float_power(np.asarray(p, dtype=float), 4), axis=-1)


vectorises(f4_deterministic)(f4_deterministic)


def eval_f4(p, rng: RngStream) -> float:
    # One fresh Gauss(0,1) per term per evaluation (30 draws each call).
    x = np.asarray(p, dtype=float)
    return float(np.add.reduce(_F4_COEF * np.float_power(x, 4) + rng.normal(size=30)))


_W = np.array([-32.0, -16.0, 0.0, 16.0, 32.0])
_FOXHOLES = np.array([np.tile(_W, 5), np.repeat(_W, 5)])
_F5_J = np.arange(1, 26, dtype=float)


def foxholes_matrix() -> np.ndarray:
    """The 2x25 foxholes constants (a copy; callers may not mutate F5's table)."""
    return _FOXHOLES.copy()


def eval_f5(p) -> float:
    # One float_power call for both axes is faster than one per axis.
    t = np.float_power(np.asarray(p, dtype=float)[:, None] - _FOXHOLES, 6)
    return 1.0 / (0.002 + float(np.add.reduce(1.0 / (_F5_J + (t[0] + t[1])))))


@vectorises(eval_f5)
def batch_f5(P) -> np.ndarray:
    # Well j = 5r + c sits at (_W[c], _W[r]), so each row needs only ten
    # powers, not fifty.  One call over an (m, 2, 5) block is no faster.
    u = np.float_power(P[:, :1] - _W, 6)
    v = np.float_power(P[:, 1:] - _W, 6)
    d = (u[:, None, :] + v[:, :, None]).reshape(-1, 25)
    return 1.0 / (0.002 + (1.0 / (_F5_J + d)).sum(axis=1))


def finite_difference_gradient(fn, p) -> np.ndarray:
    """Central differences with per-axis step 1e-6 * (1 + |x_i|)."""
    x = np.asarray(p, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = 1e-6 * (1.0 + abs(x[i]))
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


# name -> (dim, box half-width, fn, gradient_fn, known optimum, noise-free
# part).  An objective is stochastic exactly when it has a noise-free part.
_TABLE = {
    "TP1": (2, TP1_DEFAULT_BOUND, eval_tp1, grad_tp1, ((0.0, 0.0), -36.0), None),
    "BEALE": (2, 4.5, eval_beale, grad_beale, ((3.0, 0.5), 0.0), None),
    "F1": (3, 5.12, eval_f1, grad_f1, ((0.0, 0.0, 0.0), 0.0), None),
    "F2": (2, 2.048, eval_f2, grad_f2, ((1.0, 1.0), 0.0), None),
    # The all-lo corner floors to -6 per axis; domain [-5.12, 5.12]^5 is
    # the one on which the known optimum value 0 actually holds.
    "F3": (5, 5.12, eval_f3, None, (tuple([-5.12] * 5), 0.0), None),
    # Known-optimum value is the noise-free part at the origin.
    "F4": (30, 1.28, eval_f4, None, (tuple([0.0] * 30), 0.0), f4_deterministic),
    "F5": (2, 65.536, eval_f5, None, ((-32.0, -32.0), 0.9980038388186492), None),
}
VALID_NAMES = tuple(_TABLE)


def make_objective(name: str, bounds: float | None = None) -> Objective:
    """Build one of the named objectives, fully populated.

    ``bounds`` overrides the symmetric box half-width (TP1 only; the other
    functions have fixed published domains).
    """
    key = name.strip().upper()
    if bounds is not None and key != "TP1":
        raise ValueError(f"{key} has a fixed domain; bounds override applies to TP1 only")
    if key not in _TABLE:
        raise ValueError(f"unknown objective {name!r}; valid names: {', '.join(VALID_NAMES)}")
    dim, half, fn, gradient_fn, known_optimum, noise_free_fn = _TABLE[key]
    if bounds is not None:
        half = float(bounds)
    return Objective(
        name=key, dim=dim, domain=BoxDomain(np.full(dim, -half), np.full(dim, half)),
        fn=fn, gradient_fn=gradient_fn, known_optimum=known_optimum,
        stochastic=noise_free_fn is not None, noise_free_fn=noise_free_fn)
