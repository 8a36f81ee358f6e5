"""Shared domain types: box geometry, objectives, solver configuration,
evaluation counting, and the deterministic RNG contract.

Reproducibility contract: every random draw in this package comes from a
numpy PCG64 generator seeded with ``SeedSequence(entropy)`` where entropy is
an integer tuple ``(master_seed, stream_index, ...)``.  Identical entropy
tuples yield identical sample sequences on every platform numpy supports, so
a run is fully determined by its master seed and the derivation indices.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class BudgetExceeded(Exception):
    """Raised when the evaluation budget is exhausted.

    Solvers catch this and terminate gracefully with the best-so-far result;
    it never escapes to the caller of a solver entry point.
    """


class GradientUnavailable(Exception):
    """Raised for objectives with no usable gradient (piecewise constant or
    stochastic functions)."""


class RefinementLimit(Exception):
    """Raised when a grid cell would be halved past the exactness limit."""


class ObjectiveError(RuntimeError):
    """The objective raised; the original exception is the ``__cause__``.

    ``partial`` is the RunResult of the best point evaluated before the
    failure, set by ``engine.solve`` (None elsewhere, or when no evaluation
    had succeeded yet).
    """

    partial = None


class Sense(enum.Enum):
    MIN = "min"
    MAX = "max"


class LabelStrategy(enum.Enum):
    BEST_NEIGHBOR = "best_neighbor"
    GRADIENT = "gradient"


def as_point(coords, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a float64 vector and validate finiteness."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if dim is not None and p.size != dim:
        raise ValueError(f"point has dimension {p.size}, expected {dim}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point has non-finite components: {p}")
    return p


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box a_i <= x_i <= b_i."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_point(self.lo))
        object.__setattr__(self, "hi", as_point(self.hi))
        if self.lo.size != self.hi.size:
            raise ValueError("lo/hi dimension mismatch")
        if not np.all(self.lo < self.hi):
            raise ValueError("domain requires lo < hi on every axis")

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


def contains(box: BoxDomain, p) -> bool:
    """Closed-box membership: boundary points are feasible."""
    p = np.asarray(p, dtype=float)
    if p.size != box.dim:
        raise ValueError(f"point dim {p.size} != box dim {box.dim}")
    return bool((p >= box.lo).all() and (p <= box.hi).all())


def box_mask(box: BoxDomain, P) -> np.ndarray:
    """Closed-box membership of each row of the (m, n) batch ``P``."""
    return ((P >= box.lo) & (P <= box.hi)).all(axis=1)


def clamp(box: BoxDomain, p) -> np.ndarray:
    """Project each coordinate onto [lo, hi].  Idempotent."""
    p = np.asarray(p, dtype=float)
    if p.size != box.dim:
        raise ValueError(f"point dim {p.size} != box dim {box.dim}")
    return np.minimum(np.maximum(p, box.lo), box.hi)


class RngStream:
    """Deterministic random stream derived from an integer entropy tuple.

    Generator algorithm: numpy ``PCG64`` keyed by ``SeedSequence(entropy)``.
    ``substream(j)`` derives an independent child stream by appending ``j``
    to the entropy tuple, so (seed, trial, epoch, ...) hierarchies are stable
    across runs and platforms.
    """

    def __init__(self, *entropy: int):
        if not entropy:
            raise ValueError("entropy tuple must be non-empty")
        self.entropy = tuple(int(e) for e in entropy)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.entropy)))

    def substream(self, *idx: int) -> "RngStream":
        return RngStream(*(self.entropy + tuple(int(i) for i in idx)))

    def random(self) -> float:
        return float(self._gen.random())

    def uniform(self, lo, hi, size=None):
        return self._gen.uniform(lo, hi, size=size)

    def normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def __repr__(self):
        return f"RngStream{self.entropy}"


@dataclass
class Objective:
    """A named box-constrained objective.

    ``fn`` takes a point for deterministic functions and ``(point, rng)``
    for stochastic ones (``stochastic=True``).  ``gradient_fn`` is analytic
    where one exists; ``known_optimum`` is ``(point, value)`` when the
    minimizer is known (value may itself be a convention for noisy
    functions, see the test bed).
    """

    name: str
    dim: int
    domain: BoxDomain
    fn: Callable
    gradient_fn: Optional[Callable] = None
    known_optimum: Optional[tuple] = None
    stochastic: bool = False
    noise_free_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.domain.dim != self.dim:
            raise ValueError("domain dimension mismatch")
        if self.stochastic and self.noise_free_fn is None:
            raise ValueError("stochastic objectives must supply noise_free_fn")


class EvalCounter:
    """Counts objective evaluations against a hard budget."""

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = int(budget)
        self.count = 0

    def tick(self):
        if self.count >= self.budget:
            raise BudgetExceeded(f"evaluation budget {self.budget} exhausted")
        self.count += 1

    @property
    def remaining(self) -> int:
        return self.budget - self.count


def counted_eval(obj: Objective, p, counter: EvalCounter, rng: Optional[RngStream] = None) -> float:
    """Evaluate ``obj`` at ``p``, incrementing ``counter`` by exactly one.

    The rng is consumed only for stochastic objectives.  Raises
    BudgetExceeded (before evaluating) once the budget is used up.
    """
    p = as_point(p, obj.dim)
    if not contains(obj.domain, p):
        raise ValueError(f"{obj.name}: point {p} outside domain")
    counter.tick()
    if obj.stochastic:
        if rng is None:
            raise ValueError(f"{obj.name} is stochastic and needs an rng stream")
        return float(obj.fn(p, rng))
    return float(obj.fn(p))


def better(a: float, b: float, sense: Sense) -> bool:
    """Strictly better in the configured sense (ties are never better).

    NaN ranks worst: any non-NaN value beats it, and it beats nothing."""
    beats = a < b if sense is Sense.MIN else a > b
    return beats or (b != b and a == a)


@dataclass
class SgmConfig:
    """All SGM tunables.

    tf_rounds      subdivision rounds in phase 1
    alpha_base     base ray-mutation length (the sweep tries 1x..10x of it)
    trm_max        rotational-mutation candidate cap, per run
    tc_max         crossover invocation cap, per run
    beta_sweep     rotation step lengths, strictly increasing
    """

    sense: Sense = Sense.MIN
    tf_rounds: int = 3
    alpha_base: float = 0.1
    trm_max: int = 50
    tc_max: int = 20
    beta_sweep: tuple = (0.1, 0.25, 0.5, 0.75, 1.0)
    labeling: LabelStrategy = LabelStrategy.BEST_NEIGHBOR
    eval_budget: int = 10_000
    tolerance: float = 1e-9
    seed: int = 0

    def validate(self, obj: Optional[Objective] = None):
        if self.tf_rounds < 0:
            raise ValueError("tf_rounds must be >= 0")
        if self.alpha_base <= 0:
            raise ValueError("alpha_base must be positive")
        if self.trm_max < 0 or self.tc_max < 0:
            raise ValueError("trm_max/tc_max must be >= 0")
        if self.eval_budget < 1:
            raise ValueError("eval_budget must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        betas = tuple(self.beta_sweep)
        if not betas or any(b <= 0 for b in betas):
            raise ValueError("beta_sweep must contain positive values")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("beta_sweep must be strictly increasing")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if obj is not None:
            if 10.0 * self.alpha_base > float(np.max(obj.domain.extent)):
                raise ValueError("alpha_base*10 exceeds the largest domain extent")
            if self.labeling is LabelStrategy.GRADIENT and obj.gradient_fn is None:
                raise ValueError(f"{obj.name} has no gradient; use BEST_NEIGHBOR labeling")


@dataclass
class RunResult:
    """Outcome of one solver run."""

    best_point: tuple
    best_value: float
    evaluations: int
    generations: int
    sd: Optional[float]
    trace: list = field(default_factory=list)
    wallclock_ms: float = 0.0

    @classmethod
    def build(cls, obj: Objective, best_point, best_value, evaluations: int,
              generations: int, trace: list, t0: float) -> "RunResult":
        """The report of a run on ``obj`` that started at ``perf_counter()``
        reading ``t0``: the best point as a float tuple, its max-norm
        distance to the known optimum as ``sd``, and the elapsed time."""
        point = tuple(float(c) for c in best_point)
        return cls(best_point=point, best_value=float(best_value),
                   evaluations=evaluations, generations=generations,
                   sd=deviation(point, obj.known_optimum)[0], trace=trace,
                   wallclock_ms=(time.perf_counter() - t0) * 1000.0)

    def without_wallclock(self) -> tuple:
        """Everything but the timing, for bit-identity comparisons."""
        return (self.best_point, self.best_value, self.evaluations,
                self.generations, self.sd, tuple(self.trace))


def deviation(best_point, known_optimum) -> tuple:
    """(max-norm, componentwise vector) of |best - optimum|, or (None, None)."""
    if known_optimum is None:
        return None, None
    opt = np.asarray(known_optimum[0], dtype=float)
    vec = np.abs(np.asarray(best_point, dtype=float) - opt)
    return float(np.max(vec)), tuple(float(v) for v in vec)


class EvalContext:
    """Per-run evaluation state: counter, caching, best-seen tracking, and
    comparison epochs for stochastic objectives.

    Deterministic objectives are memoized for the whole run (repeat points
    cost no budget).  Stochastic objectives are evaluated under common
    random numbers: all evaluations inside one epoch share the same noise
    draw, so candidate-vs-incumbent comparisons within an epoch rank by the
    noise-free part.  ``new_epoch`` rolls the noise and clears the epoch
    cache.
    """

    def __init__(self, obj: Objective, counter: EvalCounter, rng: RngStream, sense: Sense):
        self.obj = obj
        self.counter = counter
        self.rng = rng
        self.sense = sense
        self.epoch = -1
        self._cache: dict = {}
        self._noise_offset = 0.0
        self.best_point: Optional[np.ndarray] = None
        self.best_value: Optional[float] = None
        self.new_epoch()

    def new_epoch(self):
        self.epoch += 1
        if self.obj.stochastic:
            self._cache.clear()
            noise_rng = self.rng.substream(self.epoch)
            # One shared draw per epoch; adding its sum to the noise-free part
            # equals giving every in-epoch evaluation the identical rng state.
            self._noise_offset = float(np.sum(noise_rng.normal(size=self.obj.dim)))

    def value(self, p) -> float:
        p = np.asarray(p, dtype=float)
        key = tuple(p.tolist())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.counter.tick()
        try:
            if self.obj.stochastic:
                v = float(self.obj.noise_free_fn(p)) + self._noise_offset
            else:
                v = float(self.obj.fn(p))
        except Exception as exc:
            raise ObjectiveError(f"{self.obj.name} raised at {p.tolist()}: {exc!r}") from exc
        self._cache[key] = v
        if self.best_value is None or better(v, self.best_value, self.sense):
            self.best_value = v
            self.best_point = p.copy()
        return v

    def iter_values(self, P):
        """Yield ``value`` of each row of the (m, n) batch ``P``, in row
        order, evaluating a row only when the caller asks for it.

        Cache hits are looked up here, with keys from one ``P.tolist()``;
        each miss goes through ``value``, so a budget running out mid-batch
        raises BudgetExceeded at the same row with the same state, and a
        caller that stops early leaves the later rows unevaluated.
        """
        P = np.asarray(P, dtype=float)
        cache = self._cache
        for p, row in zip(P, P.tolist()):
            hit = cache.get(tuple(row))
            yield hit if hit is not None else self.value(p)

    def values(self, P) -> list:
        """``value`` of every row of the (m, n) batch ``P``, in row order."""
        return list(self.iter_values(P))

    def feasible(self, p) -> bool:
        """Box membership of one point; the solvers mask whole batches with
        ``box_mask`` instead, but perfbench/trace.py wraps this method."""
        return contains(self.obj.domain, p)
