"""Shared domain types: box geometry, objectives, solver configuration,
evaluation counting, and the deterministic RNG contract.

Reproducibility contract: every random draw in this package comes from a
numpy PCG64 generator seeded with ``SeedSequence(entropy)`` where entropy is
an integer tuple ``(master_seed, stream_index, ...)``.  Identical entropy
tuples yield identical sample sequences on every platform numpy supports, so
a run is fully determined by its master seed and the derivation indices.
"""

from __future__ import annotations

import bisect
import enum
import numbers
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
# numpy loads its random submodule on first use; load it with this module,
# so a process's first RngStream does not pay for that import mid-run.
import numpy.random  # noqa: F401


class BudgetExceeded(Exception):
    """Raised when the evaluation budget is exhausted.

    Solvers catch this and terminate gracefully with the best-so-far result;
    it never escapes to the caller of a solver entry point.
    """


class ObjectiveError(RuntimeError):
    """The objective raised; the original exception is the ``__cause__``.

    ``partial`` is the RunResult of the best point evaluated before the
    failure, set by ``engine.solve`` (None elsewhere, or when no evaluation
    had succeeded yet).  Its evaluations include the failed call, or every
    row of the batch when a batch form raised.
    """

    partial = None


class Sense(enum.Enum):
    MIN = "min"
    MAX = "max"


class LabelStrategy(enum.Enum):
    BEST_NEIGHBOR = "best_neighbor"
    GRADIENT = "gradient"


def as_point(coords) -> np.ndarray:
    """Coerce to a float64 vector and validate finiteness."""
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point has non-finite components: {p}")
    return p


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box a_i <= x_i <= b_i."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        # Read-only copies: the checks below, and random search's proof that
        # no draw leaves the box, hold only while the bounds cannot change.
        for name in ("lo", "hi"):
            bound = as_point(getattr(self, name)).copy()
            bound.flags.writeable = False
            object.__setattr__(self, name, bound)
        if self.lo.size != self.hi.size:
            raise ValueError("lo/hi dimension mismatch")
        if not np.all(self.lo < self.hi):
            raise ValueError("domain requires lo < hi on every axis")
        with np.errstate(over="ignore"):    # an inf extent raises below instead
            if not np.isfinite(self.extent).all():
                raise ValueError("domain requires a finite hi - lo on every axis")

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * self.lo + 0.5 * self.hi    # a normal float halves exactly; no overflow


def contains(box: BoxDomain, p) -> bool:
    """Closed-box membership: boundary points are feasible."""
    p = np.asarray(p, dtype=float)
    if p.size != box.dim:
        raise ValueError(f"point dim {p.size} != box dim {box.dim}")
    return bool((p >= box.lo).all() and (p <= box.hi).all())


def box_mask(box: BoxDomain, P) -> np.ndarray:
    """Closed-box membership of each row of the (m, n) batch ``P``, or of
    the one point ``P``; NaN coordinates are outside."""
    return np.logical_and.reduce((P >= box.lo) & (P <= box.hi), axis=-1)


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

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, lo, hi, size=None):
        with np.errstate(over="ignore"):    # numpy refuses an inf span, with no warning first
            return self._gen.uniform(lo, hi, size)

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
    minimizer is known, with a finite point of dimension ``dim`` (value
    may itself be a convention for noisy functions, see the test bed).
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
        if self.known_optimum is not None:
            opt = np.asarray(self.known_optimum[0], dtype=float)
            if opt.shape != (self.dim,) or not np.isfinite(opt).all():
                raise ValueError(f"{self.name}: known optimum {self.known_optimum[0]!r} "
                                 f"is not a finite point of dimension {self.dim}")


# (fn, batch form) by id(fn).  Holding fn keeps its id from being reused,
# and ids also serve unhashable callables.  Keying on the function object,
# not on an Objective field, means a copy of an Objective with another fn
# (a wrapper or a user function) finds no batch form and is evaluated row
# by row.
_BATCH_FORMS: dict = {}


def vectorises(fn: Callable):
    """Register the decorated ``batch(P) -> (m,) values`` as the row-wise
    form of the scalar function ``fn``.  Row i of its result must equal
    ``fn(P[i])`` bit for bit.

    For a stochastic ``fn(p, rng)`` the batch form is ``batch(P, rng)``.
    Row i of its result must equal the i-th of m successive ``fn(P[i],
    rng)`` calls on the same stream, bit for bit, and it must leave the
    stream where those m calls leave it."""
    def register(batch):
        _BATCH_FORMS[id(fn)] = (fn, batch)
        return batch
    return register


def batch_form(fn: Callable) -> Optional[Callable]:
    """The batch form registered for ``fn``, or None."""
    entry = _BATCH_FORMS.get(id(fn))
    return None if entry is None else entry[1]


class EvalCounter:
    """Counts objective evaluations against a hard budget."""

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = int(budget)
        self.count = 0

    def tick(self, k: int = 1):
        """Count ``k`` evaluations, or raise BudgetExceeded (counting none)
        when fewer than ``k`` are left."""
        if self.count + k > self.budget:
            raise BudgetExceeded(f"evaluation budget {self.budget} exhausted")
        self.count += k

    @property
    def remaining(self) -> int:
        return self.budget - self.count


def counted_eval(obj: Objective, p, counter: EvalCounter, rng: Optional[RngStream] = None) -> float:
    """Evaluate ``obj`` at ``p``, incrementing ``counter`` by exactly one.

    The rng is consumed only for stochastic objectives.  Raises ValueError
    unless ``p`` is an ``(obj.dim,)`` point inside the box (NaN and inf
    coordinates are outside it), and BudgetExceeded (before evaluating)
    once the budget is used up.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (obj.dim,):
        raise ValueError(f"{obj.name}: point has shape {p.shape}, expected ({obj.dim},)")
    if not box_mask(obj.domain, p):
        raise ValueError(f"{obj.name}: point {p} outside domain")
    counter.tick()
    if obj.stochastic:
        if rng is None:
            raise ValueError(f"{obj.name} is stochastic and needs an rng stream")
        return float(obj.fn(p, rng))
    return float(obj.fn(p))


def better(a: float, b: float) -> bool:
    """Strictly lower (ties are never better); the solvers minimise.

    NaN ranks worst: any non-NaN value beats it, and it beats nothing."""
    return a < b or (b != b and a == a)


def rank(value: float) -> tuple:
    """Sort key for ``better``'s order: ``better(a, b)`` exactly when
    ``rank(a) < rank(b)``.  Every NaN shares one key, which sorts after
    every number."""
    return (1, 0.0) if value != value else (0, value)


def require_integers(config, *names: str) -> None:
    """Raise ValueError naming the first field in ``names`` whose value on
    ``config`` is not an integer; numpy integers count as integers, and a
    bool, though a Python int, does not."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class SgmConfig:
    """All SGM tunables; phase 2's fixed lengths and stop rules are refinement's.

    sense          minimise or maximise the objective
    tf_rounds      subdivision rounds in phase 1
    alpha_base     base ray-mutation length (the sweep tries 1x..10x of it)
    trm_max        rotational-mutation candidate cap, per run
    tc_max         crossover invocation cap, per run
    labeling       how phase 1 labels a vertex
    eval_budget    objective evaluations allowed, per run
    seed           root of the run's random stream
    """

    sense: Sense = Sense.MIN
    tf_rounds: int = 3
    alpha_base: float = 0.1
    trm_max: int = 50
    tc_max: int = 20
    labeling: LabelStrategy = LabelStrategy.BEST_NEIGHBOR
    eval_budget: int = 10_000
    seed: int = 0

    def validate(self, obj: Optional[Objective] = None):
        if not isinstance(self.sense, Sense):
            raise ValueError(f"sense must be a Sense member, got {self.sense!r}")
        if not isinstance(self.labeling, LabelStrategy):
            raise ValueError(f"labeling must be a LabelStrategy member, got {self.labeling!r}")
        require_integers(self, "tf_rounds", "trm_max", "tc_max", "eval_budget", "seed")
        if self.tf_rounds < 0:
            raise ValueError("tf_rounds must be >= 0")
        if not 0 < self.alpha_base < np.inf:
            raise ValueError("alpha_base must be positive and finite")
        if self.trm_max < 0 or self.tc_max < 0:
            raise ValueError("trm_max/tc_max must be >= 0")
        if self.eval_budget < 1:
            raise ValueError("eval_budget must be >= 1")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if obj is not None:
            if self.alpha_base > float(np.max(obj.domain.extent)) / 10:
                raise ValueError("alpha_base*10 exceeds the largest domain extent")
            if self.labeling is LabelStrategy.GRADIENT and obj.gradient_fn is None:
                raise ValueError(f"{obj.name} has no gradient; use BEST_NEIGHBOR labeling")
            if self.labeling is LabelStrategy.GRADIENT and obj.stochastic:
                raise ValueError(f"{obj.name} is stochastic; use BEST_NEIGHBOR labeling")


class Trace(Sequence):
    """A run's trace rows ``(generation, value, point)`` in a fraction of a
    list's memory: an ``array('q')``, an ``array('d')`` and a float64 (m, n)
    matrix.  Read-only; it gives back ``(int, float, tuple)`` rows, equals
    them as a list, has that list's repr, and ``+`` with a list gives a list."""

    __slots__ = ("_gens", "_values", "_points")

    def __init__(self, rows=()):
        gens, values, points = list(zip(*rows)) or [(), (), ()]
        self._gens, self._values = array("q", gens), array("d", values)
        self._points = np.array(points, dtype=float)

    def __len__(self):
        return len(self._gens)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return self._gens[i], self._values[i], tuple(self._points[i].tolist())

    def __iter__(self):
        return zip(self._gens, self._values, map(tuple, self._points.tolist()))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (Trace, list)) else NotImplemented

    def __add__(self, other):
        return list(self) + other

    def __repr__(self):
        return repr(list(self))


@dataclass
class RunResult:
    """Outcome of one solver run; a ``trace`` given as rows becomes a Trace."""

    best_point: tuple
    best_value: float
    evaluations: int
    generations: int
    sd: Optional[float]
    trace: Trace = field(default_factory=Trace)
    wallclock_ms: float = 0.0

    def __post_init__(self):
        self.trace = self.trace if isinstance(self.trace, Trace) else Trace(self.trace)

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


# Walks shorter than this are evaluated row by row: nearly every 2-D sweep
# (40 rows) holds cached rows and many stop within their first few, and
# batching them slowed such solves, while 80-row and longer walks ran faster
# batched.
WALK_BATCH_MIN = 64


def row_keys(P):
    """The cache key of each row of the (m, n) float batch ``P``, as a
    list, or of the one point ``P``: its float64 bytes after adding ``+0.0``,
    which turns ``-0.0`` into ``0.0``.

    Two finite rows share a key exactly when they are ``==`` elementwise.
    A NaN row shares its key with a bit-identical twin, although ``==``
    never holds between them; no solver evaluates one, because ``box_mask``
    drops NaN rows.  Bytes cache their hash, so each key is hashed once
    however many dict operations use it.
    """
    A = np.ascontiguousarray(P + 0.0)
    return A.view(f"V{A.shape[-1] * A.itemsize}").reshape(A.shape[:-1]).tolist()


class EvalContext:
    """Per-run evaluation state: counter, caching, best-seen tracking, and
    comparison epochs for stochastic objectives.

    Its values are ``sign`` (1.0 for Sense.MIN, -1.0 for Sense.MAX) times
    the objective's, so the solvers always minimise, exactly as on -f.
    Deterministic objectives are memoized for the whole run, keyed by
    ``row_keys`` (repeat points cost no budget).  Stochastic objectives are
    evaluated under common random numbers: all evaluations inside one epoch
    share the same noise draw, so candidate-vs-incumbent comparisons within
    an epoch rank by the noise-free part.  ``new_epoch`` rolls the noise and
    clears the epoch cache.
    """

    def __init__(self, obj: Objective, counter: EvalCounter, rng: RngStream, sense: Sense):
        self.obj = obj
        self.counter = counter
        self.rng = rng
        self.sign = {Sense.MIN: 1.0, Sense.MAX: -1.0}[sense]
        self.epoch = -1
        self._cache: dict = {}
        # -0.0 until an epoch draws noise: x + -0.0 is x bit for bit, -0.0 included.
        self._noise_offset = -0.0
        self._fn = obj.noise_free_fn if obj.stochastic else obj.fn
        self._batch = batch_form(self._fn)
        self.best_point: Optional[np.ndarray] = None
        self.best_value: Optional[float] = None
        self.new_epoch()

    def new_epoch(self):
        self.epoch += 1
        if self.obj.stochastic:
            self._cache.clear()
            noise_rng = self.rng.substream(self.epoch)
            # One shared draw per epoch, signed like the values; adding its sum to
            # the noise-free part gives every in-epoch evaluation one rng state.
            self._noise_offset = self.sign * float(np.sum(noise_rng.normal(size=self.obj.dim)))

    def value(self, p, key=None) -> float:
        """``sign`` times the objective at ``p``, from the cache if it holds ``p``.

        ``key`` is ``row_keys(p)``, passed by a caller that has already
        looked it up and missed; ``p`` is then evaluated at once, as it is,
        so it must be the float64 row the key was made from.  Points that
        are ``==`` elementwise share one entry (``-0.0`` hits ``0.0``); a
        NaN point hits only a bit-identical NaN point.
        """
        if key is None:
            p = np.asarray(p, dtype=float)
            key = (p + 0.0).tobytes()    # row_keys(p), without its view
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        self.counter.tick()
        try:
            v = self.sign * float(self._fn(p)) + self._noise_offset
        except Exception as exc:
            raise ObjectiveError(f"{self.obj.name} raised at {p.tolist()}: {exc!r}") from exc
        self._cache[key] = v
        best = self.best_value    # ``better(v, best)``, inlined
        if best is None or v < best or (best != best and v == v):
            self.best_value = v
            self.best_point = p.copy()
        return v

    def values(self, P, beat=None) -> list:
        """``value`` of each row of the (m, n) batch ``P``, in row order;
        with ``beat``, only of the rows up to and including the first one
        strictly ``better`` than ``beat``.  The cache, counter and best
        point end as those successive ``value`` calls would leave them, and
        BudgetExceeded is raised where they would raise it, with the values
        of the rows before the first one left unpaid as its ``settled``.

        With a batch form (see ``vectorises``), one call of it evaluates
        the first occurrence of each cache miss, as many as the budget has
        left; rows it evaluated past the first better one are neither
        counted nor cached.  When every row is a first miss, as in a sweep
        that opened a new epoch, the batch is ``P`` itself and its values
        are the result.  A walk (``beat`` given) of fewer than
        WALK_BATCH_MIN rows, or an objective with no batch form, is
        evaluated row by row instead.  If the batch form raises, every row
        passed to it counts as evaluated, none is cached, and the best point
        stays the one from before the batch.
        """
        P = np.asarray(P, dtype=float)
        keys = row_keys(P)
        cache = self._cache
        if self._batch is not None and (beat is None or len(P) >= WALK_BATCH_MIN):
            misses: dict = {}
            for i, key in enumerate(keys):
                if key not in cache and key not in misses:
                    misses[key] = i
            order = list(misses.values())
            rows = order[:self.counter.remaining]
            n, short = len(rows), len(rows) < len(order)
            new = len(misses) == len(keys)    # every row a first miss: P[:n] are the rows
            V = np.empty(0)
            if rows:
                try:
                    V = self.sign * self._batch(P[:n] if new else P[rows]) + self._noise_offset
                except Exception as exc:
                    self.counter.tick(n)
                    raise ObjectiveError(
                        f"{self.obj.name} raised on a batch of {n} rows: {exc!r}") from exc
            vals = V.tolist()
            stop = order[n] if short else len(keys)    # the first row left unpaid
            if beat is not None:
                if new:
                    A = V    # the values of keys[:stop], in row order
                else:
                    fresh = dict(zip(misses, vals))
                    A = np.array([fresh[k] if k in fresh else cache[k] for k in keys[:stop]])
                wins = np.flatnonzero((A < beat) | ((beat != beat) & (A == A)))
                if wins.size:
                    stop, short = int(wins[0]) + 1, False
                    n = bisect.bisect_left(rows, stop)
            self.counter.tick(n)
            if n:
                cache.update(zip(misses, vals[:n]))
                # The row walk keeps the first row ranked lowest by ``better``.
                j = int(np.argmax(V[:n] == np.fmin.reduce(V[:n])))
                if self.best_value is None or better(vals[j], self.best_value):
                    self.best_value = vals[j]
                    self.best_point = P[rows[j]].copy()
            if not short:    # else the walk below reads the paid rows and raises at the next
                return vals[:stop] if new else list(map(cache.__getitem__, keys[:stop]))
        walked = []
        get, value = cache.get, self.value
        try:
            for p, key in zip(P, keys):
                v = get(key)
                if v is None:
                    v = value(p, key)
                walked.append(v)
                if beat is not None and (v < beat or (beat != beat and v == v)):
                    break
        except BudgetExceeded as exc:
            exc.settled = walked
            raise
        return walked

    def gradient(self, x) -> np.ndarray:
        """``sign`` times ``gradient_fn(x)``; what it raises becomes ObjectiveError."""
        try:
            return self.sign * np.asarray(self.obj.gradient_fn(x), dtype=float)
        except Exception as exc:
            raise ObjectiveError(
                f"{self.obj.name} gradient raised at {x.tolist()}: {exc!r}") from exc

    def feasible(self, p) -> bool:
        """Box membership of one point; the solvers mask whole batches with
        ``box_mask`` instead, but perfbench/trace.py wraps this method."""
        return contains(self.obj.domain, p)
