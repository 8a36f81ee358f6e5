"""Trial recording and span tracing, both applied from outside sgmopt.

Each replaces functions at the module or class attributes that sgmopt's own
callers look them up through (``engine.run_phase1``, ``EvalContext.value``,
``subdivision.contains``, ``baselines.counted_eval``, ...) and puts the
originals back on exit.  No file of the package changes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from sgmopt import baselines, core, engine, subdivision, testbed

# (module, attribute, trial kind) of every entry point that starts one solve
# or baseline trial.
TRIAL_ENTRY_POINTS = (
    (engine, "solve", "SGM"),
    (baselines, "random_search", "RS"),
    (baselines, "simulated_annealing", "SA"),
)
TRIAL_SPAN_NAMES = tuple(f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
                         for mod, name, _ in TRIAL_ENTRY_POINTS)

# Spans kept for the span file, over all threads; later spans still count
# towards every metric.  At 37 bytes a span this bounds memory.  The pool
# starts new threads for every experiment batch, so a per-thread limit
# would not.
SPANS_KEPT = 1_000_000


@contextmanager
def patched(changes):
    """Set ``(owner, name, value)`` attributes, restoring them on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in changes]
    try:
        for owner, name, value in changes:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


@dataclass
class Trial:
    kind: str               # "SGM", "RS" or "SA"
    args: dict              # call arguments by parameter name
    start: float
    end: float
    cpu: float              # CPU time of the calling thread during the call
    result: Optional[core.RunResult]
    error: Optional[str]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Times every trial entry-point call and keeps its arguments and result."""

    def __init__(self):
        self.trials: list = []

    def _wrap(self, fn, kind):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, error = None, None
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = repr(exc)
                raise
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                self.trials.append(Trial(kind, sig.bind(*args, **kwargs).arguments,
                                         start, end, cpu, result, error))
        return wrapper

    @contextmanager
    def installed(self):
        with patched([(mod, name, self._wrap(getattr(mod, name), kind))
                      for mod, name, kind in TRIAL_ENTRY_POINTS]):
            yield self


class _ThreadState:
    """One thread's open spans, totals per span name, and kept spans."""

    def __init__(self, n_names: int):
        self.stack = []          # open frames: [child_seconds, span_id, name_id]
        self.solve = -1
        self.calls = [0] * n_names
        self.errors = [0] * n_names
        self.total = [0.0] * n_names
        self.self_ = [0.0] * n_names
        self.edges = Counter()   # (parent name id, child name id) -> calls
        self.counts = Counter()
        self.ids, self.parents, self.solves = array("q"), array("q"), array("i")
        self.names, self.starts, self.ends = array("b"), array("d"), array("d")


class Tracer:
    """Spans at layer boundaries, kept in memory and written on request.

    A span records name, start, end, parent span and solve id; a solve id
    is assigned when a trial entry point opens a span on an empty stack.
    Self time is a span's duration minus its child spans' durations.
    """

    NAMES = (
        "engine.solve", "subdivision.phase1", "subdivision.neighborhood",
        "subdivision.contains", "refinement.phase2", "core.value",
        "core.new_epoch", "core.feasible", "core.rng", "testbed.fn",
        "baselines.random_search", "baselines.simulated_annealing",
        "baselines.counted_eval",
    )

    def __init__(self):
        self._nid = {name: i for i, name in enumerate(self.NAMES)}
        self._span_ids = itertools.count()
        self._solve_ids = itertools.count()
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._room = SPANS_KEPT      # racy decrements may keep a few more
        self.origin = time.perf_counter()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState(len(self.NAMES))
            with self._lock:
                self._states.append(st)
            return st

    def span(self, name: str, fn, trial: bool = False, on_return=None):
        """``fn`` wrapped in a span; ``on_return(state, args, result)`` runs
        inside the span after a normal return."""
        nid = self._nid[name]
        span_ids, solve_ids, state = self._span_ids, self._solve_ids, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            if stack:
                parent, parent_nid = stack[-1][1], stack[-1][2]
            else:
                parent, parent_nid = -1, -1
                if trial:
                    st.solve = next(solve_ids)
            frame = [0.0, next(span_ids), nid]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(st, args, result)
                return result
            except BaseException:
                st.errors[nid] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                st.calls[nid] += 1
                st.total[nid] += dur
                st.self_[nid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    st.edges[parent_nid, nid] += 1
                if self._room > 0:
                    self._room -= 1
                    st.ids.append(frame[1])
                    st.parents.append(parent)
                    st.solves.append(st.solve)
                    st.names.append(nid)
                    st.starts.append(start)
                    st.ends.append(end)
                else:
                    st.counts["spans_dropped"] += 1
                if trial and not stack:
                    st.solve = -1
        wrapper.__span__ = name
        return wrapper

    def wrap_objective(self, obj: core.Objective) -> core.Objective:
        """A copy of ``obj`` whose fn and noise_free_fn run in spans (``obj``
        itself when they already do)."""
        if getattr(obj.fn, "__span__", None) == "testbed.fn":
            return obj
        nf = obj.noise_free_fn
        return replace(obj, fn=self.span("testbed.fn", obj.fn),
                       noise_free_fn=None if nf is None else self.span("testbed.fn", nf))

    @contextmanager
    def installed(self):
        span = self.span

        def phase1_done(st, args, outcome):
            ctx = args[2]
            st.counts["phase1_runs"] += 1
            st.counts["phase1_evals"] += outcome.evaluations
            st.counts["phase1_complete"] += bool(outcome.complete)
            st.counts["phase1_budget_out"] += ctx.counter.remaining == 0

        def phase2_done(st, args, result):
            st.counts["phase2_sweeps"] += result[1]

        def feasible_done(st, args, ok):
            st.counts["infeasible"] += not ok

        phase2_span = span("refinement.phase2", engine.run_phase2, on_return=phase2_done)
        state = self._state

        @functools.wraps(engine.run_phase2)
        def run_phase2(outcome, obj, config, ctx, trace_sink=None, trace_offset=0):
            counts = state().counts

            def sink(gens, s, p, accepted):
                counts["phase2_accepted"] += bool(accepted)
                if trace_sink is not None:
                    trace_sink(gens, s, p, accepted)
            return phase2_span(outcome, obj, config, ctx, trace_sink=sink,
                               trace_offset=trace_offset)

        make_objective = testbed.make_objective
        changes = [
            (engine, "run_phase1", span("subdivision.phase1", engine.run_phase1,
                                        on_return=phase1_done)),
            (engine, "run_phase2", run_phase2),
            (subdivision, "neighborhood", span("subdivision.neighborhood",
                                               subdivision.neighborhood)),
            (subdivision, "contains", span("subdivision.contains", subdivision.contains)),
            (core.EvalContext, "value", span("core.value", core.EvalContext.value)),
            (core.EvalContext, "new_epoch", span("core.new_epoch", core.EvalContext.new_epoch)),
            (core.EvalContext, "feasible", span("core.feasible", core.EvalContext.feasible,
                                                on_return=feasible_done)),
            (baselines, "counted_eval", span("baselines.counted_eval", baselines.counted_eval)),
            (testbed, "make_objective",
             functools.wraps(make_objective)(
                 lambda *a, **kw: self.wrap_objective(make_objective(*a, **kw)))),
        ]
        changes += [(core.RngStream, m, span("core.rng", getattr(core.RngStream, m)))
                    for m in ("random", "uniform", "normal", "substream")]
        changes += [(mod, name, span(span_name, getattr(mod, name), trial=True))
                    for (mod, name, _), span_name in zip(TRIAL_ENTRY_POINTS, TRIAL_SPAN_NAMES)]
        with patched(changes):
            yield self

    def totals(self) -> dict:
        """Merged per-name calls/errors/total/self, parent->child call
        counts, and counters over every thread."""
        n = len(self.NAMES)
        out = {"calls": [0] * n, "errors": [0] * n, "total": [0.0] * n,
               "self": [0.0] * n, "edges": Counter(), "counts": Counter()}
        for st in self._states:
            for i in range(n):
                out["calls"][i] += st.calls[i]
                out["errors"][i] += st.errors[i]
                out["total"][i] += st.total[i]
                out["self"][i] += st.self_[i]
            out["edges"].update(st.edges)
            out["counts"].update(st.counts)
        return out

    def spans_kept(self) -> int:
        return sum(len(st.starts) for st in self._states)

    def write(self, path: Path):
        """Write the kept spans as columns of an .npz file (times in seconds
        from tracer creation; ``names`` maps the name ids)."""
        def column(attr, dtype):
            parts = [np.frombuffer(getattr(st, attr), dtype=dtype) for st in self._states]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
        np.savez(path, id=column("ids", np.int64), parent=column("parents", np.int64),
                 solve=column("solves", np.int32), name=column("names", np.int8),
                 start=column("starts", np.float64) - self.origin,
                 end=column("ends", np.float64) - self.origin,
                 names=np.array(self.NAMES))


def layer_metrics(tracer: Tracer, trials: list, dispatch_wall: float, workers: int) -> dict:
    """Per-layer metrics from a traced phase; ``trials`` are the phase's
    recorded trials and ``dispatch_wall`` its wall time spent running them."""
    t = tracer.totals()
    nid = tracer._nid
    calls = lambda name: t["calls"][nid[name]]
    total = lambda name: t["total"][nid[name]]
    self_s = lambda name: t["self"][nid[name]]
    counts = t["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    busy = sum(total(name) for name in TRIAL_SPAN_NAMES)
    # CPU time excludes waiting for the interpreter lock, so it shows how
    # much of the pool's capacity did work.
    cpu = sum(tr.cpu for tr in trials)
    baseline_cpu = sum(tr.cpu for tr in trials if tr.kind != "SGM")
    value_ok = calls("core.value") - t["errors"][nid["core.value"]]
    value_misses = t["edges"][nid["core.value"], nid["testbed.fn"]]
    sgm_evals = sum(tr.result.evaluations for tr in trials
                    if tr.kind == "SGM" and tr.result is not None)
    phase1_runs = counts["phase1_runs"]
    return {
        "core.value_calls": (calls("core.value"), "count"),
        "core.value_self_s": (self_s("core.value"), "s"),
        "core.cache_hit_ratio": (ratio(value_ok - value_misses, value_ok), "ratio"),
        "core.epochs": (calls("core.new_epoch"), "count"),
        "core.rng_calls": (calls("core.rng"), "count"),
        "core.rng_s": (total("core.rng"), "s"),
        "testbed.fn_calls": (calls("testbed.fn"), "count"),
        "testbed.fn_s": (total("testbed.fn"), "s"),
        "testbed.fn_share": (ratio(total("testbed.fn"), busy), "ratio"),
        "subdivision.phase1_s": (total("subdivision.phase1"), "s"),
        "subdivision.self_s": (sum(self_s(n) for n in tracer.NAMES
                                   if n.startswith("subdivision.")), "s"),
        "subdivision.evals": (counts["phase1_evals"], "count"),
        "subdivision.neighborhood_calls": (calls("subdivision.neighborhood"), "count"),
        "subdivision.neighborhood_s": (total("subdivision.neighborhood"), "s"),
        "subdivision.contains_calls": (calls("subdivision.contains"), "count"),
        "subdivision.contains_s": (total("subdivision.contains"), "s"),
        "subdivision.complete_ratio": (ratio(counts["phase1_complete"], phase1_runs), "ratio"),
        "subdivision.budget_out_ratio": (ratio(counts["phase1_budget_out"], phase1_runs), "ratio"),
        "refinement.phase2_s": (total("refinement.phase2"), "s"),
        "refinement.self_s": (self_s("refinement.phase2"), "s"),
        "refinement.evals": (sgm_evals - counts["phase1_evals"], "count"),
        "refinement.sweeps": (counts["phase2_sweeps"], "count"),
        "refinement.accept_ratio": (ratio(counts["phase2_accepted"], counts["phase2_sweeps"]), "ratio"),
        "refinement.infeasible_ratio": (ratio(counts["infeasible"], calls("core.feasible")), "ratio"),
        "engine.self_s": (self_s("engine.solve"), "s"),
        "baselines.rs_s": (total("baselines.random_search"), "s"),
        "baselines.sa_s": (total("baselines.simulated_annealing"), "s"),
        "baselines.counted_eval_calls": (calls("baselines.counted_eval"), "count"),
        "baselines.counted_eval_self_s": (self_s("baselines.counted_eval"), "s"),
        "baselines.trial_share": (ratio(baseline_cpu, cpu), "ratio"),
        "bench.pool_efficiency": (ratio(cpu, workers * dispatch_wall), "ratio"),
    }
