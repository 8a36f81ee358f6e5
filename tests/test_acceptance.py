"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``)."""

import statistics
import time

import numpy as np
import pytest

from sgmopt.baselines import SaConfig, random_search, simulated_annealing
from sgmopt.bench import (ExperimentSpec, emit_csv, png_ratio, run_experiment)
from sgmopt.core import (EvalContext, EvalCounter, RngStream, Sense, SgmConfig)
from sgmopt.engine import default_config, solve
from sgmopt.refinement import crossover_midpoint
from sgmopt.subdivision import (corner_plan, initial_cell, label_by_direction,
                                label_by_gradient, label_vertex)
from sgmopt.testbed import (f4_deterministic, finite_difference_gradient,
                            make_objective)

# f5 at the center of its deepest well, frozen from direct evaluation
F5_REPORTED = 0.9980038388186492
RSLMGA_ROW = {"F1": 20, "F2": 29, "F3": 32, "F4": 107, "F5": 19}
SUITE_SEED = 2024


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def dejong_suite():
    spec = ExperimentSpec(functions=("F1", "F2", "F3", "F4", "F5"),
                          algorithms=("SGM",), trials=50,
                          master_seed=SUITE_SEED, record_timing=False)
    t0 = time.perf_counter()
    rep = run_experiment(spec)
    elapsed = time.perf_counter() - t0
    return rep, elapsed


def test_criterion_1_labeling_oracle():
    obj = make_objective("TP1", bounds=1.0)
    cfg = SgmConfig()
    # warm-up pass so the timed run measures the operation, not imports
    ctx = EvalContext(obj, EvalCounter(10_000), RngStream(0), Sense.MIN)
    cell = initial_cell(obj.domain)
    for i in range(4):
        label_vertex(ctx, cell, cell.base_k + corner_plan(2)[i], cfg)

    ctx = EvalContext(obj, EvalCounter(10_000), RngStream(0), Sense.MIN)
    t0 = time.perf_counter()
    labels = {}
    for i in range(4):
        v = label_vertex(ctx, cell, cell.base_k + corner_plan(2)[i], cfg)
        labels[v.point] = v.label
    complete = len(labels) == 4 and set(labels.values()) == {0, 1, 2}
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    kids = cell.subdivide()
    introduced = {tuple(k.corner(corner_plan(2)[i])) for k in kids for i in range(4)}
    expected = {(-1.0, 1.0): 2, (1.0, 1.0): 2, (-1.0, -1.0): 0, (1.0, -1.0): 1}
    ok = labels == expected and complete and (0.0, 0.0) in introduced and elapsed_ms < 1.0
    report(1, ok, f"labels={labels} complete={complete} "
                  f"midpoint_introduced={(0.0, 0.0) in introduced} time={elapsed_ms:.3f}ms")


def test_criterion_2_tp1_convergence():
    obj = make_objective("TP1")
    t0 = time.perf_counter()
    r = solve(obj, default_config(obj, seed=SUITE_SEED))
    elapsed = time.perf_counter() - t0
    dist = max(abs(c) for c in r.best_point)
    ok = dist <= 1e-3 and r.evaluations <= 10_000 and elapsed < 1.0
    report(2, ok, f"best_point={r.best_point} dist={dist:.2e} "
                  f"evals={r.evaluations} time={elapsed:.2f}s "
                  f"(minimizer location checked; the printed minimum value is not reproducible)")


def test_criterion_3_beale_convergence():
    obj = make_objective("BEALE")
    r = solve(obj, default_config(obj, seed=SUITE_SEED))
    dist = max(abs(r.best_point[0] - 3.0), abs(r.best_point[1] - 0.5))
    ok = dist <= 1e-2 and r.best_value <= 1e-3 and r.evaluations <= 10_000
    report(3, ok, f"best_point={r.best_point} dist={dist:.2e} "
                  f"best_f={r.best_value:.2e} evals={r.evaluations}")


def test_criterion_4_dejong_suite(dejong_suite):
    rep, elapsed = dejong_suite
    rows = {}
    for r in rep.rows:
        rows.setdefault(r.function, []).append(r)
    agg = {a.function: a for a in rep.aggregates}

    f1_median = statistics.median(r.best_f for r in rows["F1"])
    f1_ok = f1_median <= 1e-6 and all(max(abs(c) for c in r.best_x) <= 1e-2
                                      for r in rows["F1"])
    f2_ok = all(max(abs(r.best_x[0] - 1), abs(r.best_x[1] - 1)) <= 1e-2
                for r in rows["F2"])
    f3_ok = all(r.best_f == 0.0 for r in rows["F3"])
    f4_dets = [f4_deterministic(np.asarray(r.best_x)) for r in rows["F4"]]
    f4_ok = all(d <= 1e-2 for d in f4_dets)
    f5_ok = all(max(abs(r.best_x[0] + 32), abs(r.best_x[1] + 32)) <= 1e-1
                and abs(r.best_f - F5_REPORTED) <= 1e-3 for r in rows["F5"])
    success_ok = all(agg[f].success_rate >= 0.90 for f in rows)
    time_ok = elapsed < 300.0
    ok = f1_ok and f2_ok and f3_ok and f4_ok and f5_ok and success_ok and time_ok
    report(4, ok,
           f"F1 median={f1_median:.2e}({f1_ok}) F2({f2_ok}) F3({f3_ok}) "
           f"F4 max_detpart={max(f4_dets):.2e}({f4_ok}) F5({f5_ok}) "
           f"success_rates={[round(agg[f].success_rate, 2) for f in sorted(rows)]} "
           f"runtime={elapsed:.0f}s")


def test_criterion_5_png_row():
    de = (260, 670, 125, 2300, 1200)
    ours = (20, 29, 32, 107, 19)
    got = tuple(png_ratio(d, s) for d, s in zip(de, ours))
    ok = got == (13, 24, 4, 22, 64)
    report(5, ok, f"png row={got} (static reference data, not simulated)")


def test_criterion_6_generation_plausibility(dejong_suite):
    rep, _ = dejong_suite
    gens = {}
    evals = {}
    for r in rep.rows:
        gens.setdefault(r.function, []).append(r.generations)
        evals.setdefault(r.function, []).append(r.evaluations)
    detail = []
    ok = True
    for f in ("F1", "F2", "F3", "F4", "F5"):
        worst = max(gens[f])
        bound = 10 * RSLMGA_ROW[f]
        ok = ok and worst <= bound
        detail.append(f"{f}: gens<= {worst} (bound {bound}), "
                      f"mean_evals={sum(evals[f]) / len(evals[f]):.0f}")
    report(6, ok, "; ".join(detail))


def test_criterion_7_property_suites(tmp_path):
    checks = {}

    rng = np.random.default_rng(123)
    sym = True
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        p1, p2 = rng.uniform(-5, 5, size=(2, n))
        m = crossover_midpoint(p1, p2)
        sym &= np.array_equal(m, crossover_midpoint(p2, p1))
        sym &= bool(np.all(m >= np.minimum(p1, p2)) and np.all(m <= np.maximum(p1, p2)))
    checks["crossover symmetry+convexity"] = sym

    mono = True
    for name in ("TP1", "BEALE", "F1", "F2", "F3", "F4", "F5"):
        obj = make_objective(name)
        r = solve(obj, default_config(obj, seed=7))
        vals = [row[1] for row in r.trace]
        mono &= all(b <= a for a, b in zip(vals, vals[1:]))
    checks["monotone traces"] = mono

    cell = initial_cell(make_objective("BEALE").domain)
    exact = True
    extent = cell.extent.copy()
    for level in range(1, 41):
        cell = cell.child(corner_plan(2)[0])
        exact &= bool(np.array_equal(cell.step, extent * 2.0 ** -level))
    checks["subdivision exactness to level 40"] = exact

    grad_ok = True
    grng = np.random.default_rng(11)
    for name in ("TP1", "BEALE", "F1", "F2"):
        obj = make_objective(name)
        for _ in range(100):
            x = grng.uniform(obj.domain.lo * 0.9, obj.domain.hi * 0.9)
            g = obj.gradient_fn(x)
            fd = finite_difference_gradient(obj.fn, x)
            scale = max(1.0, float(np.max(np.abs(fd))))
            grad_ok &= bool(np.max(np.abs(g - fd)) / scale < 1e-4)
    checks["gradient agreement"] = grad_ok

    lrng = np.random.default_rng(5)
    label_ok = label_by_direction(np.zeros(3)) == 0 and label_by_gradient(np.zeros(3)) == 0
    for _ in range(500):
        n = int(lrng.integers(1, 8))
        d = lrng.normal(size=n)
        label_ok &= 0 <= label_by_direction(d) <= n
        label_ok &= 0 <= label_by_gradient(d) <= n
    checks["labels in range, zero maps to 0"] = label_ok

    det = True
    for name in ("F2", "F4"):
        obj = make_objective(name)
        cfg = default_config(obj, seed=99)
        det &= solve(obj, cfg).without_wallclock() == solve(obj, cfg).without_wallclock()
    checks["seeded determinism"] = det

    base = dict(functions=("TP1",), algorithms=("SGM", "RS"), trials=2,
                master_seed=17, rs_budget=100, record_timing=False)
    p1 = tmp_path / "seq.csv"
    p2 = tmp_path / "par.csv"
    emit_csv(run_experiment(ExperimentSpec(workers=1, **base)), p1)
    emit_csv(run_experiment(ExperimentSpec(workers=3, **base)), p2)
    checks["concurrent CSV byte-identical"] = p1.read_bytes() == p2.read_bytes()

    ok = all(checks.values())
    report(7, ok, "; ".join(f"{k}={v}" for k, v in checks.items()))


def test_criterion_8_baseline_sanity():
    obj = make_objective("TP1")
    rs_hits = sum(random_search(obj, 100_000, RngStream(31, t)).best_value <= -34.0
                  for t in range(20))
    sa_hits = {}
    for name, opt in (("TP1", (0.0, 0.0)), ("BEALE", (3.0, 0.5))):
        fobj = make_objective(name)
        hits = 0
        for t in range(20):
            r = simulated_annealing(fobj, SaConfig(), RngStream(37, t))
            hits += max(abs(r.best_point[0] - opt[0]),
                        abs(r.best_point[1] - opt[1])) <= 1e-1
        sa_hits[name] = hits
    ok = rs_hits >= 19 and sa_hits["TP1"] >= 16 and sa_hits["BEALE"] >= 16
    report(8, ok, f"RS<=-34: {rs_hits}/20 (need >=19); "
                  f"SA TP1: {sa_hits['TP1']}/20, SA BEALE: {sa_hits['BEALE']}/20 (need >=16)")
