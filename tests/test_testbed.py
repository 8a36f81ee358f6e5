import itertools
import math

import numpy as np
import pytest

from sgmopt.core import LabelStrategy, RngStream, SgmConfig, batch_form
from sgmopt import testbed
from sgmopt.testbed import (eval_beale, eval_f1, eval_f2, eval_f3, eval_f4,
                            eval_f5, eval_tp1, f4_deterministic,
                            finite_difference_gradient, foxholes_matrix,
                            make_objective, VALID_NAMES)

# f5 at the center of its deepest well, computed directly from the formula
# with the standard foxholes constants (frozen oracle value).
F5_AT_MINUS32 = 0.9980038388186492


# name -> (dim, box half-width, fn, gradient_fn, noise_free_fn, known optimum)
EXPECTED = {
    "TP1": (2, 16.0, eval_tp1, testbed.grad_tp1, None, ((0.0, 0.0), -36.0)),
    "BEALE": (2, 4.5, eval_beale, testbed.grad_beale, None, ((3.0, 0.5), 0.0)),
    "F1": (3, 5.12, eval_f1, testbed.grad_f1, None, ((0.0, 0.0, 0.0), 0.0)),
    "F2": (2, 2.048, eval_f2, testbed.grad_f2, None, ((1.0, 1.0), 0.0)),
    "F3": (5, 5.12, eval_f3, None, None, (tuple([-5.12] * 5), 0.0)),
    "F4": (30, 1.28, testbed.eval_f4, None, f4_deterministic, (tuple([0.0] * 30), 0.0)),
    "F5": (2, 65.536, eval_f5, None, None, ((-32.0, -32.0), F5_AT_MINUS32)),
}


class TestMakeObjective:
    def test_expected_names(self):
        assert VALID_NAMES == tuple(EXPECTED)

    @pytest.mark.parametrize("name,dim,bound", [(n, *EXPECTED[n][:2]) for n in VALID_NAMES])
    def test_table(self, name, dim, bound):
        _, _, fn, grad, noise_free, optimum = EXPECTED[name]
        obj = make_objective(name)
        assert obj.name == name
        assert obj.dim == dim
        assert np.array_equal(obj.domain.lo, np.full(dim, -bound))
        assert np.array_equal(obj.domain.hi, np.full(dim, bound))
        assert obj.fn is fn
        assert obj.gradient_fn is grad
        assert obj.noise_free_fn is noise_free
        assert obj.known_optimum == optimum
        assert obj.stochastic is (noise_free is not None)

    def test_name_is_normalised(self):
        assert make_objective(" f2 ").name == "F2"

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="TP1"):
            make_objective("nope")

    def test_stochastic_flag_only_f4(self):
        assert make_objective("F4").stochastic
        for name in ("TP1", "BEALE", "F1", "F2", "F3", "F5"):
            assert not make_objective(name).stochastic

    def test_tp1_bounds_override(self):
        obj = make_objective("TP1", bounds=1.0)
        assert np.allclose(obj.domain.hi, 1.0)
        with pytest.raises(ValueError, match="^F1 has a fixed domain"):
            make_objective("F1", bounds=2.0)
        # The domain rule is checked before the name.
        with pytest.raises(ValueError, match="^XYZ has a fixed domain"):
            make_objective("xyz", bounds=2)


class TestValues:
    def test_tp1(self):
        assert eval_tp1((0.0, 0.0)) == -36.0
        assert eval_tp1((math.pi, math.pi)) == pytest.approx(2 * math.pi ** 2 + 36, rel=1e-12)

    def test_beale(self):
        assert eval_beale((3.0, 0.5)) == 0.0
        assert eval_beale((0.0, 0.0)) == 14.203125

    def test_f1(self):
        assert eval_f1((0.0, 0.0, 0.0)) == 0.0
        assert eval_f1((1.0, 2.0, 3.0)) == 14.0

    def test_f2(self):
        assert eval_f2((1.0, 1.0)) == 0.0
        assert eval_f2((0.0, 0.0)) == 1.0

    def test_f3(self):
        assert eval_f3(tuple([-5.12] * 5)) == 0.0
        assert eval_f3((0.5, 0.5, 0.5, 0.5, 0.5)) == 30.0

    def test_f3_integer_valued_and_cell_constant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-5.12, 5.12, size=5)
            v = eval_f3(x)
            assert v == int(v)
            # constant on the unit cell of the floor lattice
            jitter = np.floor(x) + rng.uniform(0.0, 0.999, size=5)
            assert eval_f3(jitter) == eval_f3(np.floor(x) + 0.5)

    def test_f4_zero_noise_equals_deterministic_part(self):
        class ZeroRng:
            def normal(self, size=None):
                return np.zeros(size)

        x = np.linspace(-1.2, 1.2, 30)
        assert testbed.eval_f4(x, ZeroRng()) == pytest.approx(f4_deterministic(x), rel=1e-12)
        assert f4_deterministic(np.zeros(30)) == 0.0

    def test_f4_noise_varies(self):
        x = np.zeros(30)
        v1 = testbed.eval_f4(x, RngStream(0, 0))
        v2 = testbed.eval_f4(x, RngStream(0, 1))
        assert v1 != v2

    def test_f5_at_deepest_well(self):
        assert eval_f5((-32.0, -32.0)) == pytest.approx(F5_AT_MINUS32, abs=1e-12)


class TestFoxholes:
    def test_columns(self):
        a = foxholes_matrix()
        assert tuple(a[:, 0]) == (-32.0, -32.0)
        assert tuple(a[:, 12]) == (0.0, 0.0)
        assert tuple(a[:, 24]) == (32.0, 32.0)

    def test_structure(self):
        a = foxholes_matrix()
        base = np.array([-32.0, -16.0, 0.0, 16.0, 32.0])
        assert np.array_equal(a[0], np.tile(base, 5))
        assert np.array_equal(a[1], np.repeat(base, 5))
        assert np.all(np.abs(a) <= 65.536)

    def test_every_column_is_a_deep_well(self):
        # The well at column j bottoms out near j (denominator ~ 0.002+1/j),
        # far below the ~500 background away from all wells.
        a = foxholes_matrix()
        background = eval_f5((-56.0, 48.0))
        assert background > 400.0
        vals = [eval_f5(a[:, j]) for j in range(25)]
        for j, v in enumerate(vals):
            assert v < (j + 2.0) and v < background / 10.0
        assert np.argmin(vals) == 0


class TestGradients:
    @pytest.mark.parametrize("name", ["TP1", "BEALE", "F1", "F2"])
    def test_analytic_matches_finite_differences(self, name):
        obj = make_objective(name)
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(obj.domain.lo * 0.9, obj.domain.hi * 0.9)
            g = obj.gradient_fn(x)
            fd = finite_difference_gradient(obj.fn, x)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(g - fd)) / scale < 1e-4

    def test_examples(self):
        assert tuple(make_objective("TP1").gradient_fn((0.0, 0.0))) == (0.0, 0.0)
        assert tuple(make_objective("F1").gradient_fn((1.0, 1.0, 1.0))) == (2.0, 2.0, 2.0)
        g = make_objective("BEALE").gradient_fn((3.0, 0.5))
        assert np.max(np.abs(g)) < 1e-9

    def test_f5_uses_finite_differences(self):
        obj = make_objective("F5")
        assert obj.gradient_fn is None
        g = finite_difference_gradient(obj.fn, np.array([-31.0, -31.0]))
        assert g.shape == (2,)
        assert np.all(np.isfinite(g))

    def test_unavailable(self):
        # F3 is piecewise constant and F4 stochastic: neither has a
        # gradient_fn, so gradient labeling is refused before solving.
        cfg = SgmConfig(labeling=LabelStrategy.GRADIENT)
        for name in ("F3", "F4"):
            assert make_objective(name).gradient_fn is None
            with pytest.raises(ValueError, match=name):
                cfg.validate(make_objective(name))


class TestKnownOptima:
    def test_records_reproduce(self):
        for name in ("TP1", "BEALE", "F1", "F2", "F3", "F5"):
            obj = make_objective(name)
            point, value = obj.known_optimum
            assert abs(obj.fn(np.asarray(point)) - value) <= 1e-9, name

    def test_f4_record_is_noise_free_part(self):
        obj = make_objective("F4")
        point, value = obj.known_optimum
        assert f4_deterministic(np.asarray(point)) == value == 0.0


def batch_cases(obj, count=100_000, seed=0):
    """``count`` uniform box points, then box corners, points on each face,
    level-3 grid vertices, and rows of +0.0 and -0.0."""
    lo, hi = obj.domain.lo, obj.domain.hi
    n = obj.dim
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(lo, hi, size=(count, n))]
    rows.append(np.where(rng.integers(0, 2, size=(1_024, n)) == 1, hi, lo))
    faces = rng.uniform(lo, hi, size=(2 * n, n))
    faces[np.arange(n), np.arange(n)] = lo
    faces[n + np.arange(n), np.arange(n)] = hi
    rows.append(faces)
    k = rng.integers(0, 2 ** 3 + 1, size=(2_000, n))
    rows.append(lo + k * np.ldexp(hi - lo, -3))
    signs = rng.integers(0, 2, size=(64, n))
    rows.append(np.where(signs == 1, -0.0, 0.0))
    return np.vstack(rows)


def simd_report() -> str:
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return f"numpy {np.__version__}, SIMD {simd}"


@pytest.mark.parametrize("name", VALID_NAMES)
def test_batch_form_matches_scalar_bit_for_bit(name):
    obj = make_objective(name)
    fn = obj.noise_free_fn if obj.stochastic else obj.fn
    batch = batch_form(fn)
    assert batch is not None
    P = batch_cases(obj)
    want = np.array([fn(p) for p in P])
    got = batch(P)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (f"{name}: {bad.size} of {len(P)} rows differ, first at "
                           f"{P[bad[0]].tolist()}: {got[bad[0]]!r} != {want[bad[0]]!r}; "
                           f"{simd_report()}")


@pytest.mark.parametrize("seed", range(5))
def test_f4_noisy_batch_form_matches_successive_calls(seed):
    """``eval_f4`` is its own batch form: ``eval_f4(P, rng)`` equals
    ``eval_f4`` called on each row in turn on the same stream, bit for bit,
    and leaves the stream where they do."""
    obj = make_objective("F4")
    assert batch_form(obj.fn) is eval_f4
    P = batch_cases(obj, count=1_000, seed=seed)
    rows_rng, batch_rng = RngStream(seed), RngStream(seed)
    want = np.array([eval_f4(p, rows_rng) for p in P])
    got = eval_f4(P, batch_rng)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, (f"{bad.size} of {len(P)} rows differ, first at row {bad[0]}; "
                           f"{simd_report()}")
    assert rows_rng.random() == batch_rng.random()


@pytest.mark.parametrize("fn", [eval_f1, eval_f3, f4_deterministic])
def test_single_expression_forms_are_their_own_batch_forms(fn):
    assert batch_form(fn) is fn


def test_f4_is_built_from_libm_pow():
    """F4's noise-free part, in both forms, is sum(i * math.pow(x_i, 4)) bit
    for bit, summed as each form sums.  ``x ** 4`` misses this on some rows
    where numpy dispatches it to an AVX-512 kernel."""
    obj = make_objective("F4")
    P = np.random.default_rng(8).uniform(obj.domain.lo, obj.domain.hi, size=(100_000, 30))
    terms = np.arange(1, 31, dtype=float) * np.fromiter(
        map(math.pow, P.ravel().tolist(), itertools.repeat(4.0)), float, P.size).reshape(P.shape)
    got = f4_deterministic(P)
    want = terms.sum(axis=1)
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, f"batch form: {bad.size} rows differ; {simd_report()}"
    got = np.array([f4_deterministic(p) for p in P])
    want = np.array([np.add.reduce(t) for t in terms])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, f"scalar form: {bad.size} rows differ; {simd_report()}"


def test_f5_is_built_from_libm_pow():
    """F5, in both forms, is built from math.pow(x_i - a_ij, 6) bit for bit,
    summed as each form sums.  ``** 6`` on an array misses this on some rows
    where numpy dispatches it to an AVX-512 kernel."""
    obj = make_objective("F5")
    P = np.vstack([np.random.default_rng(9).uniform(obj.domain.lo, obj.domain.hi,
                                                    size=(100_000, 2)),
                   batch_cases(obj)])
    diff = (P[:, :, None] - foxholes_matrix()).ravel().tolist()
    sixth = np.fromiter(map(math.pow, diff, itertools.repeat(6.0)), float,
                        len(diff)).reshape(len(P), 2, 25)
    inv = 1.0 / (np.arange(1, 26, dtype=float) + (sixth[:, 0] + sixth[:, 1]))
    got = testbed.batch_f5(P)
    want = 1.0 / (0.002 + inv.sum(axis=1))
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, f"batch form: {bad.size} of {len(P)} rows differ; {simd_report()}"
    got = np.array([eval_f5(p) for p in P])
    want = np.array([1.0 / (0.002 + float(np.add.reduce(r))) for r in inv])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert bad.size == 0, f"scalar form: {bad.size} of {len(P)} rows differ; {simd_report()}"
