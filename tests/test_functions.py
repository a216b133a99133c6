import math
import pickle
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from tvqueue.functions import (
    ConstantFn,
    LinearFn,
    PiecewisePolyFn,
    SinusoidFn,
    SumFn,
    fn_from_config,
    halve_brackets,
    monotone_slopes,
)
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience, H2Patience, TabulatedPatience


def test_constant():
    f = ConstantFn(2.5)
    t = np.array([0.0, 1.0, 7.3])
    assert np.all(f(t) == 2.5)
    assert np.all(f.deriv(t) == 0.0)


def test_linear():
    f = LinearFn(1.0, -0.5)
    assert f(4.0) == pytest.approx(-1.0)
    assert np.all(f.deriv(np.array([0.0, 9.0])) == -0.5)


def test_sinusoid_derivatives_match_finite_differences():
    f = SinusoidFn(1.0, 0.6, 2.0, 0.3)
    t = np.linspace(0.0, 5.0, 50)
    h = 1e-6
    fd1 = (f(t + h) - f(t - h)) / (2 * h)
    assert np.max(np.abs(f.deriv(t) - fd1)) < 1e-8


def test_piecewise_poly_eval_and_breakpoints():
    # pieces: 1 + t on [0,1), 2 + 0.5 (t-1) on [1,3)
    f = PiecewisePolyFn(knots=(0.0, 1.0, 3.0), coeffs=((1.0, 1.0), (2.0, 0.5)))
    assert f(0.5) == pytest.approx(1.5)
    assert f(2.0) == pytest.approx(2.5)
    assert f.deriv(0.5) == pytest.approx(1.0)
    assert f.deriv(2.0) == pytest.approx(0.5)
    # continuation past the last knot uses the final piece
    assert f(4.0) == pytest.approx(2.0 + 0.5 * 3.0)
    assert list(f.breakpoints()) == [1.0]


def test_piecewise_poly_shape_validation():
    with pytest.raises(ValueError):
        PiecewisePolyFn(knots=(0.0, 1.0), coeffs=((1.0,), (2.0,)))
    with pytest.raises(ValueError, match="knots must increase"):
        PiecewisePolyFn(knots=(0.0, 10.0, 5.0, 16.0), coeffs=((1.0,), (1.2,), (1.3,)))
    with pytest.raises(ValueError, match="at least one coefficient"):
        PiecewisePolyFn(knots=(0.0, 2.0, 5.0), coeffs=((1.0,), ()))
    with pytest.raises(ValueError, match="at least one piece"):
        PiecewisePolyFn(knots=(0.0,), coeffs=())


# tables of 2, 3 and 21 points: flat and steep segments, a local extremum
_X21 = np.linspace(0.0, 10.0, 21)
_F21 = np.concatenate([1.0 - (1.0 + 0.1 * _X21[:6]) * np.exp(-0.5 * _X21[:6]),
                       np.full(4, 0.3), np.linspace(0.3, 0.95, 11)])
_F21[10] = 0.9                                   # a jump of 0.6 over one step
HERMITE_TABLES = [
    ([0.0, 1.0], [0.0, 0.4]),
    ([0.0, 0.5, 2.0], [0.0, 0.3, 0.3]),
    ([0.0, 0.01, 2.0], [0.0, 0.5, 0.55]),
    ([0.0, 1.0, 1.5], [1.0, -2.0, 0.5]),
    (_X21, np.maximum.accumulate(_F21)),
    (_X21, np.sin(_X21) + 0.1 * _X21),
]


@pytest.mark.parametrize("x, y", HERMITE_TABLES)
def test_monotone_hermite_against_pchip(x, y):
    # the same slopes and the same piece sums: agreement to rounding
    x, y = np.asarray(x), np.asarray(y)
    ref = PchipInterpolator(x, y)
    f = PiecewisePolyFn.hermite(x, y, monotone_slopes(x, y))
    u = np.concatenate([x, np.linspace(x[0], x[-1], 1001)])
    np.testing.assert_allclose(f(u), ref(u), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(f.deriv(u), ref.derivative()(u), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([f.scalar(v) for v in u.tolist()], ref(u), rtol=1e-12, atol=0.0)


def test_monotone_hermite_stays_monotone():
    x, y = _X21, np.maximum.accumulate(_F21)
    f = PiecewisePolyFn.hermite(x, y, monotone_slopes(x, y))
    assert np.all(np.diff(f(np.linspace(0.0, 10.0, 20001))) >= 0.0)


def test_hermite_reproduces_a_cubic():
    # knot values and exact slopes of a cubic give the cubic back
    x = np.array([0.0, 0.3, 1.1, 2.0])
    p = np.polynomial.Polynomial([0.5, -1.0, 2.0, 0.7])
    f = PiecewisePolyFn.hermite(x, p(x), p.deriv()(x))
    u = np.linspace(-0.5, 2.5, 61)
    np.testing.assert_allclose(f(u), p(u), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(f.deriv(u), p.deriv()(u), rtol=1e-12, atol=1e-12)


def test_pickle_round_trip_is_bit_identical():
    # `simulate --parallel` pickles the spec into its worker processes
    x, y = _X21, np.maximum.accumulate(_F21)
    config_built = fn_from_config({"kind": "piecewise_poly", "params": {
        "knots": [0.0, 1.0, 3.0], "coeffs": [[1.0, 0.5, -0.25], [1.25]]}})
    hermite_built = PiecewisePolyFn.hermite(x, y, monotone_slopes(x, y))
    tab = TabulatedPatience(x, 0.9 * y)
    u = np.linspace(-1.0, 12.0, 263)
    vs = u.tolist()
    for f in (config_built, hermite_built):
        f.scalar(0.5), f.scalar_deriv(0.5)          # fill the scalar caches
        g = pickle.loads(pickle.dumps(f))
        assert np.array_equal(g(u), f(u)) and np.array_equal(g.deriv(u), f.deriv(u))
        assert [g.scalar(v) for v in vs] == [f.scalar(v) for v in vs]
        assert [g.scalar_deriv(v) for v in vs] == [f.scalar_deriv(v) for v in vs]
    tab.survival_scalar(0.5)
    g = pickle.loads(pickle.dumps(tab))
    assert np.array_equal(g.cdf(u), tab.cdf(u)) and np.array_equal(g.pdf(u), tab.pdf(u))
    assert [g.survival_scalar(v) for v in vs] == [tab.survival_scalar(v) for v in vs]
    # the plain function and patience classes and the spec that holds them
    sine = SinusoidFn(1.0, 0.6, 1.3, -0.2)
    fns = (ConstantFn(1.5), LinearFn(0.5, 0.1), sine, SumFn(sine, hermite_built, 0.3))
    for f in fns:
        g = pickle.loads(pickle.dumps(f))
        assert type(g) is type(f) and np.array_equal(g(u), f(u))
        assert np.array_equal(g.deriv(u), f.deriv(u))
        assert [g.scalar(v) for v in vs] == [f.scalar(v) for v in vs]
    for pat in (ExponentialPatience(0.7), H2Patience(0.25, 2.0, 0.5)):
        g = pickle.loads(pickle.dumps(pat))
        assert type(g) is type(pat) and vars(g) == vars(pat)
        assert np.array_equal(g.cdf(u), pat.cdf(u)) and np.array_equal(g.pdf(u), pat.pdf(u))
    spec = ModelSpec(sine, LinearFn(1.0, 0.05), 1.0, tab, 12.0, x0=0.5, staffing_g=fns[0])
    g = pickle.loads(pickle.dumps(spec))
    assert vars(g).keys() == vars(spec).keys()
    assert [getattr(g, k) for k in ("mu", "horizon", "x0", "var_x0", "c_lambda",
                                    "arrival_rate_g")] == [1.0, 12.0, 0.5, 0.0, 1.0, None]
    assert np.array_equal(g.arrival_rate(u), sine(u)) and np.array_equal(g.staffing_g(u), fns[0](u))
    assert np.array_equal(g.patience.cdf(u), tab.cdf(u))


def test_halve_brackets_ends_as_sixty_halvings():
    # a bracket retires at its fixed point, so the ends are those of 60
    # plain halvings; wide, narrow, adjacent-float and empty brackets
    rng = np.random.default_rng(4)
    lo = rng.uniform(-3.0, 3.0, 400) * 10.0 ** rng.integers(-25, 6, 400)
    hi = lo + rng.uniform(0.0, 1.0, 400) * 10.0 ** rng.integers(-20, 3, 400)
    hi[:20] = np.nextafter(lo[:20], np.inf)
    hi[20:30] = lo[20:30]
    root = lo + rng.uniform(0.0, 1.0, 400) * (hi - lo)
    a, b = lo, hi
    for _ in range(60):
        mid = 0.5 * (a + b)
        up = mid >= root
        a, b = np.where(up, a, mid), np.where(up, mid, b)
    got = halve_brackets(lambda mid, r: mid >= r, lo, hi, root)
    assert got[0].tobytes() == a.tobytes() and got[1].tobytes() == b.tobytes()
    assert [len(x) for x in halve_brackets(lambda mid: mid > 0, np.empty(0), np.empty(0))] == [0, 0]


def test_config_dispatch():
    f = fn_from_config({"kind": "sinusoid", "params": {"a": 1.0, "b": 0.6}})
    assert f(np.pi / 2) == pytest.approx(1.6)
    g = fn_from_config({"kind": "constant", "params": {"value": 3.0}})
    assert g(11.0) == 3.0


def test_config_unknown_kind():
    with pytest.raises(ValueError, match="unknown function kind"):
        fn_from_config({"kind": "spline"})


# --- scalar evaluators against the vector ones ---------------------------

def assert_within_4ulp(got, want, scale):
    """|got - want| at most 4 ulp of `scale`, the magnitude of the largest
    term summed (so a near-cancelling sum is judged by its terms)."""
    assert isinstance(got, float)
    assert abs(got - want) <= 4 * math.ulp(scale), (got, want)


def check_scalar(f, t, scale, dscale):
    assert_within_4ulp(f.scalar(t), float(f(t)), scale)
    assert_within_4ulp(f.scalar_deriv(t), float(f.deriv(t)), dscale)


moderate = st.floats(-5.0, 5.0)
times = st.floats(-20.0, 200.0)


@given(moderate, times)
def test_constant_scalar(value, t):
    check_scalar(ConstantFn(value), t, abs(value), 0.0)


@given(moderate, moderate, times)
def test_linear_scalar(intercept, slope, t):
    check_scalar(LinearFn(intercept, slope), t, abs(intercept) + abs(slope * t), abs(slope))


@given(moderate, moderate, st.floats(0.0, 10.0), st.floats(-4.0, 4.0), times)
def test_sinusoid_scalar(a, b, c, d, t):
    check_scalar(SinusoidFn(a, b, c, d), t, abs(a) + abs(b), abs(b * c))


@st.composite
def piecewise_and_time(draw):
    m = draw(st.integers(1, 5))
    start = draw(st.floats(-3.0, 3.0))
    steps = draw(st.lists(st.floats(0.1, 4.0), min_size=m, max_size=m))
    knots = tuple(start + s for s in accumulate(steps, initial=0.0))
    if draw(st.booleans()):
        values = st.lists(moderate, min_size=m + 1, max_size=m + 1)
        f = PiecewisePolyFn.hermite(knots, draw(values), draw(values))
    else:
        f = PiecewisePolyFn(knots, tuple(
            tuple(draw(st.lists(moderate, min_size=1, max_size=4))) for _ in range(m)
        ))
    # before the first knot, exactly on a knot, inside, past the last knot
    t = draw(st.one_of(
        st.floats(knots[0] - 5.0, knots[0]),
        st.sampled_from(knots),
        st.floats(knots[0], knots[-1]),
        st.floats(knots[-1], knots[-1] + 5.0),
    ))
    return f, t


def _piece_terms(f, t):
    i = min(max(int(np.searchsorted(f.knots, t, side="right")) - 1, 0), len(f.coeffs) - 1)
    u = abs(t - f.knots[i])
    c = f.coeffs[i]
    scale = sum(abs(ck) * u ** k for k, ck in enumerate(c))
    dscale = sum(k * abs(ck) * u ** (k - 1) for k, ck in enumerate(c) if k)
    return scale, dscale


@given(piecewise_and_time())
def test_piecewise_poly_scalar(case):
    f, t = case
    check_scalar(f, t, *_piece_terms(f, t))


@given(piecewise_and_time())
def test_piecewise_value_and_deriv_share_one_search(case):
    # against the clipped knot search and the ascending sum, one
    # coefficient gather per power
    f, t = case
    ts = np.array([t, t - 1.0, t + 1.0, f.knots[0], f.knots[-1]])
    i = np.clip(np.searchsorted(f.knots, ts, side="right") - 1, 0, len(f.coeffs) - 1)
    u = ts - f.knots[i]
    refs = []
    for c in (f.coeffs, f._dcoeffs):
        out, z = c[i, 0], u
        for k in range(1, c.shape[1]):
            out = out + c[i, k] * z
            z = z * u
        refs.append(out)
    value, slope = f.value_and_deriv(ts)
    assert np.array_equal(value, refs[0]) and np.array_equal(slope, refs[1])
    assert np.array_equal(value, f(ts)) and np.array_equal(slope, f.deriv(ts))


@given(piecewise_and_time())
def test_scalar_piece_is_the_clipped_knot_search(case):
    # the piece index of the scalar path, the count of interior knots at
    # or below t, against min(max(bisect_right(knots, t) - 1, 0), m - 1)
    # with the same ascending sum
    f, t = case
    knots = f.knots.tolist()
    i = min(max(bisect_right(knots, t) - 1, 0), len(f.coeffs) - 1)
    for order, c in enumerate((f.coeffs, f._dcoeffs)):
        u = t - knots[i]
        acc, z = 0.0, 1.0
        for ck in c[i].tolist():
            acc = acc + ck * z
            z *= u
        assert f._scalar_eval(t, order) == acc


@pytest.mark.parametrize("seed", range(4))
def test_stacked_hermite_reads_each_row_bitwise(seed):
    # one interpolant of three value rows on the same knots reads what
    # three one-row interpolants read, bit for bit, at scalar and array
    # times before, on and between the knots and past the last one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    x = np.cumsum(rng.uniform(0.01, 2.0, n))
    y = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-3, 4, (3, 1))
    dydx = rng.standard_normal((3, n))
    stacked = PiecewisePolyFn.hermite(x, y, dydx)
    rows = [PiecewisePolyFn.hermite(x, yr, dr) for yr, dr in zip(y, dydx)]
    u = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 50)])
    got = stacked(u)
    assert got.shape == (3, len(u))
    for r, f in enumerate(rows):
        assert np.array_equal(got[r], f(u))
        assert np.array_equal(stacked.deriv(u)[r], f.deriv(u))
        for t in (float(u[7 % len(u)]), float(x[0]) - 0.5, float(x[-1]) + 0.5):
            read = stacked(t)
            assert read.shape == (3,)
            assert read[r] == f(t)


@given(piecewise_and_time())
def test_derivative_coefficients_equal_polyder(case):
    # the derivative's coefficients, j c_j for j >= 1 and one zero term
    # for a constant, are the values numpy.polynomial's polyder gives
    f, _ = case
    assert np.array_equal(f._dcoeffs, np.polynomial.polynomial.polyder(f.coeffs, axis=1))
