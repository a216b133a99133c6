import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvqueue.functions import (
    ConstantFn,
    LinearFn,
    PiecewisePolyFn,
    SinusoidFn,
    fn_from_config,
)


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
    coeffs = tuple(
        tuple(draw(st.lists(moderate, min_size=1, max_size=4))) for _ in range(m)
    )
    # before the first knot, exactly on a knot, inside, past the last knot
    t = draw(st.one_of(
        st.floats(knots[0] - 5.0, knots[0]),
        st.sampled_from(knots),
        st.floats(knots[0], knots[-1]),
        st.floats(knots[-1], knots[-1] + 5.0),
    ))
    return PiecewisePolyFn(knots, coeffs), t


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
