import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tvqueue.patience import (
    ExponentialPatience,
    H2Patience,
    TabulatedPatience,
    h2_from_scv,
    patience_from_config,
)


def test_exponential_basic():
    d = ExponentialPatience(0.5)
    x = np.array([0.0, 1.0, 4.0])
    assert np.allclose(d.cdf(x), 1.0 - np.exp(-0.5 * x))
    assert np.allclose(d.survival(x), np.exp(-0.5 * x))


def test_exponential_sampling_mean():
    rng = np.random.default_rng(0)
    s = ExponentialPatience(0.5).sample(rng, 200000)
    assert np.mean(s) == pytest.approx(2.0, rel=0.02)


def test_h2_from_scv_moments():
    d = h2_from_scv(2.0, 4.0)
    # moments of the mixture p Exp(rate1) + (1 - p) Exp(rate2)
    m1 = d.p / d.rate1 + (1.0 - d.p) / d.rate2
    m2 = 2.0 * (d.p / d.rate1 ** 2 + (1.0 - d.p) / d.rate2 ** 2)
    assert m1 == pytest.approx(2.0, abs=1e-12)
    assert m2 / m1 ** 2 - 1.0 == pytest.approx(4.0, abs=1e-12)
    # cdf consistent with the mixture parameters by quadrature of the pdf
    x = np.linspace(0.0, 30.0, 30001)
    pdf_mass = np.trapezoid(d.pdf(x), x)
    assert pdf_mass == pytest.approx(d.cdf(30.0), abs=1e-6)


def test_h2_scv_below_one_rejected():
    with pytest.raises(ValueError, match="scv >= 1"):
        h2_from_scv(1.0, 0.5)


def test_h2_sampling_matches_cdf():
    d = h2_from_scv(2.0, 4.0)
    rng = np.random.default_rng(7)
    s = d.sample(rng, 400000)
    for q in (0.5, 1.0, 3.0):
        assert np.mean(s <= q) == pytest.approx(float(d.cdf(q)), abs=0.005)


def test_tabulated_interpolation_and_tail():
    x = np.array([0.0, 1.0, 2.0, 4.0])
    F = np.array([0.0, 0.3, 0.5, 0.8])
    d = TabulatedPatience(x, F)
    assert float(d.cdf(0.0)) == 0.0
    assert float(d.cdf(1.0)) == pytest.approx(0.3)
    assert float(d.cdf(4.0)) == pytest.approx(0.8)
    # exponential tail keeps the terminal hazard
    h4 = float(d.pdf(4.0)) / (1.0 - float(d.cdf(4.0)))
    h6 = float(d.pdf(6.0)) / (1.0 - float(d.cdf(6.0)))
    assert h6 == pytest.approx(h4, rel=1e-9)
    # cdf is nondecreasing on a dense grid
    grid = np.linspace(0.0, 10.0, 2001)
    assert np.all(np.diff(d.cdf(grid)) >= -1e-12)


@pytest.mark.filterwarnings("error")
def test_tabulated_steep_tail_no_overflow():
    # F(1) = 0.999999 makes the tail rate about 1e6; the tail must not be
    # evaluated (and overflow) at the points inside the table
    x = np.linspace(0.0, 1.0, 6)
    F = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.999999])
    d = TabulatedPatience(x, F)
    assert d._tail_rate > 1e5
    inside = np.array([0.0, 0.5])
    assert np.array_equal(d.cdf(inside), d._interp(inside))
    assert np.array_equal(d.pdf(inside), d._interp.deriv(inside))
    beyond = np.array([1.0 + 1e-6, 1.0 + 2e-6])
    rate = d._tail_rate
    tail_mass = 1.0 - F[-1]
    assert np.allclose(d.cdf(beyond), 1.0 - tail_mass * np.exp(-rate * (beyond - 1.0)),
                       rtol=0.0, atol=1e-15)
    assert np.allclose(d.pdf(beyond), tail_mass * rate * np.exp(-rate * (beyond - 1.0)))


def test_tabulated_sampling_roundtrip():
    x = np.array([0.0, 1.0, 2.0, 4.0])
    F = np.array([0.0, 0.3, 0.5, 0.8])
    d = TabulatedPatience(x, F)
    rng = np.random.default_rng(3)
    s = d.sample(rng, 200000)
    for q in (0.5, 2.0, 5.0):
        assert np.mean(s <= q) == pytest.approx(float(d.cdf(q)), abs=0.005)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedPatience([0.0, 1.0], [0.1, 0.5])     # F(0) != 0
    with pytest.raises(ValueError):
        TabulatedPatience([0.0, 1.0], [0.0, 1.0])     # Fc hits 0
    for x, F in ((5.0, 0.0), ([], []), ([0.0, 1.0], [0.0])):
        with pytest.raises(ValueError, match="1-D lists of the same length"):
            TabulatedPatience(x, F)


def test_config_dispatch():
    d = patience_from_config({"kind": "exponential", "params": {"mean": 2.0}})
    assert isinstance(d, ExponentialPatience)
    assert d.rate == pytest.approx(0.5)
    d2 = patience_from_config({"kind": "h2", "params": {"mean": 2.0, "scv": 4.0}})
    assert isinstance(d2, H2Patience)
    with pytest.raises(ValueError, match="unknown patience kind"):
        patience_from_config({"kind": "weibull"})


# --- survival_scalar against the vector survival -------------------------

def assert_within_4ulp(got, want, scale):
    assert isinstance(got, float)
    assert abs(got - want) <= 4 * math.ulp(scale), (got, want)


rates = st.floats(0.01, 10.0)
points = st.one_of(st.just(0.0), st.floats(0.0, 50.0))


@given(rates, points)
def test_exponential_survival_scalar(rate, x):
    d = ExponentialPatience(rate)
    want = float(d.survival(x))
    assert_within_4ulp(d.survival_scalar(x), want, want)


@given(st.floats(0.0, 1.0), rates, rates, points)
def test_h2_survival_scalar(p, rate1, rate2, x):
    d = H2Patience(p, rate1, rate2)
    want = float(d.survival(x))
    assert_within_4ulp(d.survival_scalar(x), want, want)


@st.composite
def table_and_point(draw):
    m = draw(st.integers(1, 8))
    dx = draw(st.lists(st.floats(0.05, 3.0), min_size=m, max_size=m))
    dF = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                       min_size=m, max_size=m))
    assume(sum(dF) > 0)
    F_end = draw(st.floats(0.05, 0.95))
    x = np.concatenate([[0.0], np.cumsum(dx)])
    F = np.concatenate([[0.0], np.cumsum(dF)]) * (F_end / sum(dF))
    try:
        d = TabulatedPatience(x, F)
    except ValueError:      # flat end of table: no tail hazard
        assume(False)
    # x = 0, on a node, inside the table, in the exponential tail
    pt = draw(st.one_of(
        st.just(0.0),
        st.sampled_from(x.tolist()),
        st.floats(0.0, float(x[-1])),
        st.floats(float(x[-1]), float(x[-1]) + 20.0),
    ))
    return d, pt


@given(table_and_point())
def test_tabulated_survival_scalar(case):
    d, x = case
    # survival is 1 - cdf on both paths, so its error is on the scale of 1
    assert_within_4ulp(d.survival_scalar(x), float(d.survival(x)), 1.0)
