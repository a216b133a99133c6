import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tvqueue.patience import (
    ExponentialPatience,
    H2Patience,
    PatienceDist,
    TabulatedPatience,
    h2_from_scv,
    patience_from_config,
)

# Fc(x) = (1 + 0.1 x) exp(-x / 2) tabulated on x = 0, 0.5, ..., 10
_TAB_X = np.linspace(0.0, 10.0, 21)
_TAB = TabulatedPatience(_TAB_X, 1.0 - (1.0 + 0.1 * _TAB_X) * np.exp(-0.5 * _TAB_X))


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


def _h2_reference(d, x):
    # the mixture's survival and density, each summed on its own
    x = np.asarray(x, dtype=float)
    return (d.p * np.exp(-d.rate1 * x) + (1.0 - d.p) * np.exp(-d.rate2 * x),
            d.p * d.rate1 * np.exp(-d.rate1 * x)
            + (1.0 - d.p) * d.rate2 * np.exp(-d.rate2 * x))


def _tabulated_reference(d, x):
    # the cubic and its derivative on the table, the exponential tail past
    # it, each evaluated on its own
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, d.x[0], d.x[-1])
    e = np.exp(-d._tail_rate * np.maximum(x - d.x[-1], 0.0))
    cdf = np.where(x <= d.x[-1], d._interp(xc), 1.0 - (1.0 - d.F[-1]) * e)
    pdf = np.where(x <= d.x[-1], d._interp.deriv(xc), (1.0 - d.F[-1]) * d._tail_rate * e)
    return 1.0 - cdf, pdf


@pytest.mark.parametrize("d, reference", [
    (ExponentialPatience(0.5), lambda d, x: (d.survival(x), d.pdf(x))),
    (h2_from_scv(2.0, 4.0), _h2_reference),
    (_TAB, _tabulated_reference),
], ids=["exponential", "h2", "tabulated"])
def test_survival_pdf_is_survival_and_pdf(d, reference):
    # an age block as the fluid's age integrals form it, on and past the
    # table's range (knots, x_end = 10 itself, the tail), and one point;
    # survival and pdf are survival_pdf's parts
    x = np.linspace(0.0, 14.0, 57)[:, None] * np.linspace(0.0, 1.0, 129)[None, :]
    x = np.concatenate([x.ravel(), _TAB_X, [10.0 - 1e-15, 10.0 + 1e-15, 40.0]])
    for pts in (x, x.reshape(-1, 3), 10.0, 3.25):
        fc, f = d.survival_pdf(pts)
        ref_fc, ref_f = reference(d, pts)
        assert np.array_equal(fc, ref_fc) and np.array_equal(f, ref_f)
        assert np.array_equal(fc, d.survival(pts)) and np.array_equal(f, d.pdf(pts))
        assert np.shape(fc) == np.shape(f) == np.shape(pts)


def test_survival_pdf_defaults_to_the_vector_methods():
    class Uniform(PatienceDist):      # a user subclass that names cdf and pdf only
        def cdf(self, x):
            return np.clip(np.asarray(x, dtype=float) / 4.0, 0.0, 1.0)

        def pdf(self, x):
            return np.where(np.asarray(x, dtype=float) < 4.0, 0.25, 0.0)

    x = np.linspace(0.0, 5.0, 11)
    fc, f = Uniform().survival_pdf(x)
    assert np.array_equal(fc, 1.0 - x.clip(0.0, 4.0) / 4.0) and np.array_equal(f, Uniform().pdf(x))


@pytest.mark.parametrize("x, F", [
    (_TAB_X, _TAB.F),
    ([0.0, 1.0, 2.0, 4.0], [0.0, 0.3, 0.5, 0.8]),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.3, 0.3, 0.3, 0.6]),    # flat pieces
    ([0.0, 0.01, 2.0], [0.0, 0.5, 0.55]),                     # a steep first piece
], ids=["bench", "four_points", "flat", "steep"])
def test_tabulated_sample_inverts_the_cdf(x, F):
    # each draw u in the table maps to a point whose cdf is u to 1e-12,
    # and past it to the exponential tail's inverse
    d = TabulatedPatience(x, F)
    u = np.random.default_rng(5).random(4000)
    s = d.sample(np.random.default_rng(5), 4000)
    inside = u <= d.F[-1]
    assert inside.any() and (~inside).any()
    assert np.max(np.abs(d.cdf(s) - u)[inside]) <= 1e-12
    assert np.all((s[inside] >= 0.0) & (s[inside] <= d.x[-1]))
    assert np.all(s[~inside] > d.x[-1])
    np.testing.assert_allclose(d.cdf(s[~inside]), u[~inside], rtol=0.0, atol=1e-12)
    # a flat piece of F holds no draw
    for a, b in zip(d.x[:-1][np.diff(d.F) == 0.0], d.x[1:][np.diff(d.F) == 0.0]):
        assert not np.any((s > a + 1e-9) & (s < b - 1e-9))


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
