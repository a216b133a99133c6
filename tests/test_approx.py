import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from tvqueue.approx import _excess, _ndtr, report, truncated_moments, write_report_csv
from tvqueue.model import staffing_level


_D = np.linspace(-38.0, 38.0, 20001)


def test_normal_cdf_against_reference():
    # 0.5 erfc(-d / sqrt 2) and the reference differ by the rounding of the
    # argument, amplified by about d^2 in the tail; below 1e-300 the cdf is
    # subnormal and only an absolute bound holds
    got, want = _ndtr(_D), ndtr(_D)
    normal = want >= 1e-300
    assert np.all(normal[_D >= -37.0])
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[~normal], want[~normal], rtol=0.0, atol=1e-300)
    np.testing.assert_allclose(got[normal], norm.cdf(_D[normal]), rtol=1e-12, atol=0.0)
    assert isinstance(float(_ndtr(np.float64(0.3))), float)
    assert _ndtr(np.array(0.0)) == 0.5


def test_excess_against_reference():
    # E[Z^+] and Var[Z^+] of Z ~ N(d sd, sd^2) from the reference cdf: equal
    # to 1e-12 where phi + d Phi does not cancel; for d << 0 the cancellation
    # (a factor of about d^2 in E, d^4 in Var) leaves fewer digits
    sd = 1.7
    e1, var = _excess(_D * sd, sd)
    phi, Phi = norm.pdf(_D), ndtr(_D)
    ref_e1 = sd * np.maximum(phi + _D * Phi, 0.0)
    ref_e2 = sd * sd * ((1.0 + _D * _D) * Phi + _D * phi)
    ref_var = np.maximum(ref_e2 - ref_e1 ** 2, 0.0)
    assert np.all(e1 >= 0.0) and np.all(var >= 0.0)
    mild = _D >= -5.0
    np.testing.assert_allclose(e1[mild], ref_e1[mild], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(var[mild], ref_var[mild], rtol=1e-11, atol=0.0)
    tail = ~mild & (ref_var >= 1e-300)
    np.testing.assert_allclose(e1[tail], ref_e1[tail], rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(var[tail], ref_var[tail], rtol=1e-6, atol=0.0)


def test_truncated_at_mean():
    # a = m: E[(Y-a)^+] = sigma phi(0), the half-normal mean
    m, v = 3.0, 4.0
    e1, vh, el, vl = truncated_moments(m, v, m)
    sd = np.sqrt(v)
    assert e1 == pytest.approx(sd / np.sqrt(2 * np.pi), abs=1e-12)
    assert vh == pytest.approx(v / 2 - e1 ** 2, abs=1e-12)
    assert el == pytest.approx(m - e1, abs=1e-12)
    assert vl == pytest.approx(vh, abs=1e-12)


def test_truncated_tail_limits():
    # threshold six sigmas above: excess part vanishes, min part is Y
    e1, vh, el, vl = truncated_moments(0.0, 1.0, 6.0)
    assert e1 < 1e-8
    assert vh < 1e-7
    assert el == pytest.approx(0.0, abs=1e-8)
    assert vl == pytest.approx(1.0, abs=1e-6)
    # threshold six sigmas below: excess is Y - a
    e1, vh, el, vl = truncated_moments(0.0, 1.0, -6.0)
    assert e1 == pytest.approx(6.0, abs=1e-8)
    assert vh == pytest.approx(1.0, abs=1e-6)
    assert el == pytest.approx(-6.0, abs=1e-8)
    assert vl < 1e-7


def test_truncated_against_quadrature():
    # numerical integration of the defining integrals
    for m, v, a in [(2.0, 1.5, 2.5), (-1.0, 0.25, 0.0), (5.0, 9.0, 1.0)]:
        sd = np.sqrt(v)
        pdf = lambda y: norm.pdf(y, m, sd)
        e1_q = quad(lambda y: (y - a) * pdf(y), a, m + 12 * sd)[0]
        e2_q = quad(lambda y: (y - a) ** 2 * pdf(y), a, m + 12 * sd)[0]
        # split the min-part integrals at the kink y = a
        lo_q = (quad(lambda y: y * pdf(y), m - 12 * sd, a)[0]
                + a * quad(pdf, a, m + 12 * sd)[0])
        lo2_q = (quad(lambda y: y ** 2 * pdf(y), m - 12 * sd, a)[0]
                 + a ** 2 * quad(pdf, a, m + 12 * sd)[0])
        e1, vh, el, vl = truncated_moments(m, v, a)
        assert e1 == pytest.approx(e1_q, abs=1e-9)
        assert vh == pytest.approx(e2_q - e1_q ** 2, abs=1e-9)
        assert el == pytest.approx(lo_q, abs=1e-9)
        assert vl == pytest.approx(lo2_q - lo_q ** 2, abs=1e-9)


@pytest.mark.parametrize("m, v, a", [(400.0, 600.0, 200.0), (260.0, 80.0, 200.0)])
def test_min_part_variance_far_below_the_mean(m, v, a):
    # scale n = 200: a second moment built from m^2 + v would cancel terms
    # of order n^2; the reference integrates the deficit z = a - Y directly
    sd = np.sqrt(v)
    mom = [quad(lambda z: z ** k * norm.pdf(a - z, m, sd), 0.0, np.inf, epsabs=0.0)[0]
           for k in (1, 2)]
    assert truncated_moments(m, v, a)[3] == pytest.approx(mom[1] - mom[0] ** 2,
                                                    rel=1e-9, abs=0.0)


def test_truncated_monte_carlo():
    rng = np.random.default_rng(11)
    y = rng.normal(1.0, 2.0, 10_000_000)
    a = 2.0
    hi = np.maximum(y - a, 0.0)
    lo = np.minimum(y, a)
    e1, vh, el, vl = truncated_moments(1.0, 4.0, a)
    assert e1 == pytest.approx(hi.mean(), abs=3 * hi.std() / np.sqrt(len(y)))
    assert el == pytest.approx(lo.mean(), abs=3 * lo.std() / np.sqrt(len(y)))
    assert vh == pytest.approx(hi.var(), rel=0.005)
    assert vl == pytest.approx(lo.var(), rel=0.005)


def test_truncated_degenerate_variance():
    e1, vh, el, vl = truncated_moments(3.0, 0.0, 2.0)
    assert (e1, vh, el, vl) == (1.0, 0.0, 2.0, 0.0)
    e1, vh, el, vl = truncated_moments(1.0, 0.0, 2.0)
    assert (e1, vh, el, vl) == (0.0, 0.0, 1.0, 0.0)


def test_truncated_monotone_in_mean():
    ms = np.linspace(-5.0, 5.0, 101)
    e1, _, el, _ = truncated_moments(ms, 1.0, 0.0)
    assert np.all(np.diff(e1) > 0.0)
    assert np.all(np.diff(el) > 0.0)


def test_split_adds_back():
    # E[(Y-a)^+] + E[Y ^ a] = E[Y], exactly
    m = np.linspace(-3.0, 6.0, 37)
    e1, _, el, _ = truncated_moments(m, 2.0, 1.3)
    assert np.max(np.abs(e1 + el - m)) < 1e-12


def test_staffing_level_ceiling():
    assert staffing_level(200, 1.0) == 200
    assert staffing_level(7, 1.0) == 7
    # 10 * 0.3 rounds to 3.0000000000000004: the guard keeps 3 servers
    assert staffing_level(10, 0.3) == 3
    assert np.array_equal(staffing_level(4, np.array([0.5, 0.6, 1.0])), [2.0, 3.0, 4.0])


def test_gaussian_X_scaling(sine_h2_fluid, sine_h2_gaussian):
    rep = report(100, sine_h2_gaussian)
    i = np.searchsorted(sine_h2_fluid.grid, 2.5)
    assert rep.mean_X[i] == pytest.approx(100 * sine_h2_fluid.X[i], rel=1e-9)
    assert rep.var_X[i] == pytest.approx(100 * sine_h2_gaussian.var_X[i], rel=1e-9)


def test_report_consistency(sine_h2_fluid, sine_h2_gaussian):
    rep = report(200, sine_h2_gaussian)
    # the queue/in-service split reassembles the content mean exactly
    assert np.max(np.abs(rep.mean_Q + rep.mean_B - rep.mean_X)) < 1e-9
    assert np.all(rep.mean_Q >= 0.0)
    assert np.all(rep.mean_B <= rep.s_n + 1e-12)
    assert np.all(rep.var_Q >= 0.0)
    # waits are zero with no uncertainty deep inside underloaded stretches
    i = np.searchsorted(rep.grid, 0.5)
    assert not sine_h2_fluid.ol[i]
    assert rep.mean_W[i] == 0.0 and rep.var_W[i] == 0.0


def test_report_scales_with_n(sine_h2_gaussian):
    r1 = report(100, sine_h2_gaussian)
    r2 = report(400, sine_h2_gaussian)
    assert np.allclose(r2.mean_X, 4.0 * r1.mean_X)
    assert np.allclose(r2.var_X, 4.0 * r1.var_X)
    ok = ~np.isnan(r1.var_W)
    assert np.allclose(r2.var_W[ok], 0.25 * r1.var_W[ok])


def test_report_csv(tmp_path, sine_h2_gaussian):
    rep = report(50, sine_h2_gaussian)
    path = tmp_path / "approx.csv"
    write_report_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,mean_X,var_X,mean_Q")
    assert len(lines) == len(rep.grid) + 1
