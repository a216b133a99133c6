import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from tvqueue import gaussian
from tvqueue.compare import compare
from tvqueue.fluid import solve_fluid
from tvqueue.functions import ConstantFn, PiecewisePolyFn, SinusoidFn
from tvqueue.gaussian import (
    _cumquad,
    _ol_columns,
    mean_shift_refined,
    propagate,
    var_UL,
    write_gaussian_csv,
)
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience, H2Patience
from tvqueue.sim import SimConfig, estimate

from oracles import H, first_ol_kernels, shift_reference, var_X_star_kernel


# ---------------------------------------------------------------- closed forms
# Constant overload lambda=1.5, s=1, mu=1, exponential patience rate 0.5.
# In the long-run limit: w -> 2 ln 1.5, boundary density -> 1, h -> -1/2,
# I1^2+I2^2+I3^2 -> 2, so var_Wstar -> 2, var_Xstar -> 3, cov -> 2.


def test_stationary_kernel_ingredients(stationary_ol_fluid):
    k = first_ol_kernels(stationary_ol_fluid)
    assert k.h[-1] == pytest.approx(-0.5, abs=1e-6)
    assert k.qw[-1] == pytest.approx(1.0, abs=1e-6)
    assert k.Isq[-1] == pytest.approx(2.0, abs=1e-5)
    # I2^2 = s mu / qw^2 -> 1, I1^2 = Fcw b0 / qw^2 -> 2/3, I3^2 -> 1/3
    assert k.I2[-1] ** 2 == pytest.approx(1.0, abs=1e-5)
    assert k.I1[-1] ** 2 == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert k.I3[-1] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-5)


@pytest.mark.parametrize("c_lambda", [0.0, 0.5, 1.0, 2.0])
def test_stationary_variance_limits(stationary_ol_spec, c_lambda):
    # renewal arrivals scale the arrival noise: I1^2 -> 2 c^2 / 3, so
    # var_Wstar -> (2 c^2 + 4) / 3 and, with Q -> 1 and Q2 -> 5/6,
    # var_Xstar -> c^2 Q2 + Q - Q2 + var_Wstar = 3 (c^2 + 1) / 2
    gs = propagate(solve_fluid(ModelSpec(**dict(vars(stationary_ol_spec), c_lambda=c_lambda))))
    c2 = c_lambda ** 2
    assert gs.var_Wstar[-1] == pytest.approx((2.0 * c2 + 4.0) / 3.0, abs=1e-4)
    assert gs.var_Xstar[-1] == pytest.approx(1.5 * (c2 + 1.0), abs=1e-4)
    assert gs.cov_XW[-1] == pytest.approx((2.0 * c2 + 4.0) / 3.0, abs=1e-4)
    assert gs.var_Vstar[-2000] == pytest.approx(
        gs.var_Wstar[-2000], abs=1e-3)   # wdot -> 0 in the limit


@pytest.mark.parametrize("name", ["sine_h2_gaussian", "stationary_ol_gaussian"])
def test_potential_wait_variance_up_to_horizon(request, name):
    # the exit time L^{-1}(t) of the last stretch lies past the horizon;
    # the continuation keeps var_V defined there
    gs = request.getfixturevalue(name)
    assert np.all(np.isfinite(gs.var_V))
    assert np.all(np.isfinite(gs.var_Vstar[gs.fluid.ol]))


def test_stationary_potential_wait_limit(stationary_ol_gaussian):
    # wdot -> 0 and the initial content is gone: var_V -> var_Wstar -> 2
    assert stationary_ol_gaussian.var_V[-1] == pytest.approx(2.0, abs=1e-4)


def test_propagator_semigroup(sine_h2_fluid):
    # the kernel oracle's propagator
    k = first_ol_kernels(sine_h2_fluid)
    t0, t1 = k.t[0], k.t[-1]
    r = 0.5 * (t0 + t1)
    for tt in np.linspace(t0, t1, 7):
        lhs = H(k, tt, t0)
        rhs = H(k, tt, r) * H(k, r, t0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_variance_additivity(sine_h2_gaussian):
    gs = sine_h2_gaussian
    ol = ~np.isnan(gs.var_Xstar)
    total = gs.var_X_lambda[ol] + gs.var_X_s[ol] + gs.var_X_a[ol]
    assert np.max(np.abs(total - gs.var_Xstar[ol])) < 1e-12


@pytest.mark.parametrize("c_lambda", [1.0, 2.0])
def test_direct_vs_kernel_route(sine_h2_spec, c_lambda):
    # two independent evaluations of the content-deviation variance, under
    # Poisson and under renewal arrivals
    gs = propagate(solve_fluid(ModelSpec(**dict(vars(sine_h2_spec), c_lambda=c_lambda))))
    times = np.array([2.0, 2.5, 3.0, 3.5])
    direct = np.interp(times, gs.grid, gs.var_Xstar)
    kernel = var_X_star_kernel(first_ol_kernels(gs.fluid), times)
    assert np.max(np.abs(kernel / direct - 1.0)) < 1e-6


def test_initial_content_survival_exponential(stationary_ol_fluid):
    # constant hazard theta: the survival factor is exactly exp(-theta tau)
    k = first_ol_kernels(stationary_ol_fluid)
    assert np.max(np.abs(k.Fwc - np.exp(-0.5 * k.tau))) < 1e-10
    # interpolated between grid points, one time unit into the interval
    assert np.interp(k.t[0] + 1.0, k.t, k.Fwc) == pytest.approx(np.exp(-0.5), abs=1e-9)


def test_waiting_potential_identity(sine_h2_fluid):
    # var_Vstar(t) (1 - wdot(t+v))^2 equals var_Wstar read at t + v(t)
    # vws is read on the local grid, past the horizon too
    iv = [v for v in sine_h2_fluid.intervals if v.kind == "OL"][0]
    cols = _ol_columns(iv, sine_h2_fluid.spec, 0.0)
    t, vws, vvs = iv.t_loc, cols["var_Wstar"], cols["var_Vstar"]
    u = iv.l_inverse(t)
    ok = (u <= t[-1]) & (t - iv.start > 0.1)
    wdot_u = np.interp(u[ok], t, iv.ydot_loc)
    back = vvs[ok] * (1.0 - wdot_u) ** 2
    expect = np.interp(u[ok], t, vws)
    assert np.max(np.abs(back - expect)) < 1e-6


def test_initial_condition_terms():
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 4.0, x0=1.0, var_x0=0.5)
    fl = solve_fluid(spec)
    gs = propagate(fl)
    assert gs.var_X[0] == pytest.approx(0.5, abs=1e-9)
    # at time zero the waiting deviation is varX0 / qw(0)^2, qw(0) = 1.5
    assert gs.var_W[0] == pytest.approx(0.5 / 1.5 ** 2, abs=1e-9)
    # on the OL grid the content variance is the zero-start variance plus
    # the initial variance thinned by the initial-content survival
    iv = [v for v in fl.intervals if v.kind == "OL"][0]
    sl = slice(iv.i0, iv.i1 + 1)
    shifted = gs.var_Xstar[sl] + 0.5 * gs.Fwc[sl] ** 2
    assert np.max(np.abs(gs.var_X[sl] - shifted)) < 1e-12


def test_ul_variance_against_quadrature(sine_h2_spec, sine_h2_fluid):
    # independent fine-grid quadrature of the infinite-server variance
    iv = sine_h2_fluid.intervals[0]
    var_X = var_UL(sine_h2_spec, iv, 0.0)
    lam = sine_h2_spec.arrival_rate
    mu = sine_h2_spec.mu
    for tt in (0.4, 0.9, 1.2):
        s = np.linspace(0.0, tt, 40001)
        oracle = np.trapezoid(np.exp(-mu * (tt - s)) * np.asarray(lam(s)), s)
        got = np.interp(tt, iv.t_loc, var_X)
        assert got == pytest.approx(oracle, abs=1e-8)


def _ul_constant_error(lam, mu, horizon):
    """Largest error of var_UL against its closed form under constant
    arrivals with c_lambda = 2 and var_x0 = 0.25, and the interval span."""
    spec = ModelSpec(ConstantFn(lam), ConstantFn(1.0), mu,
                     ExponentialPatience(1.0), horizon, c_lambda=2.0)
    fl = solve_fluid(spec)
    iv = fl.intervals[0]
    assert iv.kind == "UL"
    var_X = var_UL(spec, iv, 0.25)
    c2 = 4.0
    tau = iv.t_loc - iv.start
    expect = ((c2 - 1.0) * lam / (2 * mu) * (1 - np.exp(-2 * mu * tau))
              + lam / mu * (1 - np.exp(-mu * tau))
              + 0.25 * np.exp(-2 * mu * tau))
    return np.max(np.abs(var_X - expect)), tau[-1]


@pytest.mark.parametrize("r, n", [(-2000.0, 160001), (-0.5, 16001), (10.0, 16001)])
def test_filter_closed_form(r, n):
    # x' = r x + a + b sin t from x(0) = x0 on [0, 16]; at r = -2000 the
    # exponent reaches -32000, so the filter restarts every 300 of it.
    # The quadrature is exact on quadratics: on exp(-r u) its relative
    # error is O((|r| step)^4), and rounding below that
    a, b, x0 = 1.0, 0.5, 0.7
    tau = np.linspace(0.0, 16.0, n)
    x = gaussian._filter(r * tau, a + b * np.sin(tau), tau, x0)
    e = np.exp(r * tau)
    exact = (x0 * e + a * np.expm1(r * tau) / r
             + b * (e - r * np.sin(tau) - np.cos(tau)) / (1.0 + r * r))
    rtol = max((abs(r) * (tau[1] - tau[0])) ** 4 / 6.0, 1e-12)
    np.testing.assert_allclose(x, exact, rtol=rtol, atol=0.0)


def test_filter_step_beyond_restart_span():
    # each step moves G by 1000, more than the restart span: every block
    # is one step long, and the filter still ends with finite values
    tau = np.linspace(0.0, 16.0, 33)
    x = gaussian._filter(-2000.0 * tau, 1.0 + 0.5 * np.sin(tau), tau)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("slope, n", [(-50.0, 2), (-50.0, 3), (-0.5, 401), (-2000.0, 33),
                                      (-150.0, 401), (40.0, 160)])
def test_stacked_filter_equals_one_filter_per_row(slope, n):
    # three forcing rows on one exponent give the three single-row
    # filters bit for bit: with no restart, with restarts (G moves about
    # 2400 and 640 over the grid, against _SPAN = 300), with one-step
    # blocks where a step moves G past _SPAN, and on two points, where
    # _cumquad takes trapezoids
    tau = np.sort(np.random.default_rng(n).uniform(0.0, 16.0, n))
    tau = tau - tau[0]
    G = slope * tau + np.sin(tau)
    f = np.stack((1.0 + 0.5 * np.sin(tau), np.cos(3.0 * tau) ** 2, np.exp(-tau)))
    x = gaussian._filter(G, f, tau, 0.25)
    assert x.shape == f.shape
    for row, fr in zip(x, f):
        assert np.array_equal(row, gaussian._filter(G, fr, tau, 0.25))


@pytest.mark.parametrize("n", [2, 3, 4, 1001])
def test_stacked_cumquad_integrates_along_the_last_axis(n):
    x = np.cumsum(np.random.default_rng(n).uniform(0.001, 1.0, n))
    y = np.stack((np.sin(x), x ** 2, np.exp(-x)))
    got = _cumquad(y, x)
    assert got.shape == y.shape
    for row, yr in zip(got, y):
        assert np.array_equal(row, _cumquad(yr, x))


def test_ul_variance_constant_closed_form():
    assert _ul_constant_error(0.5, 1.0, 6.0)[0] < 1e-8


def test_ul_variance_overflow_safe_filter():
    # 2 mu T = 600: exp(2 mu tau) would overflow one quadrature over the
    # interval, so the filter restarts as its exponent passes -300
    err, span = _ul_constant_error(5.0, 10.0, 30.0)
    assert 2 * 10.0 * span >= 500.0
    assert err < 1e-8


@pytest.mark.parametrize("c_lambda", [1.0, 1.5])
def test_ul_variance_filters_at_2mu_only_for_renewal_excess(monkeypatch, c_lambda):
    # the variance is read from the fluid content X; only the renewal
    # excess (c_lambda^2 - 1) runs a filter, at 2 mu, and Poisson arrivals
    # run none; x0 = 0.3 keeps the initial content's term in play
    spec = ModelSpec(SinusoidFn(0.5, 0.3), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 8.0, x0=0.3, c_lambda=c_lambda)
    iv = solve_fluid(spec).intervals[0]
    assert iv.kind == "UL" and iv.y_loc[0] == 0.3
    slopes = []
    filt = gaussian._filter

    def recorded(G, f, tau):
        slopes.append(G[-1] / tau[-1])
        return filt(G, f, tau)

    monkeypatch.setattr(gaussian, "_filter", recorded)
    got = var_UL(spec, iv, 0.25)
    assert slopes == ([] if c_lambda == 1.0 else [-2.0])
    tau = iv.t_loc - iv.start
    lam = np.asarray(spec.arrival_rate(iv.t_loc), dtype=float)
    full = iv.y_loc - (0.3 - 0.25) * np.exp(-2.0 * tau)
    if c_lambda != 1.0:
        full = full + (c_lambda ** 2 - 1.0) * filt(-2.0 * tau, lam, tau)
    assert np.array_equal(got, full)


def _ul_sine_content(mu, t):
    """X(t) from X(0) = 0 under lambda = mu (0.5 + 0.3 sin t): the mean and,
    with Poisson arrivals, the variance of the infinite-server count."""
    e = np.exp(-mu * t)
    return 0.5 * (1.0 - e) + 0.3 * mu * (mu * np.sin(t) - np.cos(t) + e) / (1.0 + mu * mu)


@pytest.mark.parametrize("mu, horizon", [(20.0, 30.0), (100.0, 16.0)])
def test_ul_variance_exact_at_large_mu(mu, horizon):
    # mu step = 0.02 and 0.1: a quadrature of exp(-mu tau) on the grid was
    # off by 4.6e-9 and 2.9e-6 here; the fluid content is the variance
    spec = ModelSpec(SinusoidFn(0.5 * mu, 0.3 * mu), ConstantFn(1.0), mu,
                     ExponentialPatience(1.0), horizon)
    gs = propagate(solve_fluid(spec, 1e-3))
    assert [iv.kind for iv in gs.fluid.intervals] == ["UL"]
    assert np.max(np.abs(gs.var_X - _ul_sine_content(mu, gs.grid))) <= 1e-11


@pytest.mark.parametrize("mu", [1.0, 3.6])
def test_ul_variance_exact_across_a_rate_jump(mu):
    # lambda jumps from 0.2 mu to 0.7 mu between two grid points; the
    # variance follows the exact content X across the jump
    tj = 2.0005
    spec = ModelSpec(PiecewisePolyFn([0.0, tj, 6.0], [[0.2 * mu], [0.7 * mu]]),
                     ConstantFn(1.0), mu, ExponentialPatience(1.0), 6.0)
    gs = propagate(solve_fluid(spec))
    assert [iv.kind for iv in gs.fluid.intervals] == ["UL"]
    t = gs.grid
    xj = 0.2 * (1.0 - np.exp(-mu * tj))
    X = np.where(t < tj, 0.2 * (1.0 - np.exp(-mu * t)),
                 xj * np.exp(-mu * (t - tj)) + 0.7 * (1.0 - np.exp(-mu * (t - tj))))
    assert np.max(np.abs(gs.var_X - X)) <= 1e-11


def test_waiting_sde_monte_carlo(sine_h2_gaussian):
    # Euler scheme for dW = h W dt + |I| dB reproduces var_Wstar within 3 SE
    gs = sine_h2_gaussian
    k = first_ol_kernels(gs.fluid)
    iv = k.interval
    t, h, sig = k.tau, k.h, np.sqrt(k.Isq)
    rng = np.random.default_rng(42)
    paths = 40000
    W = np.zeros(paths)
    checks = {}
    targets = {}
    # probes at global grid points: a third and two thirds in, and the last
    n = len(iv.idx)
    probe = {int(iv.idx[j]): iv.i0 + j for j in (n // 3, 2 * n // 3, n - 1)}
    for i in range(1, len(t)):
        dt = t[i] - t[i - 1]
        W += h[i - 1] * W * dt + sig[i - 1] * np.sqrt(dt) * rng.standard_normal(paths)
        if i in probe:
            checks[i] = np.var(W, ddof=1)
            targets[i] = gs.var_Wstar[probe[i]]
    for i in probe:
        se = checks[i] * np.sqrt(2.0 / (paths - 1))
        assert abs(checks[i] - targets[i]) < 3.0 * se


def test_variance_grids_nonnegative(sine_h2_gaussian):
    gs = sine_h2_gaussian
    for arr in (gs.var_X, gs.var_W, gs.var_V):
        vals = arr[~np.isnan(arr)]
        assert np.all(vals >= -1e-12)


def test_cauchy_schwarz(sine_h2_gaussian):
    gs = sine_h2_gaussian
    ol = ~np.isnan(gs.cov_XW)
    bound = gs.var_Xstar[ol] * gs.var_Wstar[ol]
    assert np.all(gs.cov_XW[ol] ** 2 <= bound * (1.0 + 1e-9))


def test_cov_is_boundary_density_times_var(sine_h2_gaussian):
    gs = sine_h2_gaussian
    iv = [v for v in gs.fluid.intervals if v.kind == "OL"][0]
    sl = slice(iv.i0, iv.i1 + 1)
    expect = gs.fluid.qtilde_w[sl] * gs.var_Wstar[sl]
    assert np.allclose(gs.cov_XW[sl], expect)


def test_variance_continuity_at_switches(sine_h2_gaussian):
    # the content variance hands over continuously at each switching time
    gs = sine_h2_gaussian
    fl = gs.fluid
    for kind, start, v0 in gs.interval_var0[1:]:
        i = np.searchsorted(fl.grid, start)
        left = gs.var_X[max(i - 1, 0)]
        assert v0 == pytest.approx(left, rel=1e-3, abs=1e-4)


@st.composite
def _gaussian_models(draw):
    mean = draw(st.floats(0.3, 2.5))
    if draw(st.booleans()):
        lam = ConstantFn(mean)
    else:
        lam = SinusoidFn(mean, mean * draw(st.floats(0.0, 0.9)), draw(st.floats(0.2, 3.0)))
    rate = st.floats(0.1, 100.0)
    if draw(st.booleans()):
        patience = ExponentialPatience(draw(rate))
        fastest = patience.rate
    else:
        patience = H2Patience(draw(st.floats(0.05, 0.95)), draw(rate), draw(rate))
        fastest = max(patience.rate1, patience.rate2)
    horizon = draw(st.floats(1.0, min(50.0, 700.0 / fastest)))
    return ModelSpec(lam, ConstantFn(1.0), 1.0, patience, horizon,
                     x0=draw(st.floats(0.0, 0.9)))


@settings(max_examples=100, deadline=None)
@given(_gaussian_models())
@example(ModelSpec(ConstantFn(1.0), ConstantFn(1.0), 1.0, ExponentialPatience(1.0), 29.0))
def test_propagate_properties(spec):
    # finite on overloaded points, non-negative, and the content-wait
    # covariance within the Cauchy-Schwarz bound
    gs = propagate(solve_fluid(spec, 1e-2))
    ol = gs.fluid.ol
    grids = (gs.var_X, gs.var_Xstar, gs.var_W, gs.var_Wstar, gs.var_V, gs.var_Vstar)
    for arr in grids + (gs.cov_XW,):
        assert np.all(np.isfinite(arr[ol]))
    for arr in grids:
        assert np.all(arr[~np.isnan(arr)] >= 0.0)
    assert np.all(gs.cov_XW[ol] ** 2 <= gs.var_Xstar[ol] * gs.var_Wstar[ol] * (1.0 + 1e-12))


def test_propagate_forms_no_age_matrix(sine_h2_spec):
    # the age integrals are the fluid solution's (fluid.age_integrals):
    # propagate evaluates lambda, Fc and f on 1-D time grids only
    ndims = []

    class Rate(SinusoidFn):
        def __call__(self, t):
            ndims.append(("lambda", np.ndim(t)))
            return super().__call__(t)

    class Patience(H2Patience):
        # H2's survival and pdf are survival_pdf's parts
        def survival_pdf(self, x):
            ndims.extend((("Fc", np.ndim(x)), ("f", np.ndim(x))))
            return super().survival_pdf(x)

    spec = ModelSpec(**dict(
        vars(sine_h2_spec),
        arrival_rate=Rate(**vars(sine_h2_spec.arrival_rate)),
        patience=Patience(**vars(sine_h2_spec.patience))))
    fl = solve_fluid(spec)
    assert ("lambda", 2) in ndims       # the recording sees the fluid's pass
    ndims.clear()
    propagate(fl)
    assert {name for name, _ in ndims} == {"lambda", "Fc", "f"}
    assert max(d for _, d in ndims) == 1


def test_propagate_reads_ul_variance_from_the_fluid(sine_h2_spec):
    # Poisson arrivals: the UL variances are read from the fluid content,
    # so no arrival rate is evaluated on a UL local grid
    calls = []

    class Rate(SinusoidFn):
        def __call__(self, t):
            calls.append(np.asarray(t))
            return super().__call__(t)

    spec = ModelSpec(**dict(
        vars(sine_h2_spec), arrival_rate=Rate(**vars(sine_h2_spec.arrival_rate))))
    fl = solve_fluid(spec)
    uls = [iv for iv in fl.intervals if iv.kind == "UL"]
    assert len(uls) == 3 and any(np.array_equal(a, uls[0].t_loc) for a in calls)
    calls.clear()
    propagate(fl)
    assert calls
    assert not any(np.array_equal(a, iv.t_loc) for a in calls for iv in uls)


def test_mean_shift_requires_refined_terms(stationary_ol_fluid):
    with pytest.raises(ValueError, match="refined terms not specified"):
        mean_shift_refined(stationary_ol_fluid)


def test_mean_shift_zero_terms():
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 5.0, x0=1.0,
                     arrival_rate_g=ConstantFn(0.0),
                     staffing_g=ConstantFn(0.0))
    fl = solve_fluid(spec)
    ms = mean_shift_refined(fl)
    assert np.max(np.abs(ms.mean_X)) == 0.0
    assert np.max(np.abs(ms.mean_W)) == 0.0


def test_mean_shift_ul_constant():
    # underloaded with lambda_g = 1: the shift solves mdot = -mu m + 1
    spec = ModelSpec(ConstantFn(0.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 4.0,
                     arrival_rate_g=ConstantFn(1.0),
                     staffing_g=ConstantFn(0.0))
    fl = solve_fluid(spec)
    ms = mean_shift_refined(fl)
    expect = 1.0 - np.exp(-fl.grid)
    assert np.max(np.abs(ms.mean_X - expect)) < 1e-8


def test_mean_shift_on_a_rounded_grid_step():
    # step 0.4 on horizon 1 makes the grid step 0.5, past 1/mu = 0.45:
    # the moved solves rebuild the same grid at a valid step
    spec = ModelSpec(ConstantFn(0.5), ConstantFn(1.0), 2.2, ExponentialPatience(1.0), 1.0,
                     arrival_rate_g=ConstantFn(1.0), staffing_g=ConstantFn(0.0))
    fl = solve_fluid(spec, 0.4)
    ms = mean_shift_refined(fl)
    np.testing.assert_array_equal(ms.grid, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(ms.mean_X, (1.0 - np.exp(-2.2 * fl.grid)) / 2.2, atol=1e-6)


# Stationary overload lambda = 1.5, s = 1, mu = 1, exponential patience
# theta = 0.5: lambda Fc(w) = s mu gives w = ln(lambda / (s mu)) / theta,
# and Q = int_0^w lambda exp(-theta x) dx = (lambda - s mu) / theta, so
# X = s + Q.  The shift is the derivative along (lambda_g, s_g):
#   lambda_g = 1: X_g = dQ/dlambda = 1/theta = 2, W_g = 1/(theta lambda) = 4/3;
#   s_g = 1: X_g = 1 + dQ/ds = 1 - mu/theta = -1, W_g = -1/(theta s) = -2.


def test_mean_shift_stationary_arrivals():
    # lambda_g = 1 in constant overload: the transient, of rate theta, is
    # below 1e-6 at t = 29
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 30.0, x0=1.0,
                     arrival_rate_g=ConstantFn(1.0),
                     staffing_g=ConstantFn(0.0))
    fl = solve_fluid(spec)
    ms = mean_shift_refined(fl)
    i = int(np.searchsorted(fl.grid, 29.0))
    assert ms.mean_X[i] == pytest.approx(2.0, abs=1e-4)
    assert ms.mean_W[i] == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_mean_shift_stationary_staffing():
    # s_g = 1 in constant overload: the W shift relaxes to -2 and, with
    # X = s + Q and dQ/ds = -mu/theta = -2, the X shift to 1 - 2 = -1
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 30.0, x0=1.0,
                     arrival_rate_g=ConstantFn(0.0),
                     staffing_g=ConstantFn(1.0))
    fl = solve_fluid(spec)
    ms = mean_shift_refined(fl)
    assert ms.mean_W[-1] == pytest.approx(-2.0, abs=1e-4)
    assert ms.mean_X[-1] == pytest.approx(-1.0, abs=1e-4)


def test_mean_shift_fast_patience_staffing():
    # s_g = 1 in constant overload with patience rate 30: W_g' = h W_g - z
    # with h = -30 and z = s_g mu / qw = 1 relaxes to -1/30, and
    # X_g = s_g + dQ/ds = 1 - mu/theta = 1 - 1/30; the relaxation
    # time 1/30 leaves no transient at t = 30.  Fc underflows from age
    # 23.6, before the horizon, which the model check accepts
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(30.0), 30.0, x0=1.0,
                     arrival_rate_g=ConstantFn(0.0),
                     staffing_g=ConstantFn(1.0))
    ms = mean_shift_refined(solve_fluid(spec))
    assert ms.mean_W[-1] == pytest.approx(-1.0 / 30.0, rel=1e-5)
    assert ms.mean_X[-1] == pytest.approx(1.0 - 1.0 / 30.0, rel=1e-5)


def test_csv_export(tmp_path, sine_h2_gaussian):
    path = tmp_path / "gaussian.csv"
    write_gaussian_csv(sine_h2_gaussian, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,var_X,var_Xstar")
    assert len(lines) == len(sine_h2_gaussian.grid) + 1


# ------------------------------------------- quadrature and interpolation ports

@pytest.mark.parametrize("n", [2, 3, 4, 1001])
def test_cumquad_against_cumulative_simpson(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.001, 1.0, n))
    y = np.sin(x) + rng.normal(size=n)
    np.testing.assert_allclose(_cumquad(y, x), cumulative_simpson(y, x=x, initial=0.0),
                               rtol=1e-12, atol=1e-14)


def test_potential_wait_hermite_against_spline(sine_h2_spec, sine_h2_fluid):
    # the exit-time reads of var_V: Hermite with exact ODE slopes, and wdot
    # by the OL stage on the fluid's path, against the not-a-knot cubic
    # spline through the same samples; they differ by interpolation error,
    # not rounding
    for iv in [v for v in sine_h2_fluid.intervals if v.kind == "OL"]:
        cols = _ol_columns(iv, sine_h2_spec, 0.7)
        t, vws, Fwc, m = iv.t_loc, cols["var_Wstar"], cols["Fwc"], iv.n_in
        u = np.minimum(iv.l_inverse(t[:m]), t[-1])
        b0 = sine_h2_spec.staffing(u) * sine_h2_spec.mu + sine_h2_spec.staffing.deriv(u)
        ref_star = (np.maximum(CubicSpline(t, vws)(u), 0.0)
                    / (1.0 - CubicSpline(t, iv.ydot_loc)(u)) ** 2)
        ref = ref_star + 0.7 * CubicSpline(t, Fwc)(u) ** 2 / b0 ** 2
        np.testing.assert_allclose(cols["var_Vstar"], ref_star, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(cols["var_V"], ref, rtol=1e-8, atol=0.0)
        np.testing.assert_array_equal(cols["var_W"],
                                      vws[:m] + 0.7 * Fwc[:m] ** 2 / iv.qw_loc[:m] ** 2)


@pytest.mark.parametrize("staffed", [False, True], ids=["sine_h2", "sine_staffed"])
def test_potential_wait_variance_against_a_finer_step(sine_h2_spec, staffed):
    # var_V reads w, wdot and b(t,0) at the exit times from the fluid's
    # path and OL stage, so at the default step it is as close to a
    # nesting step-1.25e-4 solve as var_X is, away from the start and
    # from the switches, where the variances have kinks
    spec = sine_h2_spec
    if staffed:
        spec = ModelSpec(**dict(vars(spec), staffing=SinusoidFn(1.0, 0.3, 1.0, -0.5)))
    coarse, fine = (propagate(solve_fluid(spec, h)) for h in (1e-3, 1.25e-4))
    t = coarse.grid
    np.testing.assert_allclose(fine.grid[::8], t, rtol=0.0, atol=1e-12)
    away = (t >= 0.05) & np.all(
        np.abs(t[:, None] - coarse.fluid.switch_times[None, :]) >= 0.05, axis=1)
    assert np.count_nonzero(away & coarse.fluid.ol) > 5000
    np.testing.assert_allclose(coarse.var_V[away], fine.var_V[::8][away], rtol=1e-10, atol=0.0)


# ------------------------------------------------ mean shift against references

_SHIFT_TERMS = {
    "lambda_g": (ConstantFn(1.0), ConstantFn(0.0)),
    "s_g": (ConstantFn(0.0), ConstantFn(1.0)),
    "both": (SinusoidFn(0.5, 0.4, 2.0), SinusoidFn(-0.3, 0.5, 1.5, 0.7)),
}


@pytest.mark.parametrize("terms", sorted(_SHIFT_TERMS))
@pytest.mark.parametrize("staffed", [False, True], ids=["sine_h2", "sine_staffed"])
def test_mean_shift_against_sensitivity_reference(sine_h2_spec, staffed, terms):
    # in every interval, from the program's shift at 0.3 past its start,
    # the linearised fluid ODE (DOP853) carries the shift to every 50th
    # grid point up to 0.3 before its end: agreement to 1e-7 in W and X
    spec = sine_h2_spec
    if staffed:
        spec = ModelSpec(**dict(vars(spec), staffing=SinusoidFn(1.0, 0.3, 1.0, -0.5)))
    lam_g, s_g = _SHIFT_TERMS[terms]
    fl = solve_fluid(ModelSpec(**dict(vars(spec), arrival_rate_g=lam_g, staffing_g=s_g)))
    ms = mean_shift_refined(fl)
    away = np.all(np.abs(fl.grid[:, None] - fl.switch_times[None, :]) >= 0.3, axis=1)
    kinds = set()
    for iv in fl.intervals:
        i = np.flatnonzero((fl.grid > iv.start) & (fl.grid <= iv.end) & away)
        if len(i) < 100:
            continue
        ia, ib = i[0], i[50::50]
        W_g, X_g = shift_reference(fl.spec, iv.kind, fl.grid[ia], fl.w[ia],
                                   (ms.mean_W if iv.kind == "OL" else ms.mean_X)[ia],
                                   fl.grid[ib])
        assert np.max(np.abs(ms.mean_W[ib] - W_g)) < 1e-7, iv.kind
        assert np.max(np.abs(ms.mean_X[ib] - X_g)) < 1e-7, iv.kind
        kinds.add(iv.kind)
    assert kinds == {"UL", "OL"}


def test_mean_shift_against_simulation(sine_h2_spec):
    # sine/H2 with arrival rate n (lambda + lambda_g / sqrt(n)),
    # lambda_g = 0.5, n = 200, 400 replications, seed 1: at t = 3, in
    # overload, the simulated (mean X_n - n X) / sqrt(n) lies within 3 SE
    # of the X shift, the SE from the replications (about 0.06)
    n, lam_g = 200, 0.5
    moved = ModelSpec(**dict(vars(sine_h2_spec),
                             arrival_rate=SinusoidFn(1.0 + lam_g / np.sqrt(n), 0.6)))
    est = estimate(SimConfig(moved, n=n, reps=400, base_seed=1))
    fl = solve_fluid(ModelSpec(**dict(vars(sine_h2_spec), arrival_rate_g=ConstantFn(lam_g),
                                      staffing_g=ConstantFn(0.0))))
    ms = mean_shift_refined(fl)
    j, i = int(np.searchsorted(est.t, 3.0 - 1e-9)), int(np.searchsorted(fl.grid, 3.0 - 1e-9))
    assert fl.ol[i]
    sim_shift = (est.mean("X")[j] - n * fl.X[i]) / np.sqrt(n)
    se = est.se("X")[j] / np.sqrt(n)
    assert abs(sim_shift - ms.mean_X[i]) <= 3.0 * se, (sim_shift, se, ms.mean_X[i])


def test_wait_variances_against_simulation(sine_h2_spec):
    # sine/H2, n = 200, 400 replications, seed 1: the simulated n Var(W_n)
    # and n Var(V_n) over the predicted var_W and var_V lie in criterion
    # 5's [0.8, 1.25] on compare's waiting-time masks
    res = compare(sine_h2_spec, n=200, reps=400, seed=1)
    est, gs, tg = res.sim, res.gaussian, res.sim.t
    for name, mask in (("W", res.masks["wait"]), ("V", res.masks["v"])):
        assert mask.sum() > 100, name
        pred = np.interp(tg[mask], gs.grid, getattr(gs, f"var_{name}"))
        ratio = est.scaled_var(name)[mask] / pred
        assert 0.8 <= ratio.min() and ratio.max() <= 1.25, (name, ratio.min(), ratio.max())
