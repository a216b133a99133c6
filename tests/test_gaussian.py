import numpy as np
import pytest

from tvqueue.fluid import solve_fluid
from tvqueue.functions import ConstantFn
from tvqueue.gaussian import (
    build_kernels,
    mean_shift_refined,
    propagate,
    var_UL,
    var_W_star,
    var_W_V,
    var_X_star,
    var_X_star_kernel,
    write_gaussian_csv,
)
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience


# ---------------------------------------------------------------- closed forms
# Constant overload lambda=1.5, s=1, mu=1, exponential patience rate 0.5.
# In the long-run limit: w -> 2 ln 1.5, boundary density -> 1, h -> -1/2,
# I1^2+I2^2+I3^2 -> 2, so var_Wstar -> 2, var_Xstar -> 3, cov -> 2.


def test_stationary_kernel_ingredients(stationary_ol_fluid):
    k = build_kernels(stationary_ol_fluid)[0]
    assert k.h[-1] == pytest.approx(-0.5, abs=1e-6)
    assert k.qw[-1] == pytest.approx(1.0, abs=1e-6)
    assert k.Isq[-1] == pytest.approx(2.0, abs=1e-5)
    # I2^2 = s mu / qw^2 -> 1, I1^2 = Fcw b0 / qw^2 -> 2/3, I3^2 -> 1/3
    assert k.I2[-1] ** 2 == pytest.approx(1.0, abs=1e-5)
    assert k.I1[-1] ** 2 == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert k.I3[-1] ** 2 == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_stationary_variance_limits(stationary_ol_gaussian):
    gs = stationary_ol_gaussian
    assert gs.var_Wstar[-1] == pytest.approx(2.0, abs=1e-4)
    assert gs.var_Xstar[-1] == pytest.approx(3.0, abs=1e-4)
    assert gs.cov_XW[-1] == pytest.approx(2.0, abs=1e-4)
    assert gs.var_Vstar[-2000] == pytest.approx(
        gs.var_Wstar[-2000], abs=1e-3)   # wdot -> 0 in the limit


def test_propagator_semigroup(sine_h2_fluid):
    k = build_kernels(sine_h2_fluid)[0]
    t0, t1 = k.start, k.t[-1]
    r = 0.5 * (t0 + t1)
    for tt in np.linspace(t0, t1, 7):
        lhs = k.H(tt, t0)
        rhs = k.H(tt, r) * k.H(r, t0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_variance_additivity(sine_h2_gaussian):
    gs = sine_h2_gaussian
    ol = ~np.isnan(gs.var_Xstar)
    total = gs.var_X_lambda[ol] + gs.var_X_s[ol] + gs.var_X_a[ol]
    assert np.max(np.abs(total - gs.var_Xstar[ol])) < 1e-12


def test_direct_vs_kernel_route(sine_h2_fluid):
    # two independent evaluations of the content-deviation variance
    k = build_kernels(sine_h2_fluid)[0]
    times = np.array([2.0, 2.5, 3.0, 3.5])
    direct = np.interp(times, k.t, var_X_star(k))
    kernel = var_X_star_kernel(k, times)
    assert np.max(np.abs(kernel / direct - 1.0)) < 1e-6


def test_initial_content_survival_exponential(stationary_ol_fluid):
    # constant hazard theta: the survival factor is exactly exp(-theta tau)
    k = build_kernels(stationary_ol_fluid)[0]
    assert np.max(np.abs(k.Fwc - np.exp(-0.5 * k.tau))) < 1e-10
    # interpolated between grid points, one time unit into the interval
    assert np.interp(k.start + 1.0, k.t, k.Fwc) == pytest.approx(np.exp(-0.5), abs=1e-9)


def test_waiting_potential_identity(sine_h2_fluid):
    # var_Vstar(t) (1 - wdot(t+v))^2 equals var_Wstar read at t + v(t)
    k = build_kernels(sine_h2_fluid)[0]
    vws = var_W_star(k)
    vw, vv, vvs = var_W_V(k, vws, 0.0)
    u = k.interval.l_inverse(k.t)
    ok = (u <= k.t[-1]) & (k.tau > 0.1)
    wdot_u = np.interp(u[ok], k.t, k.wdot)
    back = vvs[ok] * (1.0 - wdot_u) ** 2
    expect = np.interp(u[ok], k.t, vws)
    assert np.max(np.abs(back - expect)) < 1e-6


def test_initial_condition_terms():
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 4.0, x0=1.0, var_x0=0.5)
    fl = solve_fluid(spec)
    gs = propagate(spec, fl)
    assert gs.var_X[0] == pytest.approx(0.5, abs=1e-9)
    # at time zero the waiting deviation is varX0 / qw(0)^2, qw(0) = 1.5
    assert gs.var_W[0] == pytest.approx(0.5 / 1.5 ** 2, abs=1e-9)
    # on the OL grid the content variance is the zero-start variance plus
    # the initial variance thinned by the initial-content survival
    k = build_kernels(fl)[0]
    iv = k.interval
    ts = fl.grid[iv.i0 : iv.i1 + 1]
    shifted = np.interp(ts, k.t, var_X_star(k) + 0.5 * k.Fwc ** 2)
    assert np.max(np.abs(gs.var_X[iv.i0 : iv.i1 + 1] - shifted)) < 1e-12


def test_ul_variance_against_quadrature(sine_h2_spec, sine_h2_fluid):
    # independent fine-grid quadrature of the infinite-server variance
    iv = sine_h2_fluid.intervals[0]
    ulv = var_UL(sine_h2_spec, sine_h2_fluid, 0.0, 0.0, iv)
    lam = sine_h2_spec.arrival_rate
    mu = sine_h2_spec.mu
    for tt in (0.4, 0.9, 1.2):
        s = np.linspace(0.0, tt, 40001)
        oracle = np.trapezoid(np.exp(-mu * (tt - s)) * np.asarray(lam(s)), s)
        got = np.interp(tt, ulv.t, ulv.var_X)
        assert got == pytest.approx(oracle, abs=1e-8)


def test_ul_variance_constant_closed_form():
    spec = ModelSpec(ConstantFn(0.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 6.0, c_lambda=2.0)
    fl = solve_fluid(spec)
    iv = fl.intervals[0]
    assert iv.kind == "UL"
    ulv = var_UL(spec, fl, 0.0, 0.25, iv)
    lam, mu, c2 = 0.5, 1.0, 4.0
    tau = ulv.tau
    expect = ((c2 - 1.0) * lam / (2 * mu) * (1 - np.exp(-2 * mu * tau))
              + lam / mu * (1 - np.exp(-mu * tau))
              + 0.25 * np.exp(-2 * mu * tau))
    assert np.max(np.abs(ulv.var_X - expect)) < 1e-8


def test_waiting_sde_monte_carlo(sine_h2_fluid):
    # Euler scheme for dW = h W dt + |I| dB reproduces var_Wstar within 3 SE
    k = build_kernels(sine_h2_fluid)[0]
    t, h, sig = k.tau, k.h, np.sqrt(k.Isq)
    rng = np.random.default_rng(42)
    paths = 40000
    W = np.zeros(paths)
    checks = {}
    targets = {}
    probe = [len(t) // 3, 2 * len(t) // 3, len(t) - 1]
    vws = var_W_star(k)
    for i in range(1, len(t)):
        dt = t[i] - t[i - 1]
        W += h[i - 1] * W * dt + sig[i - 1] * np.sqrt(dt) * rng.standard_normal(paths)
        if i in probe:
            checks[i] = np.var(W, ddof=1)
            targets[i] = vws[i]
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
    k = build_kernels(gs.fluid)[0]
    iv = k.interval
    ts = gs.grid[iv.i0 : iv.i1 + 1]
    expect = np.interp(ts, k.t, k.qw * var_W_star(k))
    assert np.allclose(gs.cov_XW[iv.i0 : iv.i1 + 1], expect)


def test_variance_continuity_at_switches(sine_h2_gaussian):
    # the content variance hands over continuously at each switching time
    gs = sine_h2_gaussian
    fl = gs.fluid
    for kind, start, v0 in gs.interval_var0[1:]:
        i = np.searchsorted(fl.grid, start)
        left = gs.var_X[max(i - 1, 0)]
        assert v0 == pytest.approx(left, rel=1e-3, abs=1e-4)


def test_mean_shift_requires_refined_terms(stationary_ol_spec,
                                           stationary_ol_fluid):
    with pytest.raises(ValueError, match="refined terms not specified"):
        mean_shift_refined(stationary_ol_spec, stationary_ol_fluid)


def test_mean_shift_zero_terms():
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 5.0, x0=1.0,
                     arrival_rate_g=ConstantFn(0.0),
                     staffing_g=ConstantFn(0.0))
    fl = solve_fluid(spec)
    ms = mean_shift_refined(spec, fl)
    assert np.max(np.abs(ms.mean_X)) == 0.0
    assert np.max(np.abs(ms.mean_W)) == 0.0


def test_mean_shift_ul_constant():
    # underloaded with lambda_g = 1: the shift solves mdot = -mu m + 1
    spec = ModelSpec(ConstantFn(0.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 4.0,
                     arrival_rate_g=ConstantFn(1.0),
                     staffing_g=ConstantFn(0.0))
    fl = solve_fluid(spec)
    ms = mean_shift_refined(spec, fl)
    expect = 1.0 - np.exp(-fl.grid)
    assert np.max(np.abs(ms.mean_X - expect)) < 1e-8


def test_mean_shift_stationary_staffing():
    # s_g = 1 in constant overload: W shift relaxes to -2, X shift to 0
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 30.0, x0=1.0,
                     arrival_rate_g=ConstantFn(0.0),
                     staffing_g=ConstantFn(1.0))
    fl = solve_fluid(spec)
    ms = mean_shift_refined(spec, fl)
    assert ms.mean_W[-1] == pytest.approx(-2.0, abs=1e-4)
    assert ms.mean_X[-1] == pytest.approx(-2.0, abs=1e-4)


def test_csv_export(tmp_path, sine_h2_gaussian):
    path = tmp_path / "gaussian.csv"
    write_gaussian_csv(sine_h2_gaussian, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,var_X,var_Xstar")
    assert len(lines) == len(sine_h2_gaussian.grid) + 1
