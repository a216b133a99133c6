import numpy as np
import pytest

from tvqueue.fluid import (
    CriticalLoadingError,
    StaffingInfeasibleError,
    _Ctx,
    _rk4_step,
    solve_fluid,
    solve_v_arrays,
    ul_content,
    write_fluid_csv,
)
from tvqueue.functions import ConstantFn, LinearFn, PiecewisePolyFn, SinusoidFn, SmoothFn
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience, PatienceDist, TabulatedPatience

# regime switch times of the sinusoidal H2 model, frozen from two runs at
# step 1e-3 and 5e-4 (agreement < 5e-9)
SINE_H2_SWITCHES = [1.26814129, 4.00196215, 7.06508246, 10.33648567, 13.34555348]


def test_switch_times_frozen(sine_h2_fluid):
    assert np.allclose(sine_h2_fluid.switch_times, SINE_H2_SWITCHES, atol=1e-6)
    kinds = [iv.kind for iv in sine_h2_fluid.intervals]
    assert kinds == ["UL", "OL", "UL", "OL", "UL", "OL"]


def test_ul_phase_matches_linear_ode(sine_h2_fluid):
    # before the first switch the content solves Xdot = lambda - mu X
    fl = sine_h2_fluid
    spec = fl.spec
    for t in (0.25, 0.75, 1.2):
        i = np.searchsorted(fl.grid, t)
        expect = ul_content(spec, fl.grid[i], 0.0, 0.0)
        assert fl.X[i] == pytest.approx(expect, abs=1e-9)


def test_ol_onset_time_analytic():
    # constant lambda=1.5 from empty: X(t) = 1.5 (1 - e^{-t}) hits s=1 at ln 3
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 5.0)
    fl = solve_fluid(spec)
    assert fl.switch_times[0] == pytest.approx(np.log(3.0), abs=1e-9)


def test_hwt_ode_residual(sine_h2_fluid):
    # stored wdot agrees with a centered finite difference of w
    fl = sine_h2_fluid
    h = fl.grid[1] - fl.grid[0]
    for iv in fl.ol_intervals():
        # centered stencil only: one-sided edges would add O(h) noise
        i = np.arange(iv.i0 + 5, iv.i1 - 5)
        fd = (fl.w[i + 1] - fl.w[i - 1]) / (2.0 * h)
        assert np.max(np.abs(fd - fl.wdot[i])) < 1e-5


def test_pwt_fixed_point(sine_h2_fluid):
    # v solves v(t) = w(t + v(t)) inside OL intervals
    fl = sine_h2_fluid
    for iv in fl.ol_intervals():
        sl = slice(iv.i0, iv.i1 + 1)
        ts = fl.grid[sl]
        vs = fl.v[sl]
        resid = vs - np.interp(ts + vs, fl.grid, fl.w)
        # skip the last stretch: t + v lands on the kink of w at the switch
        keep = (ts + vs <= fl.grid[-1]) & (ts < iv.end - 0.01)
        assert np.max(np.abs(resid[keep])) < 1e-4


def test_solve_v_wrapper(sine_h2_fluid):
    fl = sine_h2_fluid
    assert np.allclose(solve_v_arrays(fl.intervals, fl.grid), fl.v)


def test_flow_conservation(sine_h2_fluid):
    fl = sine_h2_fluid
    resid = fl.X - (fl.spec.x0 + fl.Lam - fl.D - fl.A)
    assert np.max(np.abs(resid)) < 1e-6


def test_queue_content_against_fine_quadrature(sine_h2_fluid):
    fl = sine_h2_fluid
    spec = fl.spec
    for t in (2.5, 3.0, 8.5):
        i = np.searchsorted(fl.grid, t)
        w = fl.w[i]
        x = np.linspace(0.0, w, 20001)
        q = np.asarray(spec.arrival_rate(fl.grid[i] - x)) * np.asarray(
            spec.patience.survival(x))
        assert fl.Q[i] == pytest.approx(np.trapezoid(q, x), abs=1e-6)


def test_abandonment_rate_against_fine_quadrature(sine_h2_fluid):
    fl = sine_h2_fluid
    spec = fl.spec
    alpha, A = fl.alpha, fl.A
    for t in (2.5, 8.5):
        i = np.searchsorted(fl.grid, t)
        x = np.linspace(0.0, fl.w[i], 20001)
        a = np.asarray(spec.arrival_rate(fl.grid[i] - x)) * np.asarray(
            spec.patience.pdf(x))
        assert alpha[i] == pytest.approx(np.trapezoid(a, x), abs=1e-6)
    assert np.all(np.diff(A) >= -1e-12)


def test_stationary_limits(stationary_ol_fluid):
    fl = stationary_ol_fluid
    assert fl.w[-1] == pytest.approx(2.0 * np.log(1.5), abs=1e-6)
    assert fl.Q[-1] == pytest.approx(1.0, abs=1e-4)
    assert fl.X[-1] == pytest.approx(2.0, abs=1e-4)


def test_step_w_matches_solver(sine_h2_fluid):
    fl = sine_h2_fluid
    iv = fl.ol_intervals()[0]
    i = iv.i0 + 100
    t, w = fl.grid[i], fl.w[i]
    h = fl.grid[i + 1] - t
    step = _rk4_step(_Ctx(fl.spec).ol_rhs, t, w, h)
    assert step == pytest.approx(fl.w[i + 1], abs=1e-10)


def test_l_inverse_roundtrip(sine_h2_fluid):
    iv = sine_h2_fluid.ol_intervals()[0]
    t, L = iv.l_grid()
    u = np.linspace(L[0], L[-1], 57)
    back = iv.l_inverse(u)
    assert np.all(np.diff(back) > 0.0)
    assert np.max(np.abs(np.interp(back, t, L) - u)) < 1e-9


def test_infeasible_staffing_raises():
    spec = ModelSpec(ConstantFn(3.0), LinearFn(1.0, -0.9), 1.0,
                     ExponentialPatience(0.5), 0.5, x0=1.0)
    with pytest.raises(StaffingInfeasibleError):
        solve_fluid(spec)


def test_critical_loading_raises():
    # exactly balanced on the boundary: neither regime can establish itself
    spec = ModelSpec(ConstantFn(1.0), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 2.0, x0=1.0)
    with pytest.raises(CriticalLoadingError):
        solve_fluid(spec)


def test_invalid_spec_rejected():
    spec = ModelSpec(ConstantFn(0.0), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 2.0)
    with pytest.raises(ValueError, match="invalid model"):
        solve_fluid(spec)


def test_csv_export(tmp_path, sine_h2_fluid):
    path = tmp_path / "fluid.csv"
    write_fluid_csv(sine_h2_fluid, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,regime,X,B,Q,w")
    assert len(lines) == len(sine_h2_fluid.grid) + 1
    regimes = [line.split(",")[1] for line in lines[1:]]
    assert set(regimes) == {"UL", "OL"}
    assert regimes.count("OL") == int(sine_h2_fluid.ol.sum())


class _VectorOnlyFn(SmoothFn):
    """A user-style SmoothFn with vector methods only."""

    def __init__(self, f):
        self.f = f

    def __call__(self, t):
        return self.f(t)

    def deriv(self, t):
        return self.f.deriv(t)


class _VectorOnlyPatience(PatienceDist):
    """A user-style PatienceDist with vector methods only."""

    def __init__(self, d):
        self.d = d

    def cdf(self, x):
        return self.d.cdf(x)

    def pdf(self, x):
        return self.d.pdf(x)


def test_scalar_fallback_matches_fast_path():
    # piecewise-quadratic rate into and out of overload, tabulated patience
    lam = PiecewisePolyFn(
        knots=(0.0, 3.0, 6.0, 9.0, 12.0),
        coeffs=((0.5, 0.2, 0.05), (1.55, 0.0, -0.05), (1.10, -0.15, 0.0),
                (0.65, 0.1, 0.03)),
    )
    xs = np.linspace(0.0, 10.0, 21)
    patience = TabulatedPatience(xs, 1.0 - (1.0 + 0.1 * xs) * np.exp(-0.5 * xs))
    fast = ModelSpec(lam, ConstantFn(1.0), 1.0, patience, 12.0)
    slow = ModelSpec(_VectorOnlyFn(lam), _VectorOnlyFn(ConstantFn(1.0)), 1.0,
                     _VectorOnlyPatience(patience), 12.0)
    a = solve_fluid(fast, step=0.01)
    b = solve_fluid(slow, step=0.01)
    assert len(a.switch_times) == 3
    np.testing.assert_allclose(b.switch_times, a.switch_times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.w, a.w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.X, a.X, rtol=0, atol=1e-12)
