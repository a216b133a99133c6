import numpy as np
import pytest
from scipy.optimize import brentq

from tvqueue import fluid
from tvqueue.fluid import (
    BoundaryDensityError,
    CriticalLoadingError,
    StaffingInfeasibleError,
    _bisect,
    _Ctx,
    _dp5,
    _step_tolerance,
    age_integrals,
    solve_fluid,
    write_fluid_csv,
)
from tvqueue.functions import ConstantFn, LinearFn, PiecewisePolyFn, SinusoidFn, SmoothFn
from tvqueue.gaussian import IntervalKernels
from tvqueue.model import ModelSpec
from tvqueue.patience import (
    ExponentialPatience,
    H2Patience,
    PatienceDist,
    TabulatedPatience,
    h2_from_scv,
)

from oracles import age_integrals_reference, dop853_switch_times, fluid_reference, ul_content

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
    assert fl.switch_times[0] == pytest.approx(np.log(3.0), abs=1e-13)


def test_sine_onset_time_closed_form(sine_h2_fluid):
    # lambda = 1 + 0.6 sin t, mu = 1 from empty:
    # X(t) = 1 - e^{-t} + 0.3 (sin t - cos t + e^{-t}) first reaches s = 1
    def gap(t):
        return 0.3 * (np.sin(t) - np.cos(t) + np.exp(-t)) - np.exp(-t)

    onset = brentq(gap, 1.0, 1.5, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert sine_h2_fluid.switch_times[0] == pytest.approx(onset, abs=1e-13)


def test_hwt_ode_residual(sine_h2_fluid):
    # stored wdot agrees with a centered finite difference of w
    fl = sine_h2_fluid
    h = fl.grid[1] - fl.grid[0]
    for iv in [v for v in fl.intervals if v.kind == "OL"]:
        # centered stencil only: one-sided edges would add O(h) noise
        i = np.arange(iv.i0 + 5, iv.i1 - 5)
        fd = (fl.w[i + 1] - fl.w[i - 1]) / (2.0 * h)
        assert np.max(np.abs(fd - fl.wdot[i])) < 1e-5


def test_pwt_fixed_point(sine_h2_fluid):
    # v solves v(t) = w(t + v(t)) inside OL intervals
    fl = sine_h2_fluid
    for iv in [v for v in fl.intervals if v.kind == "OL"]:
        sl = slice(iv.i0, iv.i1 + 1)
        ts = fl.grid[sl]
        vs = fl.v[sl]
        resid = vs - np.interp(ts + vs, fl.grid, fl.w)
        # skip the last stretch: t + v lands on the kink of w at the switch
        keep = (ts + vs <= fl.grid[-1]) & (ts < iv.end - 0.01)
        assert np.max(np.abs(resid[keep])) < 1e-4


@pytest.mark.parametrize("name", ["sine_h2_fluid", "stationary_ol_fluid"])
def test_local_grid_invariants(request, name):
    # every interval's local grid runs from its start to its end without
    # near-duplicate times and holds the global grid points it covers; an
    # OL grid at the horizon then runs on through its continuation
    fl = request.getfixturevalue(name)
    for iv in fl.intervals:
        t = iv.t_loc
        inside = t[t <= iv.end]
        assert t[0] == iv.start and abs(inside[-1] - iv.end) <= 1e-9
        assert np.array_equal(t[len(inside):], iv.ext_t)
        assert np.all(np.diff(t) > 1e-9)
        assert np.max(np.abs(t[iv.idx] - fl.grid[iv.i0 : iv.i1 + 1]), initial=0.0) <= 1e-9
        assert len(iv.y_loc) == len(t)
        if iv.kind == "OL":
            assert len(iv.ydot_loc) == len(iv.qw_loc) == len(iv.b0_loc) == len(t)
            # built whole by the sweep: the age integrals and exit times
            # up to the interval's end
            assert len(iv.Q_loc) == len(iv.alpha_loc) == len(iv.Q2_loc) == iv.n_in
            assert len(iv.u_loc) == iv.n_in
        else:
            # no pass derives the UL state; nothing reads its derivative
            assert iv.ydot_loc is None
    # the first sine/H2 interval starts on grid point 0, which is merged
    # into the start anchor
    if name == "sine_h2_fluid":
        first = fl.intervals[0]
        assert first.kind == "UL" and first.idx[0] == 0
        assert len(first.t_loc) == first.i1 - first.i0 + 2


def _fast_service_spec():
    """lambda = 20 (1 + 0.6 sin t), s = 1, mu = 20, H2 patience (mean 2,
    scv 4): the sine/H2 model with service 20 times faster."""
    return ModelSpec(SinusoidFn(20.0, 12.0), ConstantFn(1.0), 20.0, h2_from_scv(2.0, 4.0), 16.0)


def _fast_phase_spec():
    """A drawn model whose H2 patience has a phase of rate 87.45: ungraded
    age panels left its flow balance 1.07e-4 off at T, at every step."""
    return ModelSpec(ConstantFn(2.4302), SinusoidFn(1.0, 0.2057, 0.9497, 0.4054), 1.0,
                     H2Patience(0.8092, 0.1320, 87.45), 6.023, x0=0.2678)


@pytest.mark.parametrize("model", ["stationary", "sine_h2", "piecewise_tab", "sine_staffed",
                                   "fast_service", "fast_phase"])
def test_flow_conservation(request, model):
    # X and B as solve_fluid assembles them from the intervals, through D;
    # the flows' quadrature error grows with mu times the grid step
    special = {"fast_service": (_fast_service_spec, 1e-7), "fast_phase": (_fast_phase_spec, 1e-8)}
    make, bound = special.get(model, (lambda: _bench_spec(request, model), 1e-10))
    fl = solve_fluid(make())
    resid = fl.X - (fl.spec.x0 + fl.Lam - fl.D - fl.A)
    assert np.max(np.abs(resid)) < bound


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
    # one Dormand-Prince step from a grid point to the next lands on the
    # interpolated solution there
    fl = sine_h2_fluid
    iv = [v for v in fl.intervals if v.kind == "OL"][0]
    i = iv.i0 + 100
    t, w = fl.grid[i], fl.w[i]
    ctx = _Ctx(fl.spec, 1e-3)
    step = _dp5(ctx.b0, ctx.ol_stage, t, fl.grid[i + 1], w, ctx.ol_stage(t, w, ctx.b0(t)))[0]
    assert step == pytest.approx(fl.w[i + 1], abs=1e-10)


def test_l_inverse_roundtrip(sine_h2_fluid):
    # L^{-1} inverts L(t) = t - w(t) on the path, not on its linear
    # interpolant between local points
    iv = [v for v in sine_h2_fluid.intervals if v.kind == "OL"][0]
    L = iv.t_loc - iv.y_loc
    u = np.linspace(L[0], L[-1], 57)
    back = iv.l_inverse(u)
    assert np.all(np.diff(back) > 0.0)
    assert np.max(np.abs(back - iv.path(back) - u)) <= 1e-12


def test_continuation_reaches_the_horizon(request):
    # the last OL interval's local grid runs on until L(t) = t - w(t)
    # covers the interval, so L^{-1} is defined up to the horizon
    for name in ("sine_h2_fluid", "stationary_ol_fluid"):
        iv = [v for v in request.getfixturevalue(name).intervals if v.kind == "OL"][-1]
        assert len(iv.ext_t) > 0
        assert iv.t_loc[-1] - iv.y_loc[-1] >= iv.end
        assert np.all(np.diff(iv.t_loc - iv.y_loc) > 0.0)


def test_continuation_checks_staffing():
    # b(t,0) = 0.945 - 0.055 t stays positive on [0, 16] and vanishes at
    # t = 0.945 / 0.055 = 17.1818..., inside the continuation, which is
    # checked like the rest of the interval
    spec = ModelSpec(ConstantFn(1.5), LinearFn(1.0, -0.055), 1.0,
                     ExponentialPatience(0.5), 16.0, x0=1.0)
    with pytest.raises(StaffingInfeasibleError, match=r"t=17\.181818$"):
        solve_fluid(spec)


def test_infeasible_staffing_raises():
    # b(t,0) = 0.1 - 0.9 t turns negative at t = 1/9: the steps whose
    # stages reach it are rejected and halved until they stop there
    spec = ModelSpec(ConstantFn(3.0), LinearFn(1.0, -0.9), 1.0,
                     ExponentialPatience(0.5), 0.5, x0=1.0)
    with pytest.raises(StaffingInfeasibleError, match=r"t=0\.111111$"):
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

    def breakpoints(self):
        return self.f.breakpoints()


class _VectorOnlyPatience(PatienceDist):
    """A user-style PatienceDist with vector methods only."""

    def __init__(self, d):
        self.d = d

    def cdf(self, x):
        return self.d.cdf(x)

    def pdf(self, x):
        return self.d.pdf(x)

    def breakpoints(self):
        return self.d.breakpoints()


def test_rate_that_cannot_be_stepped_raises():
    # a user rate whose scalar method returns NaN on (1.2, 1.3): every
    # step into it is rejected, down to float resolution, and the sweep
    # raises rather than loop or write NaN
    class Holed(SmoothFn):
        def __call__(self, t):
            return SinusoidFn(0.5, 0.3)(t)

        def deriv(self, t):
            return SinusoidFn(0.5, 0.3).deriv(t)

        def scalar(self, t):
            return float("nan") if 1.2 < t < 1.3 else SinusoidFn(0.5, 0.3).scalar(t)

    spec = ModelSpec(Holed(), ConstantFn(1.0), 1.0, ExponentialPatience(1.0), 4.0)
    with pytest.raises(ValueError, match=r"UL sweep cannot meet its step tolerance at t=1\.200000"):
        solve_fluid(spec)


def _piecewise_tab_spec():
    """Piecewise-quadratic rate into and out of overload, tabulated
    patience Fc(x) = (1 + 0.1 x) exp(-x / 2) on x = 0, 0.5, ..., 10."""
    lam = PiecewisePolyFn(
        knots=(0.0, 3.0, 6.0, 9.0, 12.0),
        coeffs=((0.5, 0.2, 0.05), (1.55, 0.0, -0.05), (1.10, -0.15, 0.0),
                (0.65, 0.1, 0.03)),
    )
    xs = np.linspace(0.0, 10.0, 21)
    patience = TabulatedPatience(xs, 1.0 - (1.0 + 0.1 * xs) * np.exp(-0.5 * xs))
    return ModelSpec(lam, ConstantFn(1.0), 1.0, patience, 12.0)


def test_scalar_fallback_matches_fast_path():
    fast = _piecewise_tab_spec()
    lam, patience = fast.arrival_rate, fast.patience
    slow = ModelSpec(_VectorOnlyFn(lam), _VectorOnlyFn(ConstantFn(1.0)), 1.0,
                     _VectorOnlyPatience(patience), 12.0)
    a = solve_fluid(fast, step=0.01)
    b = solve_fluid(slow, step=0.01)
    assert len(a.switch_times) == 3
    np.testing.assert_allclose(b.switch_times, a.switch_times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.w, a.w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.X, a.X, rtol=0, atol=1e-12)


def test_age_integrals_rows_independent_of_blocks(sine_h2_spec):
    # rows are reduced in blocks of one 16-node panel each: the rows around
    # each block edge, taken alone, give the values of the whole
    # 5000-point call
    t = np.linspace(2.0, 16.0, 5000)
    w = 0.5 + 0.4 * np.sin(t)
    rate, pat = sine_h2_spec.arrival_rate, sine_h2_spec.patience
    whole = age_integrals(rate, pat, t, w)
    rows_per_block = fluid._BLOCK_NODES // 16
    for edge in (rows_per_block, 2 * rows_per_block):
        rows = slice(edge - 3, edge + 3)
        alone = age_integrals(rate, pat, t[rows], w[rows])
        for got, ref in zip(alone, whole):
            assert np.array_equal(got, ref[rows])


def test_age_integrals_same_at_any_row_block(monkeypatch, sine_h2_spec):
    # rows are independent, so the block size does not change a bit:
    # 3 blocks of 2064 rows against 17 of 300
    t = np.linspace(2.0, 16.0, 5000)
    w = 0.5 + 0.4 * np.sin(t)
    rate, pat = sine_h2_spec.arrival_rate, sine_h2_spec.patience
    large = age_integrals(rate, pat, t, w)
    monkeypatch.setattr(fluid, "_BLOCK_NODES", 16 * 300)
    for got, ref in zip(age_integrals(rate, pat, t, w), large):
        assert np.array_equal(got, ref)


def test_gauss_legendre_nodes_are_leggauss_16():
    x, wts = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(fluid._GL_POS, x[8:]) and np.array_equal(fluid._GL_POS_W, wts[8:])
    np.testing.assert_allclose(fluid._GL_X, 0.5 + 0.5 * x, rtol=0, atol=1e-16)
    np.testing.assert_allclose(fluid._GL_W, 0.5 * wts, rtol=0, atol=1e-17)


# --- the Gauss-Legendre panels against adaptive quadrature ---------------

# quad converges to epsrel 1e-13 at the kinks it is given; the panels are
# exact there to a few ulp
_AGE_RTOL = 1e-13


def _bench_spec(request, model):
    """The spec of one of the four bench models."""
    return {
        "stationary": lambda: request.getfixturevalue("stationary_ol_spec"),
        "sine_h2": lambda: request.getfixturevalue("sine_h2_spec"),
        "piecewise_tab": _piecewise_tab_spec,
        "sine_staffed": lambda: _staffed_spec(request.getfixturevalue("sine_h2_spec")),
    }[model]()


def _long_wait_spec():
    """lambda = 1.5 + 0.3 sin 3t, exponential patience rate 0.1, from s:
    the waiting time climbs to 3.88 by T = 30, over 1.8 periods of lambda."""
    return ModelSpec(SinusoidFn(1.5, 0.3, 3.0), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.1), 30.0, x0=1.0)


@pytest.mark.parametrize("model", ["stationary", "sine_h2", "piecewise_tab", "sine_staffed",
                                   "long_wait"])
def test_age_integrals_match_quad_reference(request, model):
    # Q, alpha and Q2 on every OL local grid (every 11th point and the
    # last), against scipy quad with the kinks as break points
    spec = _long_wait_spec() if model == "long_wait" else _bench_spec(request, model)
    ols = [v for v in solve_fluid(spec).intervals if v.kind == "OL"]
    assert ols
    for iv in ols:
        t, w = (np.append(a[: iv.n_in - 1 : 11], a[iv.n_in - 1]) for a in (iv.t_loc, iv.y_loc))
        got = age_integrals(spec.arrival_rate, spec.patience, t, w)
        ref = age_integrals_reference(spec.arrival_rate, spec.patience, t, w)
        for name, a, b in zip(("Q", "alpha", "Q2"), got, ref):
            assert np.all(b >= 0.0) and np.any(b > 0.0), name
            assert np.all(np.abs(a - b) <= _AGE_RTOL * b), name


def _match_quad_reference(pat, w_lo, w_hi):
    rate = SinusoidFn(1.5, 0.3, 3.0)
    t = np.linspace(40.0, 41.0, 9)
    w = np.linspace(w_lo, w_hi, 9)
    got = age_integrals(rate, pat, t, w)
    for name, a, b in zip(("Q", "alpha", "Q2"), got, age_integrals_reference(rate, pat, t, w)):
        assert np.all(np.abs(a - b) <= _AGE_RTOL * b), name


def test_age_integrals_of_long_waits_match_quad_reference():
    # waits of 4 to 20 time units span up to 10 periods of lambda: one
    # 16-node panel over [0, 16] is off by 4e-4, Simpson-129 by 8e-7
    _match_quad_reference(ExponentialPatience(0.02), 4.0, 20.0)


@pytest.mark.parametrize("pat", [
    ExponentialPatience(87.45), ExponentialPatience(1000.0), H2Patience(0.8, 0.13, 300.0),
    TabulatedPatience([0.0, 0.001], [0.0, 0.4])],
    ids=["exp_87", "exp_1000", "h2_300", "tabulated_tail_667"])
def test_age_integrals_of_fast_phases_match_quad_reference(pat):
    # a fast phase decays inside one age panel unless the panels are
    # graded toward its start: ungraded, Q2 was 1.7e-2 off for rate 87.45,
    # Q and alpha 0.93 off for rate 1000, alpha 1.1e-1 off for the H2, and
    # alpha 0.44 off for a tabulated law whose tail has rate 667
    _match_quad_reference(pat, 0.3, 2.5)


# --- the sweep against an independent DOP853 reference -----------------

def _staffed_spec(sine_h2_spec):
    # s = 1 + 0.3 sin(t - 0.5): a b(t,0) that moves with t
    return ModelSpec(**dict(vars(sine_h2_spec), staffing=SinusoidFn(1.0, 0.3, 1.0, -0.5)))


# w, X and Q against DOP853 at rtol 1e-13: both solutions carry a global
# error of a few times their local tolerance (1e-13 and 1e-14) over the
# horizon, so 1e-11 leaves room for both and catches an error like the
# 6.7e-9 of fixed RK4 steps over the piecewise/tabulated model's kinks
_REF_ATOL = 1e-11


@pytest.mark.parametrize("model", ["stationary", "sine_h2", "piecewise_tab", "sine_staffed"])
def test_fluid_matches_dop853_reference(request, model):
    fl = solve_fluid(_bench_spec(request, model))
    idx, w, X, Q, v = fluid_reference(fl)
    for name, ref in (("w", w), ("X", X), ("Q", Q), ("v", v)):
        assert np.max(np.abs(getattr(fl, name)[idx] - ref)) <= _REF_ATOL, name
    # the continuation past the horizon is checked too
    assert fl.intervals[-1].kind == "UL" or len(fl.intervals[-1].ext_t) > 0
    if model == "sine_h2":
        assert [iv.kind for iv in fl.intervals].count("OL") == 3


@pytest.mark.parametrize("model", ["stationary", "sine_h2", "piecewise_tab", "sine_staffed"])
def test_kernels_read_the_intervals_boundary_values(request, model):
    # IntervalKernels.build takes w, wdot, the boundary density and b(t,0)
    # from the interval, the values of the array pass that gave wdot;
    # they, and the kernels, equal the formulas evaluated afresh
    spec = _bench_spec(request, model)
    for iv in [v for v in solve_fluid(spec).intervals if v.kind == "OL"]:
        k = IntervalKernels.build(iv, spec)
        t, w = iv.t_loc, iv.y_loc
        Fc = np.asarray(spec.patience.survival(w), dtype=float)
        f = np.asarray(spec.patience.pdf(w), dtype=float)
        b0 = (np.asarray(spec.staffing(t), dtype=float) * spec.mu
              + np.asarray(spec.staffing.deriv(t), dtype=float))
        assert np.array_equal(iv.qw_loc, np.asarray(spec.arrival_rate(t - w), dtype=float) * Fc)
        assert np.array_equal(iv.b0_loc, b0)
        assert np.array_equal(k.hFw, f / Fc)
        assert np.array_equal(k.I1, spec.c_lambda * np.sqrt(Fc * b0) / iv.qw_loc)


@pytest.mark.parametrize("model", ["stationary", "sine_h2", "piecewise_tab", "sine_staffed"])
def test_path_pieces_join_at_their_knots(request, model):
    # every accepted step's quartic, in u = t - (its start), reaches the
    # next step's start state at its right knot, continuation included:
    # the theta -> u conversion of the interpolant's coefficients
    for iv in solve_fluid(_bench_spec(request, model)).intervals:
        p = iv.path
        assert len(p.coeffs) == iv.steps
        ends = np.polynomial.polynomial.polyval(np.diff(p.knots)[:-1], p.coeffs[:-1].T,
                                                tensor=False)
        starts = p.coeffs[1:, 0]
        assert np.all(np.abs(ends - starts) <= 1e-14 * (1.0 + np.abs(starts)))


@pytest.mark.parametrize("model", ["stationary", "sine_h2", "piecewise_tab", "sine_staffed"])
def test_path_stores_its_coefficients_once(request, model):
    # the piece-major coeffs are a view of the power-major columns that
    # the evaluation reads, not a second copy of every step
    for iv in solve_fluid(_bench_spec(request, model)).intervals:
        assert np.shares_memory(iv.path.coeffs, iv.path._columns[0])


@pytest.mark.parametrize("model", ["stationary", "sine_h2", "piecewise_tab", "sine_staffed"])
def test_path_gives_the_grid_values(request, model):
    # the grid columns are the path's values, X in UL and w in OL
    fl = solve_fluid(_bench_spec(request, model))
    for iv in fl.intervals:
        sl = slice(iv.i0, iv.i1 + 1)
        assert np.array_equal(iv.path(fl.grid[sl]), (fl.X if iv.kind == "UL" else fl.w)[sl])


def test_w_error_falls_with_the_grid_step(sine_h2_spec):
    # the step tolerance 1e-2 step^4 makes w converge with the grid step:
    # each halving cuts its error against the reference at least as fast
    # as second order (criterion 7's bar), which a fixed tolerance does not
    errs = []
    for step in (6.4e-2, 3.2e-2, 1.6e-2):
        fl = solve_fluid(sine_h2_spec, step)
        idx, w, *_ = fluid_reference(fl, stride=1)
        errs.append(np.max(np.abs(fl.w[idx] - w)))
    assert errs[0] / errs[1] >= 2 ** 1.9 and errs[1] / errs[2] >= 2 ** 1.9


def test_step_tolerance_follows_the_grid_step():
    assert _step_tolerance(1e-3) == pytest.approx(1e-14, rel=1e-12)
    assert _step_tolerance(3.2e-2) == pytest.approx(1e-2 * 3.2e-2 ** 4, rel=1e-12)
    assert _step_tolerance(1e-4) == fluid._TOL_FLOOR
    assert _step_tolerance(0.5) == fluid._TOL_CAP


@pytest.mark.parametrize("model", ["sine_h2", "sine_staffed", "piecewise_tab"])
def test_switch_times_match_dop853_reference(request, model):
    # every switch against scipy's DOP853 and brentq from the program's
    # interval start; the piecewise/tabulated reference steps over the
    # kinks of lambda(t - w) and of the tabulated Fc in OL, which its
    # step control meets less tightly: bound 1e-11 there, 1e-12 elsewhere
    count, bound = {"piecewise_tab": (3, 1e-11)}.get(model, (5, 1e-12))
    fl = solve_fluid(_bench_spec(request, model))
    ref = dop853_switch_times(fl)
    assert len(ref) == count
    assert np.max(np.abs(fl.switch_times - ref)) <= bound


# --- evaluations per step ----------------------------------------------

class _CountingFn(SmoothFn):
    """Delegates to f and counts the scalar value and derivative calls."""

    def __init__(self, f):
        self.f = f
        self.calls = {"scalar": 0, "scalar_deriv": 0}

    def __call__(self, t):
        return self.f(t)

    def deriv(self, t):
        return self.f.deriv(t)

    def scalar(self, t):
        self.calls["scalar"] += 1
        return self.f.scalar(t)

    def scalar_deriv(self, t):
        self.calls["scalar_deriv"] += 1
        return self.f.scalar_deriv(t)


def test_ul_step_makes_five_rate_calls():
    # never overloaded: one lambda call for the first derivative, then
    # one at each of a step's five nodes past its start, rejected steps
    # included; the end value serves k6 and the next step's k1
    lam = _CountingFn(SinusoidFn(0.5, 0.3))
    spec = ModelSpec(lam, ConstantFn(1.0), 1.0, ExponentialPatience(1.0), 4.0)
    fl = solve_fluid(spec)
    iv, = fl.intervals
    assert iv.kind == "UL"
    assert lam.calls["scalar"] == 5 * (iv.steps + iv.rejected) + 1
    assert iv.steps < (len(fl.grid) - 1) / 5


def test_ol_step_makes_five_staffing_calls():
    # overloaded throughout, so the sweep ends in the continuation past
    # the horizon: s(0) in validate, s(0) and b(0,0) to choose the regime,
    # b(0,0) for the first wdot, then b(t,0) at each of a step's five
    # nodes past its start, in the grid sweep and the continuation alike
    s = _CountingFn(SinusoidFn(1.0, 0.3, 1.0, -0.5))
    spec = ModelSpec(ConstantFn(2.0), s, 1.0, ExponentialPatience(0.5), 4.0,
                     x0=float(s(0.0)))
    fl = solve_fluid(spec)
    iv, = fl.intervals
    assert iv.kind == "OL" and len(iv.ext_t) > 0
    tried = iv.steps + iv.rejected
    assert s.calls == {"scalar": 5 * tried + 4, "scalar_deriv": 5 * tried + 2}


def test_stationary_overload_takes_few_steps(stationary_ol_fluid):
    # constant overload on [0, 30]: the adaptive steps grow as w settles,
    # far fewer than the 30000 steps of the grid
    iv, = stationary_ol_fluid.intervals
    assert iv.steps < 1000
    assert iv.rejected < iv.steps


def test_age_integrals_make_one_patience_call_per_block(sine_h2_spec):
    calls = []

    class Patience(H2Patience):
        def survival(self, x):
            calls.append("survival")
            return super().survival(x)

        def pdf(self, x):
            calls.append("pdf")
            return super().pdf(x)

        def survival_pdf(self, x):
            calls.append("survival_pdf")
            return super().survival_pdf(x)

    pat = Patience(**vars(sine_h2_spec.patience))
    t = np.linspace(2.0, 16.0, 5000)
    w = 0.5 + 0.4 * np.sin(t)
    got = age_integrals(sine_h2_spec.arrival_rate, pat, t, w)
    # no breakpoints: one 16-node panel per row
    blocks = -(-len(t) // (fluid._BLOCK_NODES // 16))
    assert calls == ["survival_pdf"] * blocks and blocks > 1
    ref = age_integrals(sine_h2_spec.arrival_rate, sine_h2_spec.patience, t, w)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_age_integral_blocks_stay_within_the_node_budget():
    # rows with kinks in their ages take more panels, so their blocks
    # hold fewer rows: no patience call sees more than _BLOCK_NODES ages
    spec = _piecewise_tab_spec()
    shapes = []

    class Recording(_VectorOnlyPatience):
        def survival_pdf(self, x):
            shapes.append(x.shape)
            return self.d.survival_pdf(x)

    iv = [v for v in solve_fluid(spec).intervals if v.kind == "OL"][0]
    t, w = iv.t_loc[: iv.n_in], iv.y_loc[: iv.n_in]
    got = age_integrals(spec.arrival_rate, Recording(spec.patience), t, w)
    assert sum(rows for rows, _ in shapes) == len(t)
    assert all(rows * nodes <= fluid._BLOCK_NODES for rows, nodes in shapes)
    assert max(nodes for _, nodes in shapes) > 16
    ref = age_integrals(spec.arrival_rate, spec.patience, t, w)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


# --- the checks of the OL state inside the sweep ------------------------

def _vanishing_rate_spec():
    # lambda = 2 until t = 3, then 1e-13: once t - w(t) passes 3 the
    # boundary density lambda(t - w) Fc(w) falls below its floor; w rises
    # from 0 towards ln 2, where 2 Fc(w) = b(t,0) = 1
    lam = PiecewisePolyFn(knots=(0.0, 3.0, 10.0), coeffs=((2.0,), (1e-13,)))
    return ModelSpec(lam, ConstantFn(1.0), 1.0, ExponentialPatience(1.0), 6.0, x0=1.0)


def test_vanishing_boundary_density_raises_in_the_sweep(monkeypatch):
    entered = []
    extend = fluid._extend_ol
    monkeypatch.setattr(fluid, "_extend_ol",
                        lambda *args: entered.append(True) or extend(*args))
    with pytest.raises(BoundaryDensityError, match=r"t=3\.6") as exc:
        solve_fluid(_vanishing_rate_spec())
    # raised by a stage of the steps over the horizon, not at the
    # interval start nor in the continuation
    assert "_march" in [entry.name for entry in exc.traceback]
    assert not entered
    t = float(str(exc.value).rsplit("t=", 1)[1])
    assert 3.6 < t < 3.0 + np.log(2.0)
    # w = ln 2 - ln(1 + e^-t) from w(0) = 0: rejected steps close in on
    # the time where t - w(t) passes 3
    exit_time = brentq(lambda u: u - np.log(2.0) + np.log1p(np.exp(-u)) - 3.0, 3.0, 4.0,
                       xtol=1e-14)
    assert abs(t - exit_time) <= 1e-6


def test_short_overload_at_coarse_step_holds_a_grid_point():
    # lambda = 0.65 + 0.5 sin t overloads on about [2.05, 2.60]; at step
    # 0.5 its OL interval holds the one grid point t = 2.5.  With patience
    # of rate 50, w returns to zero at t = 2.39, before t = 2.5, and the
    # sweep raises rather than leave an OL interval without a grid point
    spec = ModelSpec(SinusoidFn(0.65, 0.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 8.0, x0=0.5)
    fl = solve_fluid(spec, step=0.5)
    iv, = [v for v in fl.intervals if v.kind == "OL"]
    assert iv.i0 == iv.i1 == 5 and np.flatnonzero(fl.ol).tolist() == [5]
    assert fl.X[5] == 1.0 + fl.Q[5] and fl.Q[5] > 0.0
    assert np.allclose(fl.switch_times, solve_fluid(spec).switch_times, atol=1e-2)
    fast = ModelSpec(**dict(vars(spec), patience=ExponentialPatience(50.0)))
    with pytest.raises(ValueError, match=r"grid step 0\.5 too coarse: the overload on \[2\.05"):
        solve_fluid(fast, step=0.5)


def test_overload_between_grid_points_is_not_dropped():
    # at step 1 the overload on [2.050, 2.606] holds no grid point; the
    # steps end inside it, so it is found, and the sweep raises naming
    # the grid step instead of returning no OL interval
    spec = ModelSpec(SinusoidFn(0.65, 0.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 8.0, x0=0.5)
    fine = solve_fluid(spec).switch_times
    assert len(fine) == 2 and 2.05 < fine[0] < fine[1] < 2.61
    with pytest.raises(ValueError, match=r"grid step 1 too coarse: the overload on "
                                         r"\[2\.0501\d\d, 2\.6056\d\d\] holds no grid point"):
        solve_fluid(spec, step=1.0)


# --- the switch bisection and the continuation's reach ------------------

def test_bisection_stops_at_float_resolution():
    # halving [550000, 550001] reaches the float spacing (1.16e-10 here)
    # after 33 probes
    root = 550000.3
    calls = []

    def fun(t):
        calls.append(t)
        if len(calls) > 200:
            raise RuntimeError("the bisection does not stop")
        return t - root

    tau = _bisect(fun, 550000.0, 550001.0, -0.3)
    assert abs(tau - root) <= np.spacing(root)
    assert len(calls) < 40


def test_continuation_short_of_the_horizon_raises(monkeypatch):
    # lambda = 200 against s mu = 1 and patience of mean 1000: w grows
    # almost as fast as t, so L(t) = t - w(t) covers [0, T] only long
    # after T; a short continuation span stops before it does
    monkeypatch.setattr(fluid, "_EXT_SPAN", 1.0)
    spec = ModelSpec(ConstantFn(200.0), ConstantFn(1.0), 1.0, ExponentialPatience(1e-3), 2.0)
    with pytest.raises(ValueError, match=r"potential wait .* continued to t=3\.00"):
        solve_fluid(spec)
