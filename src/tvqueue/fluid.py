"""Deterministic fluid solution on [0, T].

The solver sweeps the horizon regime by regime.  In underloaded (UL)
stretches it integrates Xdot = lambda - mu*X; in overloaded (OL)
stretches it integrates the head-of-line waiting-time ODE

    wdot = 1 - (sdot + s*mu) / (lambda(t - w) * Fc(w))

with a classical fixed-step RK4 scheme, locating every regime switch by
bisection.  Queue content, abandonment and the potential waiting time are
reconstructed from w by quadrature and monotone inversion of
L(t) = t - w(t).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson

from .model import ModelSpec, validate

__all__ = [
    "FluidSolution",
    "FluidInterval",
    "StaffingInfeasibleError",
    "CriticalLoadingError",
    "BoundaryDensityError",
    "solve_fluid",
    "ul_content",
    "step_w",
    "solve_v",
    "queue_density",
    "service_density",
    "abandonment",
    "write_fluid_csv",
]

UL, OL = "UL", "OL"

_SWITCH_TOL = 1e-10       # bisection tolerance for switching times
_QTILDE_FLOOR = 1e-12     # minimum admissible boundary density
_QUAD_NODES = 129         # Simpson nodes for queue-content integrals (odd)


class StaffingInfeasibleError(RuntimeError):
    pass


class CriticalLoadingError(RuntimeError):
    pass


class BoundaryDensityError(RuntimeError):
    pass


@dataclass
class FluidInterval:
    kind: str
    start: float
    end: float
    i0: int                     # first global grid index with t >= start
    i1: int                     # last global grid index with t <= end
    # OL only: local times (start anchor, interior grid points, end anchor)
    t_loc: np.ndarray | None = None
    w_loc: np.ndarray | None = None
    wdot_loc: np.ndarray | None = None
    # OL only: continuation past the horizon, used for the inverse of L
    ext_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    ext_w: np.ndarray = field(default_factory=lambda: np.empty(0))

    def l_grid(self):
        """(times, L(times)) over the interval plus any extension."""
        t = np.concatenate([self.t_loc, self.ext_t])
        w = np.concatenate([self.w_loc, self.ext_w])
        return t, t - w

    def l_inverse(self, u):
        """Monotone inverse of L(t) = t - w(t) by linear interpolation."""
        t, L = self.l_grid()
        return np.interp(u, L, t)


@dataclass
class FluidSolution:
    spec: ModelSpec
    delta: float
    grid: np.ndarray
    regime: np.ndarray          # "UL"/"OL" per grid point
    intervals: list
    switch_times: np.ndarray
    X: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    w: np.ndarray
    wdot: np.ndarray
    v: np.ndarray
    b0: np.ndarray              # rate into service s*mu + sdot (nan in UL)
    qtilde_w: np.ndarray        # lambda(t-w) Fc(w) (nan in UL)
    qtilde_x_w: np.ndarray      # d/dx qtilde at (t, w) (nan in UL)
    alpha: np.ndarray
    A: np.ndarray
    D: np.ndarray
    Lam: np.ndarray

    def ol_intervals(self):
        return [iv for iv in self.intervals if iv.kind == OL]

    def interval_at(self, t):
        for iv in self.intervals:
            if iv.start - 1e-12 <= t <= iv.end + 1e-12:
                return iv
        raise ValueError(f"time {t} outside the solved horizon")

    def w_at(self, t):
        return np.interp(t, self.grid, self.w)


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(f, t0, y0, t1, substeps=8):
    """RK4 from (t0, y0) to t1 in a fixed number of substeps."""
    if t1 == t0:
        return y0
    h = (t1 - t0) / substeps
    y = y0
    t = t0
    for _ in range(substeps):
        y = _rk4_step(f, t, y, h)
        t += h
    return y


def _bisect(fun, a, b, fa, fb, tol=_SWITCH_TOL):
    """Root of a continuous sign-changing function on [a, b]."""
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = fun(m)
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


class _Ctx:
    """Scalar evaluators bound to one spec."""

    def __init__(self, spec: ModelSpec):
        self.mu = spec.mu
        self.lam = spec.arrival_rate.scalar
        self.s = spec.staffing.scalar
        self.s_d = spec.staffing.scalar_deriv
        self.fc = spec.patience.survival_scalar

    def b0(self, t):
        return self.s(t) * self.mu + self.s_d(t)

    def ul_rhs(self, t, x):
        return self.lam(t) - self.mu * x

    def ol_rhs(self, t, w):
        q = self.lam(t - w) * self.fc(w)
        if q < _QTILDE_FLOOR:
            raise BoundaryDensityError(
                f"queue boundary density vanished at t={t:.6f}"
            )
        return 1.0 - self.b0(t) / q


def step_w(spec: ModelSpec, t: float, w: float, delta: float) -> float:
    """One RK4 step of the head-of-line waiting-time ODE."""
    return _rk4_step(_Ctx(spec).ol_rhs, t, w, delta)


def ul_content(spec: ModelSpec, t: float, x0: float, interval_start: float = 0.0) -> float:
    """X(t) in a UL interval by quadrature of the linear-ODE solution.

    Independent of the RK4 sweep: uses Gauss-Legendre on the convolution
    integral, with time measured from interval_start.
    """
    mu = spec.mu
    tau = t - interval_start
    if tau < 0:
        raise ValueError("t precedes the interval start")
    if tau == 0:
        return x0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    u = interval_start + 0.5 * tau * (nodes + 1.0)
    integrand = np.exp(-mu * (t - u)) * np.asarray(spec.arrival_rate(u), dtype=float)
    return float(x0 * np.exp(-mu * tau) + 0.5 * tau * np.dot(weights, integrand))


def solve_fluid(spec: ModelSpec, step: float = 1e-3) -> FluidSolution:
    """Solve the fluid model on a uniform grid of step `step`."""
    if step <= 0:
        raise ValueError("step must be positive")
    report = validate(spec)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")

    ctx = _Ctx(spec)
    T = spec.horizon
    n = int(round(T / step))
    grid = np.linspace(0.0, T, n + 1)

    X = np.zeros(n + 1)
    w = np.zeros(n + 1)
    wdot = np.zeros(n + 1)
    regime = np.empty(n + 1, dtype=object)
    intervals: list[FluidInterval] = []
    switches: list[float] = []

    s0 = ctx.s(0.0)
    if spec.x0 < s0 - 1e-12:
        kind = UL
    else:
        # start exactly on the boundary: loading direction decides
        kind = OL if ctx.lam(0.0) > ctx.b0(0.0) else UL

    t_cur = 0.0
    k = 0
    x_cur = spec.x0
    times = memoryview(grid)    # indexes to plain floats for the scalar sweep

    while k <= n:
        if kind == UL:
            t_cur, k, x_cur, iv = _sweep_ul(ctx, times, X, regime, t_cur, k, x_cur)
        else:
            t_cur, k, x_cur, iv = _sweep_ol(ctx, times, w, wdot, regime, t_cur, k)
        intervals.append(iv)
        if k > n:
            break
        switches.append(t_cur)
        kind = OL if kind == UL else UL

    qtilde_w = np.full(n + 1, np.nan)
    qtilde_x_w = np.full(n + 1, np.nan)
    b0 = np.full(n + 1, np.nan)
    Q = np.zeros(n + 1)
    alpha = np.zeros(n + 1)
    B = X.copy()

    lam_grid = np.asarray(spec.arrival_rate(grid), dtype=float)
    for iv in intervals:
        if iv.kind != OL or iv.i1 < iv.i0:
            continue
        sl = slice(iv.i0, iv.i1 + 1)
        ts = grid[sl]
        ws = w[sl]
        lam_tw = np.asarray(spec.arrival_rate(ts - ws), dtype=float)
        fc_w = np.asarray(spec.patience.survival(ws), dtype=float)
        qtilde_w[sl] = lam_tw * fc_w
        qtilde_x_w[sl] = (
            -np.asarray(spec.arrival_rate.deriv(ts - ws), dtype=float) * fc_w
            - lam_tw * np.asarray(spec.patience.pdf(ws), dtype=float)
        )
        svals = np.asarray(spec.staffing(ts), dtype=float)
        b0[sl] = svals * spec.mu + np.asarray(spec.staffing.deriv(ts), dtype=float)
        Q[sl] = _queue_integral(spec, ts, ws, weighted=False)
        alpha[sl] = _queue_integral(spec, ts, ws, weighted=True)
        X[sl] = svals + Q[sl]
        B[sl] = svals

    v = solve_v_arrays(intervals, grid)

    Lam = np.concatenate([[0.0], cumulative_trapezoid(lam_grid, grid)])
    D = np.concatenate([[0.0], cumulative_trapezoid(spec.mu * B, grid)])
    A = np.concatenate([[0.0], cumulative_trapezoid(alpha, grid)])

    return FluidSolution(
        spec=spec,
        delta=step,
        grid=grid,
        regime=regime,
        intervals=intervals,
        switch_times=np.asarray(switches),
        X=X,
        B=B,
        Q=Q,
        w=w,
        wdot=wdot,
        v=v,
        b0=b0,
        qtilde_w=qtilde_w,
        qtilde_x_w=qtilde_x_w,
        alpha=alpha,
        A=A,
        D=D,
        Lam=Lam,
    )


def _sweep_ul(ctx, grid, X, regime, start, k, x_start):
    """Integrate the UL content until a switch or the horizon."""
    n = len(grid) - 1
    i0 = k
    t_prev, x_prev = start, x_start
    if k <= n and abs(grid[k] - start) < 1e-14:
        X[k] = x_start
        regime[k] = UL
        t_prev = grid[k]
        k += 1
    while k <= n:
        x_new = _rk4_step(ctx.ul_rhs, t_prev, x_prev, grid[k] - t_prev)
        gap = x_new - ctx.s(grid[k])
        if gap >= 0.0:
            # crossed into overload inside (t_prev, grid[k]]
            def excess(tc):
                return _integrate(ctx.ul_rhs, t_prev, x_prev, tc) - ctx.s(tc)

            tau = _bisect(excess, t_prev, grid[k], x_prev - ctx.s(t_prev), gap)
            if ctx.lam(tau) - ctx.b0(tau) <= 1e-9:
                raise CriticalLoadingError(
                    f"non-isolated critical loading near t={tau:.6f}"
                )
            return tau, k, ctx.s(tau), FluidInterval(UL, start, tau, i0, k - 1)
        X[k] = x_new
        regime[k] = UL
        t_prev, x_prev = grid[k], x_new
        k += 1
    return grid[n], n + 1, x_prev, FluidInterval(UL, start, grid[n], i0, n)


def _sweep_ol(ctx, grid, w, wdot, regime, start, k):
    """Integrate the HWT ODE until w returns to zero or the horizon."""
    n = len(grid) - 1
    i0 = k
    loc_t = [start]
    loc_w = [0.0]
    loc_wd = [ctx.ol_rhs(start, 0.0)]
    _check_feasible(ctx, start, start)
    t_prev, w_prev = start, 0.0
    if k <= n and abs(grid[k] - start) < 1e-14:
        w[k] = 0.0
        wdot[k] = loc_wd[0]
        regime[k] = OL
        t_prev = grid[k]
        k += 1
    while k <= n:
        _check_feasible(ctx, grid[k], start)
        w_new = _rk4_step(ctx.ol_rhs, t_prev, w_prev, grid[k] - t_prev)
        if w_new <= 0.0:
            if w_prev <= 0.0:
                raise CriticalLoadingError(
                    f"non-isolated critical loading near t={t_prev:.6f}"
                )

            def wval(tc):
                return _integrate(ctx.ol_rhs, t_prev, w_prev, tc)

            tau = _bisect(wval, t_prev, grid[k], w_prev, w_new)
            if ctx.lam(tau) >= ctx.b0(tau) - 1e-9:
                raise CriticalLoadingError(
                    f"non-isolated critical loading near t={tau:.6f} "
                    "(waiting time grazed zero while still overloaded)"
                )
            loc_t.append(tau)
            loc_w.append(0.0)
            loc_wd.append(ctx.ol_rhs(tau, 0.0))
            iv = FluidInterval(OL, start, tau, i0, k - 1)
            _attach_local(iv, loc_t, loc_w, loc_wd)
            return tau, k, ctx.s(tau), iv
        w[k] = w_new
        wdot[k] = ctx.ol_rhs(grid[k], w_new)
        regime[k] = OL
        loc_t.append(grid[k])
        loc_w.append(w_new)
        loc_wd.append(wdot[k])
        t_prev, w_prev = grid[k], w_new
        k += 1
    iv = FluidInterval(OL, start, grid[n], i0, n)
    _attach_local(iv, loc_t, loc_w, loc_wd)
    _extend_ol(ctx, iv, grid[n], w_prev)
    return grid[n], n + 1, np.nan, iv


def _attach_local(iv, loc_t, loc_w, loc_wd):
    iv.t_loc = np.asarray(loc_t)
    iv.w_loc = np.asarray(loc_w)
    iv.wdot_loc = np.asarray(loc_wd)


def _check_feasible(ctx, t, start):
    if ctx.b0(t) <= 0.0:
        raise StaffingInfeasibleError(
            f"staffing infeasible in OL interval starting at {start:.6f}: "
            f"b(t,0) <= 0 at t={t:.6f}"
        )


def _extend_ol(ctx, iv, t_end, w_end):
    """Continue w past the horizon until L(t) covers the whole interval."""
    h = 1e-3
    t, wv = t_end, w_end
    ext_t, ext_w = [], []
    while t - wv < t_end and wv > 0.0 and t < t_end + 1000.0:
        wv = _rk4_step(ctx.ol_rhs, t, wv, h)
        t += h
        if wv <= 0.0:
            wv = 0.0
        ext_t.append(t)
        ext_w.append(wv)
    iv.ext_t = np.asarray(ext_t)
    iv.ext_w = np.asarray(ext_w)


def solve_v_arrays(intervals, grid):
    """Potential waiting time on the grid: v(t) = L^{-1}(t) - t in OL, 0 in UL."""
    v = np.zeros(len(grid))
    for iv in intervals:
        if iv.kind != OL or iv.i1 < iv.i0:
            continue
        sl = slice(iv.i0, iv.i1 + 1)
        v[sl] = iv.l_inverse(grid[sl]) - grid[sl]
    return v


def solve_v(solution: FluidSolution) -> np.ndarray:
    """Recompute the PWT grid from the stored intervals (public wrapper)."""
    return solve_v_arrays(solution.intervals, solution.grid)


def _queue_integral(spec, ts, ws, weighted):
    """Integral over [0, w(t)] of lambda(t-x) Fc(x) (density f instead of
    Fc when weighted, which folds in the hazard rate).

    Scaled Simpson quadrature with a fixed node count per time point,
    vectorized over the whole interval.
    """
    ts = np.atleast_1d(ts)
    ws = np.atleast_1d(ws)
    xi = np.linspace(0.0, 1.0, _QUAD_NODES)
    x = ws[:, None] * xi[None, :]
    vals = np.asarray(spec.arrival_rate(ts[:, None] - x), dtype=float)
    if weighted:
        vals = vals * np.asarray(spec.patience.pdf(x), dtype=float)
    else:
        vals = vals * np.asarray(spec.patience.survival(x), dtype=float)
    return simpson(vals, x=xi, axis=1) * ws


def queue_density(solution: FluidSolution, t: float, x) -> np.ndarray:
    """q(t, x) = lambda(t-x) Fc(x) for x <= w(t), else 0."""
    x = np.asarray(x, dtype=float)
    wt = solution.w_at(t)
    spec = solution.spec
    dens = np.asarray(spec.arrival_rate(t - x), dtype=float) * np.asarray(
        spec.patience.survival(x), dtype=float
    )
    return np.where(x <= wt, dens, 0.0)


def service_density(solution: FluidSolution, t: float, x, b0_density=None) -> np.ndarray:
    """Service content age density b(t, x) inside an OL interval.

    Times are absolute; ages pre-dating the interval start are carried by
    the initial density, which defaults to the exponential profile
    B(start) * mu * exp(-mu * x).
    """
    iv = solution.interval_at(t)
    if iv.kind != OL:
        raise ValueError("t is not inside an OL interval")
    spec = solution.spec
    mu = spec.mu
    tl = t - iv.start
    x = np.asarray(x, dtype=float)
    if b0_density is None:
        s_start = spec.staffing.scalar(iv.start)

        def b0_density(y):
            return s_start * mu * np.exp(-mu * np.asarray(y, dtype=float))

    recent = x <= tl
    tb = t - x
    boundary = (
        np.asarray(spec.staffing(tb), dtype=float) * mu
        + np.asarray(spec.staffing.deriv(tb), dtype=float)
    ) * np.exp(-mu * x)
    aged = b0_density(np.maximum(x - tl, 0.0)) * np.exp(-mu * tl)
    return np.where(recent, boundary, aged)


def abandonment(solution: FluidSolution):
    """(alpha, A) grids: instantaneous and cumulative fluid abandonment."""
    return solution.alpha.copy(), solution.A.copy()


def write_fluid_csv(solution: FluidSolution, path):
    cols = [
        "t", "regime", "X", "B", "Q", "w", "wdot", "v",
        "b0", "qtilde_w", "alpha", "A", "D",
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i, t in enumerate(solution.grid):
            writer.writerow([
                f"{t:.10g}", solution.regime[i],
                f"{solution.X[i]:.10g}", f"{solution.B[i]:.10g}",
                f"{solution.Q[i]:.10g}", f"{solution.w[i]:.10g}",
                f"{solution.wdot[i]:.10g}", f"{solution.v[i]:.10g}",
                f"{solution.b0[i]:.10g}", f"{solution.qtilde_w[i]:.10g}",
                f"{solution.alpha[i]:.10g}", f"{solution.A[i]:.10g}",
                f"{solution.D[i]:.10g}",
            ])
