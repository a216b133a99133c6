"""Deterministic fluid solution on [0, T].

The solver sweeps the horizon regime by regime.  In underloaded (UL)
stretches it integrates Xdot = lambda - mu*X; in overloaded (OL)
stretches it integrates the head-of-line waiting-time ODE

    wdot = 1 - (sdot + s*mu) / (lambda(t - w) * Fc(w))

with a classical fixed-step RK4 scheme, locating every regime switch by
bisection.  The grid sweeps write the RK4 stages inline and evaluate
each time-only term, lambda(t) in UL and b(t,0) = s(t) mu + sdot(t) in
OL, once per distinct time: k2 and k3 share the midpoint value, and the
end value te = t_prev + h serves k4 and, when te == grid[k] bit for bit,
the next step's k1 (UL) or wdot at grid[k] (OL); otherwise grid[k] is
evaluated again.  The same scalar call on the same float gives the same
double, so this is the unfused RK4 step to the bit.  The bisection and
the continuation past the horizon step through `_Ctx.ul_rhs` / `ol_rhs`.
One age-integral pass per OL interval (age_integrals) gives the queue
content, the abandonment rate and the Fc^2 integral of the Gaussian
noise terms, by composite Simpson weights on a fixed unit age grid; it
reduces the (points x ages) products in blocks of rows that stay in
cache, with one patience pass (Fc and f) per block.  The cumulative
flows (arrivals, departures, abandonments) are cumulative trapezoids.
The potential wait inverts L(t) = t - w(t).

Each interval also carries its local grid: its start, the global grid
points inside it and its end, with near-duplicate times dropped; an OL
grid that reaches the horizon runs on until L(t) covers the interval.
The Gaussian layer builds every interval's variances on that grid and
reads them back onto the global grid through the interval's index map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, validate, write_columns

__all__ = [
    "FluidSolution",
    "FluidInterval",
    "StaffingInfeasibleError",
    "CriticalLoadingError",
    "BoundaryDensityError",
    "solve_fluid",
    "write_fluid_csv",
]

UL, OL = "UL", "OL"

_SWITCH_TOL = 1e-10       # bisection tolerance for switching times
_QTILDE_FLOOR = 1e-12     # minimum admissible boundary density
_QUAD_NODES = 129         # Simpson nodes for the age integrals (odd)
_DEDUPE_TOL = 1e-9        # local-grid times closer than this are merged
_ROW_BLOCK = 256          # age_integrals rows reduced at a time
_XI = np.linspace(0.0, 1.0, _QUAD_NODES)
# composite Simpson weights on _XI: h/3 * (1, 4, 2, 4, ..., 2, 4, 1)
_SIMPSON_W = np.where(np.arange(_QUAD_NODES) % 2 == 1, 4.0, 2.0)
_SIMPSON_W[[0, -1]] = 1.0
_SIMPSON_W *= (_XI[1] - _XI[0]) / 3.0


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
    # local grid: start anchor, interior grid points, end anchor, then (OL
    # at the horizon) the continuation past it; no two times within
    # _DEDUPE_TOL; idx: positions of grid points i0..i1 in it
    t_loc: np.ndarray | None = None
    idx: np.ndarray | None = None
    # OL only: w, wdot on the local grid; age_integrals' Q, Q2 up to end
    w_loc: np.ndarray | None = None
    wdot_loc: np.ndarray | None = None
    Q_loc: np.ndarray | None = None
    Q2_loc: np.ndarray | None = None

    @property
    def n_in(self):
        """Number of local times up to end."""
        return int(np.searchsorted(self.t_loc, self.end, side="right"))

    @property
    def ext_t(self):
        """Local times past end: the continuation beyond the horizon."""
        return self.t_loc[self.n_in:]

    def l_inverse(self, u):
        """Monotone inverse of L(t) = t - w(t) by linear interpolation."""
        return np.interp(u, self.t_loc - self.w_loc, self.t_loc)


@dataclass
class FluidSolution:
    spec: ModelSpec
    grid: np.ndarray
    ol: np.ndarray              # True at the grid points of OL intervals
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
    alpha: np.ndarray
    A: np.ndarray
    D: np.ndarray
    Lam: np.ndarray

    def ol_intervals(self):
        return [iv for iv in self.intervals if iv.kind == OL]


def _rk4_step(f, t, y, h, k1=None):
    """One RK4 step; k1 = f(t, y) when the caller already has it."""
    if k1 is None:
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

    def ol_stage(self, t, w, b):
        """wdot in overload given b = b0(t); the one check of the OL state:
        the boundary density stays above its floor, then b(t,0) above 0."""
        q = self.lam(t - w) * self.fc(w)
        if q < _QTILDE_FLOOR:
            raise BoundaryDensityError(
                f"queue boundary density vanished at t={t:.6f}"
            )
        if b <= 0.0:
            raise StaffingInfeasibleError(
                f"staffing infeasible in overload: b(t,0) <= 0 at t={t:.6f}"
            )
        return 1.0 - b / q

    def ol_rhs(self, t, w):
        """wdot in overload: the bisection's and the continuation's RK4."""
        return self.ol_stage(t, w, self.b0(t))


def solve_fluid(spec: ModelSpec, step: float = 1e-3) -> FluidSolution:
    """Solve the fluid model on a uniform grid of step `step`.

    The step may not exceed the horizon, nor 1/mu: beyond it RK4 on
    X' = -mu X amplifies instead of damping.
    """
    report = validate(spec)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if not 0 < step <= spec.horizon or spec.mu * step > 1.0:
        raise ValueError(f"grid step {step} must be positive and at most "
                         f"min(horizon, 1/mu) = {min(spec.horizon, 1.0 / spec.mu):g}")

    ctx = _Ctx(spec)
    T = spec.horizon
    n = int(round(T / step))
    grid = np.linspace(0.0, T, n + 1)

    X = np.zeros(n + 1)
    w = np.zeros(n + 1)
    wdot = np.zeros(n + 1)
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
            t_cur, k, x_cur, iv = _sweep_ul(ctx, times, X, t_cur, k, x_cur)
        else:
            t_cur, k, x_cur, iv = _sweep_ol(ctx, times, w, wdot, t_cur, k)
        intervals.append(iv)
        if k > n:
            break
        switches.append(t_cur)
        kind = OL if kind == UL else UL

    ol = np.zeros(n + 1, dtype=bool)
    qtilde_w = np.full(n + 1, np.nan)
    b0 = np.full(n + 1, np.nan)
    Q = np.zeros(n + 1)
    alpha = np.zeros(n + 1)
    v = np.zeros(n + 1)          # potential wait L^{-1}(t) - t, zero in UL
    B = X.copy()

    lam_grid = np.asarray(spec.arrival_rate(grid), dtype=float)
    for iv in [iv for iv in intervals if iv.kind == OL]:
        iv.Q_loc, alpha_loc, iv.Q2_loc = age_integrals(
            spec.arrival_rate, spec.patience, iv.t_loc[: iv.n_in], iv.w_loc[: iv.n_in])
        if iv.i1 < iv.i0:
            continue
        sl = slice(iv.i0, iv.i1 + 1)
        ol[sl] = True
        ts = grid[sl]
        ws = w[sl]
        qtilde_w[sl] = (np.asarray(spec.arrival_rate(ts - ws), dtype=float)
                        * np.asarray(spec.patience.survival(ws), dtype=float))
        svals = np.asarray(spec.staffing(ts), dtype=float)
        b0[sl] = svals * spec.mu + np.asarray(spec.staffing.deriv(ts), dtype=float)
        Q[sl] = iv.Q_loc[iv.idx]
        alpha[sl] = alpha_loc[iv.idx]
        X[sl] = svals + Q[sl]
        B[sl] = svals
        v[sl] = iv.l_inverse(ts) - ts

    Lam = cumulative_trapezoid(lam_grid, grid)
    D = cumulative_trapezoid(spec.mu * B, grid)
    A = cumulative_trapezoid(alpha, grid)

    return FluidSolution(
        spec=spec,
        grid=grid,
        ol=ol,
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
        alpha=alpha,
        A=A,
        D=D,
        Lam=Lam,
    )


def _sweep_ul(ctx, grid, X, start, k, x_start):
    """Integrate the UL content until a switch or the horizon."""
    n = len(grid) - 1
    i0 = k
    lam, mu, s = ctx.lam, ctx.mu, ctx.s
    t_prev, x_prev = start, x_start
    if k <= n and abs(grid[k] - start) < 1e-14:
        X[k] = x_start
        t_prev = grid[k]
        k += 1
    l_prev = lam(t_prev)
    while k <= n:
        tk = grid[k]
        h = tk - t_prev
        te = t_prev + h
        l_mid = lam(t_prev + 0.5 * h)
        l_end = lam(te)
        k1 = l_prev - mu * x_prev
        k2 = l_mid - mu * (x_prev + 0.5 * h * k1)
        k3 = l_mid - mu * (x_prev + 0.5 * h * k2)
        k4 = l_end - mu * (x_prev + h * k3)
        x_new = x_prev + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        gap = x_new - s(tk)
        if gap >= 0.0:
            # crossed into overload inside (t_prev, grid[k]]
            def excess(tc):
                return _integrate(ctx.ul_rhs, t_prev, x_prev, tc) - s(tc)

            tau = _bisect(excess, t_prev, tk, x_prev - s(t_prev), gap)
            if lam(tau) - ctx.b0(tau) <= 1e-9:
                raise CriticalLoadingError(
                    f"non-isolated critical loading near t={tau:.6f}"
                )
            iv = FluidInterval(UL, start, tau, i0, k - 1)
            return tau, k, s(tau), _attach_local(iv, grid, [start, *grid[i0:k], tau])
        X[k] = x_new
        t_prev, x_prev = tk, x_new
        l_prev = l_end if te == tk else lam(tk)
        k += 1
    iv = FluidInterval(UL, start, grid[n], i0, n)
    return grid[n], n + 1, x_prev, _attach_local(iv, grid, [start, *grid[i0:], grid[n]])


def _sweep_ol(ctx, grid, w, wdot, start, k):
    """Integrate the HWT ODE until w returns to zero or the horizon."""
    n = len(grid) - 1
    i0 = k
    stage, b0 = ctx.ol_stage, ctx.b0
    loc_t = [start]
    loc_w = [0.0]
    loc_wd = [ctx.ol_rhs(start, 0.0)]
    # f_prev = ol_rhs(t_prev, w_prev): the next step's k1
    t_prev, w_prev, f_prev = start, 0.0, loc_wd[0]
    if k <= n and abs(grid[k] - start) < 1e-14:
        w[k] = 0.0
        wdot[k] = loc_wd[0]
        t_prev = grid[k]
        k += 1
    while k <= n:
        tk = grid[k]
        h = tk - t_prev
        tm = t_prev + 0.5 * h
        te = t_prev + h
        b_mid = b0(tm)
        b_end = b0(te)
        k2 = stage(tm, w_prev + 0.5 * h * f_prev, b_mid)
        k3 = stage(tm, w_prev + 0.5 * h * k2, b_mid)
        k4 = stage(te, w_prev + h * k3, b_end)
        w_new = w_prev + h / 6.0 * (f_prev + 2.0 * k2 + 2.0 * k3 + k4)
        if w_new <= 0.0:
            if w_prev <= 0.0:
                raise CriticalLoadingError(
                    f"non-isolated critical loading near t={t_prev:.6f}"
                )

            def wval(tc):
                return _integrate(ctx.ol_rhs, t_prev, w_prev, tc)

            tau = _bisect(wval, t_prev, tk, w_prev, w_new)
            if ctx.lam(tau) >= b0(tau) - 1e-9:
                raise CriticalLoadingError(
                    f"non-isolated critical loading near t={tau:.6f} "
                    "(waiting time grazed zero while still overloaded)"
                )
            loc_t.append(tau)
            loc_w.append(0.0)
            loc_wd.append(ctx.ol_rhs(tau, 0.0))
            iv = FluidInterval(OL, start, tau, i0, k - 1)
            return tau, k, ctx.s(tau), _attach_local(iv, grid, loc_t, loc_w, loc_wd)
        w[k] = w_new
        wdot[k] = f_prev = stage(tk, w_new, b_end if te == tk else b0(tk))
        loc_t.append(tk)
        loc_w.append(w_new)
        loc_wd.append(f_prev)
        t_prev, w_prev = tk, w_new
        k += 1
    _extend_ol(ctx, grid[n], w_prev, f_prev, loc_t, loc_w, loc_wd)
    iv = FluidInterval(OL, start, grid[n], i0, n)
    return grid[n], n + 1, np.nan, _attach_local(iv, grid, loc_t, loc_w, loc_wd)


def _attach_local(iv, grid, loc_t, loc_w=None, loc_wd=None):
    """Give iv its local grid and index map; returns iv.

    A time within _DEDUPE_TOL of the one before it is dropped, with its
    w and wdot.
    """
    t = np.asarray(loc_t, dtype=float)
    keep = np.concatenate([[True], np.diff(t) > _DEDUPE_TOL])
    iv.t_loc = t[keep]
    if loc_w is not None:
        iv.w_loc = np.asarray(loc_w)[keep]
        iv.wdot_loc = np.asarray(loc_wd)[keep]
    iv.idx = np.searchsorted(iv.t_loc, np.asarray(grid[iv.i0 : iv.i1 + 1]) - 1e-9)
    return iv


def _extend_ol(ctx, t_end, w_end, f_end, loc_t, loc_w, loc_wd):
    """Continue the local grid lists past the horizon until L(t) covers
    the whole interval; f_end = ol_rhs(t_end, w_end)."""
    h = 1e-3
    t, wv, fv = t_end, w_end, f_end
    while t - wv < t_end and wv > 0.0 and t < t_end + 1000.0:
        wv = max(_rk4_step(ctx.ol_rhs, t, wv, h, fv), 0.0)
        t += h
        fv = ctx.ol_rhs(t, wv)
        loc_t.append(t)
        loc_w.append(wv)
        loc_wd.append(fv)


def age_integrals(rate, patience, t, w):
    """(Q, alpha, Q2): per i, the integrals over ages x in [0, w[i]] of
    rate(t[i] - x) times Fc(x), f(x) and Fc(x)^2, by Simpson on a scaled
    unit grid.  Rows are independent: they are reduced _ROW_BLOCK at a
    time, small enough for a block's arrays to stay in cache, with one
    `survival_pdf` call per block and the products formed in place."""
    Q, alpha, Q2 = (np.empty(len(t)) for _ in range(3))
    for lo in range(0, len(t), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        wb = w[rows]
        x = wb[:, None] * _XI[None, :]
        arrived = np.asarray(rate(t[rows, None] - x), dtype=float)
        fc, dens = (np.asarray(a, dtype=float) for a in patience.survival_pdf(x))
        dens *= arrived
        alpha[rows] = _simpson(dens) * wb
        arrived *= fc
        Q[rows] = _simpson(arrived) * wb
        arrived *= fc
        Q2[rows] = _simpson(arrived) * wb
    return Q, alpha, Q2


def _simpson(m):
    """Simpson's rule over _XI along each row of m; a row's sum does not
    depend on the rows around it."""
    return (m * _SIMPSON_W).sum(axis=1)


def cumulative_trapezoid(y, x):
    """Cumulative trapezoid integral of samples y over x, from 0 at x[0]."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def write_fluid_csv(solution: FluidSolution, path):
    s = solution
    write_columns(path, {
        "t": s.grid, "regime": np.where(s.ol, OL, UL), "X": s.X, "B": s.B,
        "Q": s.Q, "w": s.w, "wdot": s.wdot, "v": s.v, "b0": s.b0,
        "qtilde_w": s.qtilde_w, "alpha": s.alpha, "A": s.A, "D": s.D,
    })
