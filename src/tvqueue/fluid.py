"""Deterministic fluid solution on [0, T].

The solver sweeps the horizon regime by regime.  In underloaded (UL)
stretches it integrates Xdot = lambda - mu*X; in overloaded (OL)
stretches it integrates the head-of-line waiting-time ODE

    wdot = 1 - (sdot + s*mu) / (lambda(t - w) * Fc(w))

with adaptive Dormand-Prince 5(4) steps (_dp5, _march): error control
on the embedded fourth-order solution, the last stage of a step serving
as the first of the next (FSAL), and the free quartic interpolant, one
piecewise polynomial per interval, its path (_path).  The local error
tolerance is tied to the grid step, 1e-2 step^4 within [1e-14, 1e-6]
(_step_tolerance), so that the solution converges with the grid step.
One sweep (_sweep) serves both regimes, the switch bisection and the
continuation past the horizon.  Each regime's ODE is a
time-only term, lambda(t) in UL and b(t,0) = s(t) mu + sdot(t) in OL,
and a scalar stage that takes the state and that term's value; the term
is evaluated once per node of a step.  A stage whose state fails the OL
check, or overflows, rejects its step.  The path gives the state at the
grid points in one array pass per interval, where the same stage on
arrays (ol_rates) gives its derivative in OL, and the regime is tested
at every step end and grid point; each switch is bisected to float
resolution.

One age-integral pass per OL interval (age_integrals) gives the queue
content, the abandonment rate and the Fc^2 integral of the Gaussian
noise terms, by 16-node Gauss-Legendre panels over each point's ages
[0, w], edged at the ages t - b of the arrival rate's breakpoints b and
at the patience breakpoints (kinks, and ages graded toward 0 for a fast
phase), so that every panel holds a smooth piece of the integrand, and
at most _PANEL_AGE long, so that a long wait does not put many periods
of a fast-varying rate on one panel.  It reduces the
(points x nodes) products in blocks of at most _BLOCK_NODES nodes that
stay in cache, with one patience pass (Fc and f) per block, and sums
each row against its weights with einsum, not BLAS, whose row sums may
depend on a row's place in the block.  The exit times L^{-1}(t), L(t) =
t - w(t), are solved once per OL interval on the path (u_loc).  The
cumulative flows (arrivals, departures, abandonments) take one stacked
_cumquad (cumulative Simpson) per interval on its local grid, their
totals carried over each switch.

Each interval is built whole as its sweep ends (_attach_local): its
local grid (its start, the global grid points inside it and its end,
near-duplicate times dropped; an OL grid that reaches the horizon runs
on, every grid step, until L(t) covers the interval, or raises
ValueError after _EXT_SPAN), the state and, in OL, its derivative, the
boundary density lambda(t - w) Fc(w) and b(t,0) from one checked array
pass, and up to its end Q, alpha, Q2 and the exit times.  The Gaussian
layer reads them, and the path between them; both layers read their
local columns onto the global grid through _on_grid, by the index map.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .functions import PiecewisePolyFn
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

_QTILDE_FLOOR = 1e-12     # minimum admissible boundary density
_DEDUPE_TOL = 1e-9        # local-grid times closer than this are merged
_BLOCK_NODES = 256 * 129  # age_integrals (rows x nodes) reduced at a time
_PANEL_AGE = 1.0          # longest age panel: GL-16 resolves sin(c x) to c ~ 15
_EXT_SPAN = 1000.0        # longest continuation past the horizon
_TOL_FLOOR = 1e-14        # step tolerance floor, above round-off
_TOL_CAP = 1e-6           # and cap: steps short enough at a coarse grid step
                          # to end inside an overload between grid points
# Dormand-Prince 5(4) (Hairer, Norsett & Wanner I, Table II.5.2): nodes,
# stage coefficients, the fifth-order weights (also the row of the FSAL
# stage k7, the next step's k1), the error weights (fifth minus embedded
# fourth order) and the free quartic interpolant (Shampine's, scipy's RK45
# P): theta..theta^4, theta = (t - t0) / h, over h, rows k1, k3..k7; k2
# has weight zero in the solution, the error and the interpolant
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200,
                                -22 / 525, 1 / 40)
_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# 16-node Gauss-Legendre rule on [0, 1]: the positive nodes of
# numpy.polynomial.legendre.leggauss(16) and their weights, mirrored
_GL_POS = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_GL_POS_W = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_GL_X = 0.5 + 0.5 * np.concatenate([-_GL_POS[::-1], _GL_POS])
_GL_W = 0.5 * np.concatenate([_GL_POS_W[::-1], _GL_POS_W])


class StaffingInfeasibleError(RuntimeError):
    pass


class CriticalLoadingError(RuntimeError):
    pass


class BoundaryDensityError(RuntimeError):
    pass


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
    # the state on the local grid, X in UL and w in OL
    y_loc: np.ndarray | None = None
    # OL only: wdot, lambda(t - w) Fc(w), b(t,0) on the local grid; Q, alpha,
    # Q2 (age_integrals) and the exit times L^{-1}(t) (l_inverse) up to end
    ydot_loc: np.ndarray | None = None
    qw_loc: np.ndarray | None = None
    b0_loc: np.ndarray | None = None
    Q_loc: np.ndarray | None = None
    alpha_loc: np.ndarray | None = None
    Q2_loc: np.ndarray | None = None
    u_loc: np.ndarray | None = None
    path: PiecewisePolyFn | None = None  # the steps' interpolant (_path)
    steps: int = 0              # accepted adaptive steps, continuation included
    rejected: int = 0           # rejected trial steps

    def __init__(self, kind: str, start: float, end: float, i0: int, i1: int, **local):
        self.kind, self.start, self.end, self.i0, self.i1 = kind, start, end, i0, i1
        vars(self).update(local)    # the optional fields above, by keyword

    @property
    def n_in(self):
        """Number of local times up to end."""
        return int(np.searchsorted(self.t_loc, self.end, side="right"))

    @property
    def ext_t(self):
        """Local times past end: the continuation beyond the horizon."""
        return self.t_loc[self.n_in:]

    def l_inverse(self, u):
        """Inverse of L(t) = t - w(t) on the path: the linear interpolant
        of L's local values, then one Newton step on the path."""
        r = np.interp(u, self.t_loc - self.y_loc, self.t_loc)
        w, wdot = self.path.value_and_deriv(r)
        return r - (r - w - u) / (1.0 - wdot)


class FluidSolution(SimpleNamespace):
    spec: ModelSpec
    step: float                 # the grid step solve_fluid was called with
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


def _bisect(fun, a, b, fa):
    """Root of a continuous sign-changing function on [a, b], fa = fun(a),
    to float resolution: halves until no float lies strictly between a
    and b."""
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return m
        fm = fun(m)
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m


class _Ctx:
    """Evaluators bound to one spec and grid step.  `ode[kind]` is the
    regime's state ODE y' = stage(t, y, term(t)) split into its time-only
    term and its scalar stage, X' = lambda - mu X in UL and the HWT ODE
    with b(t,0) in OL.  b0 and the stages are built once per solve as
    closures over mu and the spec's bound scalar methods, so a stage call
    looks up no attribute and evaluates the model through those methods.
    `tol` is the step tolerance _step_tolerance(step)."""

    def __init__(self, spec: ModelSpec, step: float):
        self.spec, self.step, self.tol = spec, step, _step_tolerance(step)
        mu = spec.mu
        lam = self.lam = spec.arrival_rate.scalar
        s = self.s = spec.staffing.scalar
        s_d = spec.staffing.scalar_deriv
        fc = spec.patience.survival_scalar

        def b0(t):
            return s(t) * mu + s_d(t)

        def ul_stage(t, x, lam_t):
            """Xdot in underload given lam_t = lambda(t)."""
            return lam_t - mu * x

        def ol_stage(t, w, b):
            """wdot in overload given b = b0(t), after the one check of the
            OL state (_ol_check)."""
            q = lam(t - w) * fc(w)
            if q < _QTILDE_FLOOR or b <= 0.0:
                _ol_check(t, q, b)
            return 1.0 - b / q

        self.b0, self.ol_stage = b0, ol_stage
        self.ode = {UL: (lam, ul_stage), OL: (b0, ol_stage)}


def ol_rates(spec, t, w):
    """The OL stage on arrays: (wdot, q = lambda(t - w) Fc(w), b = b(t,0))
    at the times t and waits w, after the OL check at every point."""
    b = (np.asarray(spec.staffing(t), dtype=float) * spec.mu
         + np.asarray(spec.staffing.deriv(t), dtype=float))
    q = (np.asarray(spec.arrival_rate(t - w), dtype=float)
         * np.asarray(spec.patience.survival(w), dtype=float))
    bad = (q < _QTILDE_FLOOR) | (b <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        _ol_check(float(t[i]), q[i], b[i])
    return 1.0 - b / q, q, b


def _ol_check(t, q, b):
    """The one check of the OL state at time t: the boundary density q
    stays above its floor, then b = b(t,0) above 0."""
    if q < _QTILDE_FLOOR:
        raise BoundaryDensityError(f"queue boundary density vanished at t={t:.6f}")
    if b <= 0.0:
        raise StaffingInfeasibleError(
            f"staffing infeasible in overload: b(t,0) <= 0 at t={t:.6f}")


def _step_tolerance(step):
    """Local error tolerance of the adaptive steps for grid step `step`:
    1e-2 step^4, so that the solution's error shrinks with the grid step
    as a fourth-order method's would, within [_TOL_FLOOR, _TOL_CAP]."""
    return min(max(1e-2 * step ** 4, _TOL_FLOOR), _TOL_CAP)


def solve_fluid(spec: ModelSpec, step: float = 1e-3) -> FluidSolution:
    """Solve the fluid model on a uniform grid of step `step`.

    Adaptive Dormand-Prince 5(4) steps integrate each regime to the local
    error tolerance _step_tolerance(step) (1e-14 at the default step) and
    their quartic interpolant, the interval's path, gives the state at the
    grid points.  The grid columns are read from the intervals' local
    values.  The step may not exceed the horizon, nor 1/mu: the Gaussian
    layer's quadrature of the renewal-arrival excess (c_lambda != 1)
    loses the decay of exp(-2 mu t) beyond it.
    """
    report = validate(spec)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if not 0 < step <= spec.horizon or spec.mu * step > 1.0:
        raise ValueError(f"grid step {step} must be positive and at most "
                         f"min(horizon, 1/mu) = {min(spec.horizon, 1.0 / spec.mu):g}")

    T = spec.horizon
    if not T / step < np.inf:
        raise ValueError(f"horizon {T:g} is too long for grid step {step:g}")
    ctx = _Ctx(spec, step)
    n = int(round(T / step))
    grid = np.linspace(0.0, T, n + 1)

    intervals: list[FluidInterval] = []
    switches: list[float] = []

    # a start on the boundary: the loading direction decides
    kind = OL if _starts_on_boundary(spec) and ctx.lam(0.0) > ctx.b0(0.0) else UL

    t_cur = 0.0
    k = 0
    y = spec.x0 if kind == UL else 0.0

    while k <= n:
        try:
            t_cur, k, iv = _sweep(ctx, kind, grid, t_cur, k, y)
        except OverflowError as exc:
            # a model function that overflows where the solution goes, not
            # only in a rejected trial step
            raise ValueError(f"the {kind} sweep from t={t_cur:.6f} overflowed ({exc})") from exc
        intervals.append(iv)
        if k > n:
            break
        switches.append(t_cur)
        kind, y = (OL, 0.0) if kind == UL else (UL, ctx.s(t_cur))

    # each interval's local columns up to its end; the flows Lam, D, A
    # from the totals carried over the switch before it
    parts, total = [], np.zeros((3, 1))
    for iv in intervals:
        t = iv.t_loc[: iv.n_in]
        if iv.kind == UL:
            B_loc, alpha_loc = iv.y_loc, np.zeros(len(t))
            local = {"X": B_loc}
        else:
            B_loc, alpha_loc = np.asarray(spec.staffing(t), dtype=float), iv.alpha_loc
            local = {"ol": np.ones(len(t), dtype=bool), "X": B_loc + iv.Q_loc, "Q": iv.Q_loc,
                     "w": iv.y_loc, "wdot": iv.ydot_loc, "v": iv.u_loc - t,
                     "b0": iv.b0_loc, "qtilde_w": iv.qw_loc, "alpha": alpha_loc}
        cum = total + _cumquad(np.stack(
            (np.asarray(spec.arrival_rate(t), dtype=float), spec.mu * B_loc, alpha_loc)), t)
        total = cum[:, -1:]
        parts.append(dict(local, B=B_loc, Lam=cum[0], D=cum[1], A=cum[2]))
    # v: the potential wait L^{-1}(t) - t; w, wdot, Q, alpha, v are zero in UL
    cols = _on_grid(intervals, n + 1, parts, {
        "ol": False, "w": 0.0, "wdot": 0.0, "Q": 0.0, "alpha": 0.0, "v": 0.0,
        "b0": np.nan, "qtilde_w": np.nan})
    return FluidSolution(spec=spec, step=step, grid=grid, intervals=intervals,
                         switch_times=np.asarray(switches), **cols)


def _starts_on_boundary(spec: ModelSpec) -> bool:
    """Whether the fluid starts on the staffing boundary, x0 >= s(0) - 1e-12:
    solve_fluid's rule for the first regime, which the moved solves of the
    refined mean shift keep."""
    return spec.x0 >= spec.staffing.scalar(0.0) - 1e-12


def _on_grid(intervals, size, parts, fill):
    """Grid columns of `size` points: parts[i] maps a column name to
    interval i's local values up to its end, read at its grid points
    i0..i1 through idx; fill[name] stands where an interval has no such
    column, and every interval has the columns that fill does not name."""
    cols = {name: np.full(size, value) for name, value in fill.items()}
    for iv, local in zip(intervals, parts):
        for name, values in local.items():
            if name not in cols:
                cols[name] = np.full(size, np.nan)
            cols[name][iv.i0 : iv.i1 + 1] = values[iv.idx]
    return cols


def _dp5(term, stage, t, te, y, k1):
    """One Dormand-Prince 5(4) step of y' = stage(t, y, term(t)) from
    (t, y), whose derivative k1 the caller has, to te; returns y(te),
    term(te) and the stages k3..k6.  The term is evaluated once per node:
    k6 and the FSAL stage k7 = stage(te, y(te), term(te)) share its end
    value."""
    h = te - t
    t2, t3, t4, t5 = t + _C2 * h, t + _C3 * h, t + _C4 * h, t + _C5 * h
    k2 = stage(t2, y + h * _A21 * k1, term(t2))
    k3 = stage(t3, y + h * (_A31 * k1 + _A32 * k2), term(t3))
    k4 = stage(t4, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3), term(t4))
    k5 = stage(t5, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4), term(t5))
    g_end = term(te)
    k6 = stage(te, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5), g_end)
    return y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6), g_end, k3, k4, k5, k6


def _march(ctx, kind, t, y, f, h, t_stop, done, steps):
    """Adaptive Dormand-Prince steps of regime `kind` from (t, y), whose
    derivative is f, with trial step h, until a step ends at t_stop or in
    a state with done(t, y).  Appends each accepted step's
    (t, h, y, k1, k3, k4, k5, k6, k7) to steps; returns the last time,
    state and derivative, whether done, the next trial step and the
    number of rejected steps.

    A step is accepted when its error estimate is at most
    ctx.tol * (1 + |y|); the next trial step is 0.9 err^(-1/5) times it,
    within [0.2, 10], and no longer right after a rejection.  A stage
    that fails the OL check or overflows rejects the step and halves it,
    so the steps close in on the time where the solution itself fails;
    that failure is raised once no float lies inside the failed step."""
    term, stage = ctx.ode[kind]
    tol = ctx.tol
    rejected = 0
    retry = False
    while True:
        te = min(t + h, t_stop)
        try:
            y1, g_end, k3, k4, k5, k6 = _dp5(term, stage, t, te, y, f)
            k7 = stage(te, y1, g_end)
        except (BoundaryDensityError, StaffingInfeasibleError, OverflowError):
            h = 0.5 * (te - t)
            if not t < t + h < te:
                raise
            rejected, retry = rejected + 1, True
            continue
        h = te - t
        err = abs(h * (_E1 * f + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)) / (
            tol * (1.0 + max(abs(y), abs(y1))))
        if not err <= 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            if t + h == t:
                raise ValueError(f"the {kind} sweep cannot meet its step tolerance at t={t:.6f}")
            rejected, retry = rejected + 1, True
            continue
        steps.append((t, h, y, f, k3, k4, k5, k6, k7))
        grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        h *= min(grow, 1.0) if retry else grow
        retry = False
        t, y, f = te, y1, k7
        hit = done(t, y)
        if hit or t == t_stop:
            return t, y, f, hit, h, rejected


def _path(steps):
    """The accepted steps' quartic interpolant as one piecewise polynomial,
    a piece per step in u = t - t0: the coefficient of theta^j over h^j,
    theta = u / h, is that of u^j."""
    a = np.array(steps)
    t0, h = a[:, 0], a[:, 1:2]
    coef = (a[:, 3:] @ _DENSE) / h ** np.arange(4)
    return PiecewisePolyFn(np.append(t0, t0[-1] + h[-1]), np.column_stack([a[:, 2], coef]))


def _sweep(ctx, kind, grid, start, k, y):
    """Integrate regime `kind` from state y at `start` over grid[k:] until
    it ends or the horizon; returns (end, next grid index, interval).

    The state is X in UL, which ends when X reaches s(t), and w in OL,
    which ends when w returns to zero.  Adaptive steps (_march) run from
    start, or from grid[k] if start lies within 1e-14 of it, until a step
    ends past the regime or at the horizon.  Their path (_path) gives the
    state at the grid points they cover in one array pass, where the
    regime is tested too, so a crossing that only a grid point sees is
    found.  The first crossing among step ends and grid points is
    bisected to float resolution, each probe one step from the start of
    the step that holds it.  An OL interval must hold a grid point after
    its start; the grid step is too coarse otherwise.
    """
    n = len(grid) - 1
    T = float(grid[n])
    ul = kind == UL
    term, stage = ctx.ode[kind]
    s = ctx.s
    snap = k <= n and abs(float(grid[k]) - start) < 1e-14
    t = float(grid[k]) if snap else start
    f = stage(t, y, term(t))
    steps = []
    hit, t_end, y_end, f_end, h, rejected = False, t, y, f, ctx.step, 0
    if t < T:
        done = (lambda te, x: x - s(te) >= 0.0) if ul else (lambda te, w: w <= 0.0)
        t_end, y_end, f_end, hit, h, rejected = _march(ctx, kind, t, y, f, h, T, done, steps)
    k_first = k + snap
    k_last = int(np.searchsorted(grid, t_end, side="right")) - 1
    tg = grid[k_first : k_last + 1]
    path = _path(steps) if steps else None
    yg = path(tg) if steps else np.empty(0)
    crossed = np.flatnonzero(yg - np.asarray(ctx.spec.staffing(tg), dtype=float) >= 0.0
                             if ul else yg <= 0.0)
    if len(crossed) or hit:
        kc = k_first + int(crossed[0]) if len(crossed) else k_last + 1
        c = float(grid[kc]) if len(crossed) else t_end
        j = len(steps) - 1
        while steps[j][0] >= c:
            j -= 1
        t0, _, y0, f0 = steps[j][:4]

        def edge(tc):
            # UL X - s, OL w, after one step from the start of step j
            yc = _dp5(term, stage, t0, tc, y0, f0)[0]
            return yc - s(tc) if ul else yc

        a = max(float(grid[kc - 1]), t0) if kc > k_first else t0
        tau = _bisect(edge, a, c, edge(a))
        lam, b = ctx.lam(tau), ctx.b0(tau)
        if lam - b <= 1e-9 if ul else lam >= b - 1e-9:
            raise CriticalLoadingError(
                f"non-isolated critical loading near t={tau:.6f}" + ("" if ul else
                " (waiting time grazed zero while still overloaded)"))
        if not ul and kc == k_first:
            raise ValueError(f"grid step {ctx.step:g} too coarse: the overload on "
                             f"[{start:.6f}, {tau:.6f}] holds no grid point")
        m = kc - k_first
        tg, yg = np.append(tg[:m], tau), np.append(yg[:m], s(tau) if ul else 0.0)
        iv = FluidInterval(kind, start, tau, k, kc - 1)
    else:
        iv = FluidInterval(kind, start, T, k, n)
        if not ul:
            path, ext_t, ext_rejected = _extend_ol(ctx, T, y_end, f_end, h, steps)
            yg[-1:] = path(tg[-1:])  # T, now the continuation's first knot
            tg = np.concatenate([tg, ext_t])
            yg = np.concatenate([yg, np.maximum(path(ext_t), 0.0)])
            rejected += ext_rejected
    iv.path, iv.steps, iv.rejected = path, len(steps), rejected
    _attach_local(iv, grid, np.concatenate([[start], tg]), np.concatenate([[y], yg]), ctx.spec)
    return iv.end, iv.i1 + 1, iv


def _attach_local(iv, grid, t, y, spec):
    """Build iv whole from the local times t and states y: its local grid
    and states, dropping a time within _DEDUPE_TOL of the one before it
    with its state, and its index map; in OL also the derivative, the
    boundary density and b(t,0) there (ol_rates), and up to its end the
    age integrals Q, alpha, Q2 and the exit times L^{-1}(t)."""
    keep = np.concatenate([[True], np.diff(t) > _DEDUPE_TOL])
    iv.t_loc, iv.y_loc = t[keep], y[keep]
    if iv.kind == OL:
        iv.ydot_loc, iv.qw_loc, iv.b0_loc = ol_rates(spec, iv.t_loc, iv.y_loc)
        t_in = iv.t_loc[: iv.n_in]
        iv.Q_loc, iv.alpha_loc, iv.Q2_loc = age_integrals(
            spec.arrival_rate, spec.patience, t_in, iv.y_loc[: iv.n_in])
        iv.u_loc = iv.l_inverse(t_in)
    iv.idx = np.searchsorted(iv.t_loc, grid[iv.i0 : iv.i1 + 1] - 1e-9)


def _extend_ol(ctx, T, w, wdot, h, steps):
    """Continue w past the horizon T, from w and its derivative wdot there
    and trial step h, until L(t) = t - w(t) covers the interval; appends
    the steps to `steps`.  Returns the path of all of `steps`, the
    continuation's local times, every ctx.step past T up to the first
    where L >= T on the path (or the last step's end if none gets there),
    and the number of rejected steps.  Raises ValueError if L(t) is still
    short of T after _EXT_SPAN: the potential wait is undefined there."""
    t, w, _, hit, _, rejected = _march(ctx, OL, T, w, wdot, h, T + _EXT_SPAN,
                                       lambda te, we: te - we >= T, steps)
    if not hit:
        raise ValueError(f"the potential wait near the horizon T={T:g} is "
                         f"undefined: continued to t={t:.6f}, t - w(t) is still below T")
    path = _path(steps)
    ts = T + ctx.step * np.arange(1, int((t - T) / ctx.step) + 1)
    ts = ts[ts < t]
    covered = np.flatnonzero(ts - path(ts) >= T)
    return path, ts[: covered[0] + 1] if len(covered) else np.append(ts, t), rejected


def age_integrals(rate, patience, t, w):
    """(Q, alpha, Q2): per i, the integrals over ages x in [0, w[i]] of
    rate(t[i] - x) times Fc(x), f(x) and Fc(x)^2, by 16-node Gauss-Legendre
    on panels edged at 0, w[i], the ages t[i] - b of rate breakpoints b,
    the patience breakpoints and the multiples of _PANEL_AGE.  Rows are
    reduced in blocks of at most _BLOCK_NODES nodes (one row at least),
    with one `survival_pdf` call per block and the products formed in
    place.  A block's rows share its candidate edges, clipped to each
    row's [0, w]: an edge outside a row's ages makes an empty panel, which
    adds exactly zero."""
    rate_bps = np.asarray(rate.breakpoints(), dtype=float)
    pat_bps = np.asarray(patience.breakpoints(), dtype=float)
    Q, alpha, Q2 = (np.empty(len(t)) for _ in range(3))
    lo, gl = 0, len(_GL_X)
    while lo < len(t):
        hi = min(len(t), lo + _BLOCK_NODES // gl)
        inner = _block_edges(rate_bps, pat_bps, t[lo:hi], w[lo:hi])
        fit = lo + max(1, _BLOCK_NODES // (gl * (len(inner) + 1)))
        if fit < hi:
            # a shorter block has no more edges, so it fits the budget
            hi = fit
            inner = _block_edges(rate_bps, pat_bps, t[lo:hi], w[lo:hi])
        rows = slice(lo, hi)
        tb, wb = t[rows], w[rows]
        edges = np.sort(np.column_stack([np.zeros(len(tb)), inner.T, wb]), axis=1)
        h = np.diff(edges, axis=1)[:, :, None]
        x = (edges[:, :-1, None] + h * _GL_X).reshape(len(tb), -1)
        weights = (h * _GL_W).reshape(len(tb), -1)
        arrived = np.asarray(rate(tb[:, None] - x), dtype=float)
        fc, dens = (np.asarray(a, dtype=float) for a in patience.survival_pdf(x))
        dens *= arrived
        alpha[rows] = np.einsum("ij,ij->i", dens, weights)
        arrived *= fc
        Q[rows] = np.einsum("ij,ij->i", arrived, weights)
        arrived *= fc
        Q2[rows] = np.einsum("ij,ij->i", arrived, weights)
        lo = hi
    return Q, alpha, Q2


def _block_edges(rate_bps, pat_bps, t, w):
    """Interior panel edges of a block of rows (t, w), as (edges x rows)
    ages clipped to each row's [0, w]: t - b for the rate breakpoints b in
    (min(t - w), max(t)), and the patience breakpoints and the multiples
    of _PANEL_AGE in (0, max(w))."""
    b = rate_bps[(rate_bps > np.min(t - w)) & (rate_bps < np.max(t))]
    p = np.concatenate([pat_bps[(pat_bps > 0.0) & (pat_bps < np.max(w))],
                        np.arange(_PANEL_AGE, np.max(w), _PANEL_AGE)])
    ages = np.concatenate([t - b[:, None], np.broadcast_to(p[:, None], (len(p), len(t)))])
    return np.clip(ages, 0.0, w)


def _cumquad(y, x):
    """Cumulative integral of samples y over x along y's last axis, from
    0 at x[0].

    Each step's area is that of the quadratic through three consecutive
    samples: the step that begins a triple and, for the step after it,
    the triple read backwards; the last step takes the backward triple
    (cumulative Simpson on an irregular grid, Cartwright 2017).  Below
    three samples, trapezoids.
    """
    dx = np.diff(x)
    if len(x) < 3:
        steps = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        y0, y1, y2 = y[..., :-2:2], y[..., 1:-1:2], y[..., 2::2]
        d0, d1 = dx[:-1:2], dx[1::2]
        steps = np.empty(y.shape[:-1] + dx.shape)
        steps[..., :-1:2] = _first_step_areas(y0, y1, y2, d0, d1)
        steps[..., 1::2] = _first_step_areas(y2, y1, y0, d1, d0)
        steps[..., -1] = _first_step_areas(y[..., -1], y[..., -2], y[..., -3], dx[-1], dx[-2])
    out = np.zeros(steps.shape[:-1] + (steps.shape[-1] + 1,))
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def _first_step_areas(y0, y1, y2, x21, x32):
    """Area over the first step, of width x21, of the quadratic through
    y0, y1, y2 at steps x21, x32."""
    r31 = x21 / (x21 + x32)
    r32 = x21 / x32
    r = r31 * r32
    return x21 / 6 * ((3 - r31) * y0 + (3 + r + r31) * y1 - r * y2)


def write_fluid_csv(solution: FluidSolution, path):
    s = solution
    write_columns(path, {
        "t": s.grid, "regime": np.where(s.ol, OL, UL), "X": s.X, "B": s.B,
        "Q": s.Q, "w": s.w, "wdot": s.wdot, "v": s.v, "b0": s.b0,
        "qtilde_w": s.qtilde_w, "alpha": s.alpha, "A": s.A, "D": s.D,
    })
