"""Deterministic fluid solution on [0, T].

The solver sweeps the horizon regime by regime.  In underloaded (UL)
stretches it integrates Xdot = lambda - mu*X; in overloaded (OL)
stretches it integrates the head-of-line waiting-time ODE

    wdot = 1 - (sdot + s*mu) / (lambda(t - w) * Fc(w))

with a classical fixed-step RK4 scheme, locating every regime switch by
bisection to float resolution.  Both regimes run through one sweep
(_sweep) and one RK4 step (_rk4), which also serves the continuation past
the horizon and each bisection probe, a single step from the last grid
point before the crossing.  Each regime's ODE is a time-only term,
lambda(t) in UL and b(t,0) = s(t) mu + sdot(t) in OL, and a stage that
takes the state and that term's value.  The term is evaluated once per
distinct time: k2 and k3 share the midpoint value, and the end value
serves k4 and the derivative at the step's end, which is the next step's
k1.  The same scalar call on the same float gives the same double, so
this is the textbook RK4 step to the bit.

One age-integral pass per OL interval (age_integrals) gives the queue
content, the abandonment rate and the Fc^2 integral of the Gaussian
noise terms, by 16-node Gauss-Legendre panels over each point's ages
[0, w], edged at the ages t - b of the arrival rate's breakpoints b and
at the patience breakpoints, so that every panel holds a smooth piece of
the integrand, and at most _PANEL_AGE long, so that a long wait does not
put many periods of a fast-varying rate on one panel.  It reduces the
(points x nodes) products in blocks of at most _BLOCK_NODES nodes that
stay in cache, with one patience pass (Fc and f) per block, and sums
each row against its weights with einsum, not BLAS, whose row sums may
depend on a row's place in the block.  The cumulative flows (arrivals,
departures, abandonments) are cumulative trapezoids.  The potential wait
inverts L(t) = t - w(t).

Each interval also carries its local grid: its start, the global grid
points inside it and its end, with near-duplicate times dropped; an OL
grid that reaches the horizon runs on until L(t) covers the interval,
and raises ValueError if that takes longer than _EXT_SPAN.  The Gaussian
layer builds every interval's variances on that grid and reads them back
onto the global grid through the interval's index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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

_QTILDE_FLOOR = 1e-12     # minimum admissible boundary density
_DEDUPE_TOL = 1e-9        # local-grid times closer than this are merged
_BLOCK_NODES = 256 * 129  # age_integrals (rows x nodes) reduced at a time
_PANEL_AGE = 1.0          # longest age panel: GL-16 resolves sin(c x) to c ~ 15
_EXT_SPAN = 1000.0        # longest continuation past the horizon
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


@dataclass
class FluidInterval:
    kind: str
    start: float
    end: float
    i0: int                     # first global grid index with t >= start
    i1: int                     # last global grid index with t <= end
    y0: float | None = None     # state at start: X in UL, w in OL
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


def _rk4(term, stage, t, y, h, k1):
    """One RK4 step of y' = stage(t, y, term(t)) from (t, y), whose
    derivative k1 the caller has; returns y(t + h), t + h and term(t + h).
    The midpoint term serves k2 and k3."""
    tm = t + 0.5 * h
    te = t + h
    g_mid = term(tm)
    g_end = term(te)
    k2 = stage(tm, y + 0.5 * h * k1, g_mid)
    k3 = stage(tm, y + 0.5 * h * k2, g_mid)
    k4 = stage(te, y + h * k3, g_end)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), te, g_end


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
    """Scalar evaluators bound to one spec.  `ode[kind]` is the regime's
    state ODE y' = stage(t, y, term(t)) split into its time-only term and
    its stage: X' = lambda - mu X in UL, the HWT ODE with b(t,0) in OL.
    b0 and the two stages are built once per solve as closures over mu
    and the spec's bound scalar methods, so a stage call looks up no
    attribute and evaluates the model through those methods."""

    def __init__(self, spec: ModelSpec):
        mu = self.mu = spec.mu
        lam = self.lam = spec.arrival_rate.scalar
        s = self.s = spec.staffing.scalar
        s_d = spec.staffing.scalar_deriv
        fc = self.fc = spec.patience.survival_scalar

        def b0(t):
            return s(t) * mu + s_d(t)

        def ul_stage(t, x, lam_t):
            """Xdot in underload given lam_t = lambda(t)."""
            return lam_t - mu * x

        def ol_stage(t, w, b):
            """wdot in overload given b = b0(t); the one check of the OL
            state: the boundary density stays above its floor, then b(t,0)
            above 0."""
            q = lam(t - w) * fc(w)
            if q < _QTILDE_FLOOR:
                raise BoundaryDensityError(
                    f"queue boundary density vanished at t={t:.6f}"
                )
            if b <= 0.0:
                raise StaffingInfeasibleError(
                    f"staffing infeasible in overload: b(t,0) <= 0 at t={t:.6f}"
                )
            return 1.0 - b / q

        self.b0, self.ul_stage, self.ol_stage = b0, ul_stage, ol_stage
        self.ode = {UL: (lam, ul_stage), OL: (b0, ol_stage)}


def solve_fluid(spec: ModelSpec, step: float = 1e-3) -> FluidSolution:
    """Solve the fluid model on a uniform grid of step `step`.

    The step may not exceed the horizon, nor 1/mu, an accuracy bound:
    RK4 damps X' = -mu X up to mu*step = 2.785, but its decay factor per
    step is 0.375 against e^-1 = 0.368 at mu*step = 1 and 0.648 against
    e^-2.5 = 0.082 at 2.5.
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

    Y = np.zeros(n + 1)         # the sweeps' state: X in UL, w in OL
    Ydot = np.zeros(n + 1)
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
    y = spec.x0 if kind == UL else 0.0
    times = memoryview(grid)    # indexes to plain floats for the scalar sweep

    while k <= n:
        try:
            t_cur, k, iv = _sweep(ctx, kind, times, Y, Ydot, t_cur, k, y)
        except OverflowError as exc:
            # a stiff OL step (patience hazard * step >> 1) can throw w far
            # negative, where Fc(w) overflows
            raise ValueError(f"grid step {step:g} too coarse: the {kind} sweep from "
                             f"t={t_cur:.6f} overflowed ({exc})") from exc
        intervals.append(iv)
        if k > n:
            break
        switches.append(t_cur)
        kind, y = (OL, 0.0) if kind == UL else (UL, ctx.s(t_cur))

    ol = np.zeros(n + 1, dtype=bool)
    qtilde_w = np.full(n + 1, np.nan)
    b0 = np.full(n + 1, np.nan)
    Q = np.zeros(n + 1)
    alpha = np.zeros(n + 1)
    v = np.zeros(n + 1)          # potential wait L^{-1}(t) - t, zero in UL
    X = Y.copy()
    B = Y.copy()

    lam_grid = np.asarray(spec.arrival_rate(grid), dtype=float)
    for iv in [iv for iv in intervals if iv.kind == OL]:
        iv.Q_loc, alpha_loc, iv.Q2_loc = age_integrals(
            spec.arrival_rate, spec.patience, iv.t_loc[: iv.n_in], iv.w_loc[: iv.n_in])
        sl = slice(iv.i0, iv.i1 + 1)
        ol[sl] = True
        ts = grid[sl]
        ws = Y[sl]
        qtilde_w[sl] = (np.asarray(spec.arrival_rate(ts - ws), dtype=float)
                        * np.asarray(spec.patience.survival(ws), dtype=float))
        svals = np.asarray(spec.staffing(ts), dtype=float)
        b0[sl] = svals * spec.mu + np.asarray(spec.staffing.deriv(ts), dtype=float)
        Q[sl] = iv.Q_loc[iv.idx]
        alpha[sl] = alpha_loc[iv.idx]
        X[sl] = svals + Q[sl]
        B[sl] = svals
        v[sl] = iv.l_inverse(ts) - ts
    w = np.where(ol, Y, 0.0)
    wdot = np.where(ol, Ydot, 0.0)

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


def _sweep(ctx, kind, grid, Y, Ydot, start, k, y):
    """Integrate regime `kind` from state y at `start` over grid[k:] until
    it ends or the horizon; returns (end, next grid index, interval).

    The state is X in UL, which ends when X reaches s(t), and w in OL,
    which ends when w returns to zero; grid point k receives it in Y[k]
    and its derivative in Ydot[k].  A start within 1e-14 of grid[k] snaps
    to it, and the first k1 is evaluated at the snapped time.  A step's
    end term serves the next k1 when te == grid[k] bit for bit (always on
    a uniform grid, by Sterbenz's lemma); otherwise grid[k] is evaluated
    again.
    """
    n = len(grid) - 1
    i0 = k
    term, stage = ctx.ode[kind]
    ul, s = kind == UL, ctx.s
    snap = k <= n and abs(grid[k] - start) < 1e-14
    t_prev = grid[k] if snap else start
    f_prev = stage(t_prev, y, term(t_prev))
    loc = [(start, y, f_prev)]       # the local grid's (t, y, ydot)
    if snap:
        Y[k], Ydot[k] = y, f_prev
        k += 1
    while k <= n:
        tk = grid[k]
        y_new, te, g_end = _rk4(term, stage, t_prev, y, tk - t_prev, f_prev)
        if y_new - s(tk) >= 0.0 if ul else y_new <= 0.0:
            if not ul and y <= 0.0:
                # w back to zero within the interval's first step; so no
                # OL interval is without a grid point
                raise CriticalLoadingError(f"non-isolated critical loading near t={t_prev:.6f}")

            def edge(tc):
                # crossed inside (t_prev, grid[k]]: UL X - s, OL w, after
                # one RK4 step from the last grid point
                yc = _rk4(term, stage, t_prev, y, tc - t_prev, f_prev)[0]
                return yc - s(tc) if ul else yc

            tau = _bisect(edge, t_prev, tk, edge(t_prev))
            lam, b = ctx.lam(tau), ctx.b0(tau)
            if lam - b <= 1e-9 if ul else lam >= b - 1e-9:
                raise CriticalLoadingError(
                    f"non-isolated critical loading near t={tau:.6f}" + ("" if ul else
                    " (waiting time grazed zero while still overloaded)"))
            y_tau = s(tau) if ul else 0.0
            loc.append((tau, y_tau, stage(tau, y_tau, term(tau))))
            iv = FluidInterval(kind, start, tau, i0, k - 1)
            return tau, k, _attach_local(iv, grid, loc)
        f_prev = stage(tk, y_new, g_end if te == tk else term(tk))
        Y[k], Ydot[k] = y_new, f_prev
        loc.append((tk, y_new, f_prev))
        t_prev, y = tk, y_new
        k += 1
    if not ul:
        _extend_ol(ctx, grid[n], y, f_prev, loc)
    iv = FluidInterval(kind, start, grid[n], i0, n)
    return grid[n], n + 1, _attach_local(iv, grid, loc)


def _attach_local(iv, grid, loc):
    """Give iv its start state, local grid and index map from loc, a list
    of (t, y, ydot) from the start; an OL interval keeps y and ydot as
    w_loc and wdot_loc.  A time within _DEDUPE_TOL of the one before it is
    dropped with its values.  Returns iv."""
    t, y, ydot = np.fromiter(chain.from_iterable(loc), float, 3 * len(loc)).reshape(-1, 3).T
    keep = np.concatenate([[True], np.diff(t) > _DEDUPE_TOL])
    iv.y0 = loc[0][1]
    iv.t_loc = t[keep]
    if iv.kind == OL:
        iv.w_loc, iv.wdot_loc = y[keep], ydot[keep]
    iv.idx = np.searchsorted(iv.t_loc, np.asarray(grid[iv.i0 : iv.i1 + 1]) - 1e-9)
    return iv


def _extend_ol(ctx, t_end, w, wdot, loc):
    """Continue the OL local grid loc past the horizon t_end, in steps of
    1e-3, until L(t) = t - w(t) covers the whole interval; wdot is w's
    derivative at (t_end, w).  Raises ValueError if L(t) is still short of
    t_end after _EXT_SPAN: the potential wait is then undefined there."""
    b0, stage = ctx.ode[OL]
    h = 1e-3
    t = t_end
    while t - w < t_end and w > 0.0 and t < t_end + _EXT_SPAN:
        w, t, b = _rk4(b0, stage, t, w, h, wdot)
        w = max(w, 0.0)
        wdot = stage(t, w, b)
        loc.append((t, w, wdot))
    if t - w < t_end:
        raise ValueError(f"the potential wait near the horizon T={t_end:g} is "
                         f"undefined: continued to t={t:.6f}, t - w(t) is still below T")


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
