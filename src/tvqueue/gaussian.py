"""Second-order (Gaussian) approximation: variance and covariance grids.

propagate() walks the interval partition and hands the content variance
at each switching point to the next interval as its initial-condition
variance.  Each interval is solved on the local grid the fluid solution
gives it (FluidInterval.t_loc) by one function, and its columns reach the
global grid through the fluid's reader of local columns (fluid._on_grid).
Underloaded intervals read the infinite-server variance from the fluid
content (var_UL).  An overloaded interval's columns come from _ol_columns:
its kernel grids (IntervalKernels: the relaxation exponent h, its
cumulative integral G and the three noise intensities of arrival,
service and abandonment) span the local grid, the continuation past the
horizon included.  Each variance solves a linear ODE x' = G' x + f from
the interval's start by one overflow-safe cumulative Simpson filter on
the irregular local grid (_filter); the three waiting-time sources share
one exponent and run as one stacked filter.  The potential-wait variance
is read at the exit times t + v(t) the fluid solve keeps
(FluidInterval.u_loc) through one stacked cubic Hermite interpolant
(functions.PiecewisePolyFn.hermite) whose slopes come from the ODEs.
w, wdot, the boundary density, b(t,0) and the queue-noise age integrals
are the fluid's; no age matrix is formed here.
mean_shift_refined differentiates the fluid solve along the refinement
terms; it keeps no copy of the fluid dynamics.

Queue-length and in-service variances are deliberately not emitted as
limit quantities: the limits are discontinuous at switching points.
Distributional summaries live in the approx module.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .fluid import (UL, FluidInterval, FluidSolution, _cumquad, _on_grid, _starts_on_boundary,
                    _step_tolerance, ol_rates, solve_fluid)
from .functions import PiecewisePolyFn, SumFn
from .model import ModelSpec, write_columns

# largest move of a filter's exponent between restarts; exp(300) ~ 1e130
_SPAN = 300.0

__all__ = [
    "IntervalKernels",
    "GaussianSolution",
    "MeanShift",
    "var_UL",
    "propagate",
    "mean_shift_refined",
    "write_gaussian_csv",
]


def _filter(G, f, tau, x0=0.0):
    """x = exp(G) (x0 + int exp(-G) f) on the grid tau by _cumquad: the
    solution of x' = G' x + f from x0, for a cumulative exponent G[0] = 0.
    A (rows x points) f solves one ODE per row with the same exponent.

    The quadrature restarts from the previous point, carrying x, wherever
    G has moved more than _SPAN since the last restart, so neither
    exponential overflows.  A block holds at least one step; a single
    step that moves G further has its exponent clipped to _SPAN.
    """
    x = np.full(np.shape(f), float(x0))
    s, last = 0, len(tau) - 1
    while s < last:
        far = np.flatnonzero(np.abs(G[s:] - G[s]) > _SPAN)
        e = last if far.size == 0 else s + max(int(far[0]) - 1, 1)
        d = np.clip(G[s : e + 1] - G[s], -_SPAN, _SPAN)
        x[..., s : e + 1] = np.exp(d) * (
            x[..., s, None] + _cumquad(np.exp(-d) * f[..., s : e + 1], tau[s : e + 1]))
        s = e
    return x


class IntervalKernels(SimpleNamespace):
    """Kernel grids for one overloaded interval, on its local grid
    interval.t_loc (start, interior grid points, end, continuation);
    tau = t - start.  w, wdot and the boundary density are the interval's
    (y_loc, ydot_loc, qw_loc)."""

    interval: FluidInterval
    tau: np.ndarray
    h: np.ndarray           # waiting-time relaxation exponent
    G: np.ndarray           # cumulative integral of h
    I1: np.ndarray          # arrival noise intensity
    I2: np.ndarray          # service noise intensity
    I3: np.ndarray          # abandonment noise intensity
    hFw: np.ndarray         # patience hazard at the boundary age w
    Fwc: np.ndarray         # exp(-int of hFw): initial-content survival

    @staticmethod
    def build(interval: FluidInterval, spec: ModelSpec):
        t, w, wdot = interval.t_loc, interval.y_loc, interval.ydot_loc
        qw, b0 = interval.qw_loc, interval.b0_loc
        tau = t - interval.start
        lam_tw = np.asarray(spec.arrival_rate(t - w), dtype=float)
        lamd_tw = np.asarray(spec.arrival_rate.deriv(t - w), dtype=float)
        Fcw, fw = (np.asarray(a, dtype=float) for a in spec.patience.survival_pdf(w))
        # F by the cdf, precise near w = 0 where 1 - Fc cancels
        Fw = np.asarray(spec.patience.cdf(w), dtype=float)
        hFw = fw / Fcw          # patience hazard at the boundary age
        sdot = np.asarray(spec.staffing.deriv(t), dtype=float)
        h = (1.0 - wdot) * (-lamd_tw / lam_tw - hFw)
        I1 = spec.c_lambda * np.sqrt(Fcw * b0) / qw
        I2 = -np.sqrt(np.maximum(b0 - sdot, 0.0)) / qw
        I3 = -np.sqrt(Fw * b0) / qw
        return IntervalKernels(interval=interval, tau=tau, h=h, G=_cumquad(h, tau),
                               I1=I1, I2=I2, I3=I3, hFw=hFw,
                               Fwc=np.exp(-_cumquad(hFw, tau)))


def _ol_columns(iv: FluidInterval, spec: ModelSpec, varX0: float) -> dict:
    """The variance columns of an overloaded interval on its local grid,
    from the content variance varX0 at its start; var_X, var_W, var_V and
    the content parts end at the interval's end (iv.n_in points).

    The three waiting-time sources solve v' = 2 h v + I_i^2 from v = 0 as
    one stacked filter; each content part is its queue noise, from the
    age integrals Q_loc and Q2_loc, plus its waiting-time feedback qw^2 v.
    The potential-waiting variance reads the head-of-line variance at the
    exit times u = t + v(t) = L^{-1}(t) (iv.u_loc, past the horizon on the
    continuation): w from the interval's path, wdot and b(t,0) by the
    fluid's OL stage, and var_Wstar and Fwc through one stacked cubic
    Hermite interpolant whose knot slopes are the exact ODE derivatives,
    d var_Wstar/dt = 2 h var_Wstar + I1^2 + I2^2 + I3^2 and
    d Fwc/dt = -hFw Fwc.
    """
    k = IntervalKernels.build(iv, spec)
    m, qw, Fwc = iv.n_in, iv.qw_loc, k.Fwc
    sq = np.stack((k.I1, k.I2, k.I3)) ** 2
    w_parts = _filter(2.0 * k.G, sq, k.tau)
    vws = w_parts[0] + w_parts[1] + w_parts[2]
    q2 = qw[:m] ** 2
    x_lam = spec.c_lambda ** 2 * iv.Q2_loc + q2 * w_parts[0][:m]
    x_s = q2 * w_parts[1][:m]
    x_a = (iv.Q_loc - iv.Q2_loc) + q2 * w_parts[2][:m]
    vxs = x_lam + x_s + x_a
    u = iv.u_loc
    wdot_u, _, b0_u = ol_rates(spec, u, iv.path(u))
    vws_u, fwc_u = PiecewisePolyFn.hermite(
        iv.t_loc, np.stack((vws, Fwc)),
        np.stack((2.0 * k.h * vws + (sq[0] + sq[1] + sq[2]), -k.hFw * Fwc)))(u)
    vvs = np.maximum(vws_u, 0.0) / (1.0 - wdot_u) ** 2
    # each content kernel is the matching waiting-time kernel times the
    # boundary density, so the cross integral factorizes
    return {"var_X": vxs + varX0 * Fwc[:m] ** 2, "var_Xstar": vxs,
            "var_W": vws[:m] + varX0 * Fwc[:m] ** 2 / qw[:m] ** 2, "var_Wstar": vws,
            "var_V": vvs + varX0 * fwc_u ** 2 / b0_u ** 2, "var_Vstar": vvs,
            "cov_XW": qw * vws, "Fwc": Fwc,
            "var_X_lambda": x_lam, "var_X_s": x_s, "var_X_a": x_a}


def var_UL(spec: ModelSpec, interval: FluidInterval, varX0: float) -> np.ndarray:
    """Content-deviation variance in an underloaded interval, on its local
    grid interval.t_loc, from the initial-condition variance varX0.

    Infinite-server form from the fluid content X = interval.y_loc: the
    Poisson arrivals still present have variance X - X0 exp(-mu tau), each
    initial customer stays with probability exp(-mu tau), and renewal
    arrivals add (c_lambda^2 - 1) int exp(-2 mu (tau - u)) lambda(u) du.
    """
    X, tau = interval.y_loc, interval.t_loc - interval.start
    var = X - (X[0] - varX0) * np.exp(-2.0 * spec.mu * tau)
    c2 = spec.c_lambda ** 2
    if c2 != 1.0:
        lam = np.asarray(spec.arrival_rate(interval.t_loc), dtype=float)
        var = var + (c2 - 1.0) * _filter(-2.0 * spec.mu * tau, lam, tau)
    return var


class GaussianSolution(SimpleNamespace):
    fluid: FluidSolution
    grid: np.ndarray
    var_X: np.ndarray
    var_Xstar: np.ndarray
    var_W: np.ndarray
    var_Wstar: np.ndarray
    var_V: np.ndarray
    var_Vstar: np.ndarray
    cov_XW: np.ndarray
    Fwc: np.ndarray
    var_X_lambda: np.ndarray
    var_X_s: np.ndarray
    var_X_a: np.ndarray
    interval_var0: list         # (kind, start, Var(X deviation) at start)


def propagate(fluid: FluidSolution) -> GaussianSolution:
    """Assemble all variance grids over the full horizon.

    Walks the interval partition in order, handing each interval the
    content variance reached at the end of the previous one as its
    initial-condition variance.
    """
    spec = fluid.spec
    interval_var0, parts = [], []
    varX0 = spec.var_x0

    for iv in fluid.intervals:
        interval_var0.append((iv.kind, iv.start, varX0))
        parts.append({"var_X": var_UL(spec, iv, varX0)} if iv.kind == UL
                     else _ol_columns(iv, spec, varX0))
        varX0 = float(parts[-1]["var_X"][-1])

    # var_W and var_V are zero in UL, the OL-only grids nan
    ol_only = ("var_Xstar", "var_Wstar", "var_Vstar", "cov_XW", "Fwc", "var_X_lambda",
               "var_X_s", "var_X_a")
    cols = _on_grid(fluid.intervals, len(fluid.grid), parts,
                    {"var_W": 0.0, "var_V": 0.0, **dict.fromkeys(ol_only, np.nan)})
    return GaussianSolution(fluid=fluid, grid=fluid.grid, interval_var0=interval_var0, **cols)


class MeanShift(SimpleNamespace):
    grid: np.ndarray
    mean_X: np.ndarray
    mean_W: np.ndarray


def mean_shift_refined(fluid: FluidSolution) -> MeanShift:
    """Order-sqrt(n) deterministic mean corrections from the refined
    arrival-rate and staffing scaling of fluid.spec: the derivative of
    the fluid content and wait along (arrival_rate_g, staffing_g), as the
    central difference of two fluid solves at fluid.step, on the spec
    moved by +-eps, eps = _step_tolerance(fluid.step)^(1/3).  Each moved
    solve finds its own switch times.  A start on the staffing boundary
    (fluid._starts_on_boundary) moves with s, so both moved specs start
    in its regime.
    """
    spec = fluid.spec
    if spec.arrival_rate_g is None or spec.staffing_g is None:
        raise ValueError("refined terms not specified")
    eps = _step_tolerance(fluid.step) ** (1.0 / 3.0)
    on_boundary = _starts_on_boundary(spec)

    def moved(c):
        return solve_fluid(ModelSpec(**{
            **vars(spec),
            "arrival_rate": SumFn(spec.arrival_rate, spec.arrival_rate_g, c),
            "staffing": SumFn(spec.staffing, spec.staffing_g, c),
            "x0": spec.x0 + c * spec.staffing_g.scalar(0.0) if on_boundary else spec.x0,
        }), fluid.step)

    up, down = moved(eps), moved(-eps)
    return MeanShift(grid=fluid.grid, mean_X=(up.X - down.X) / (2.0 * eps),
                     mean_W=(up.w - down.w) / (2.0 * eps))


def write_gaussian_csv(gs: GaussianSolution, path):
    write_columns(path, {
        "t": gs.grid, "var_X": gs.var_X, "var_Xstar": gs.var_Xstar,
        "var_W": gs.var_W, "var_Wstar": gs.var_Wstar, "var_V": gs.var_V,
        "cov_XW": gs.cov_XW, "Fwc": gs.Fwc, "var_X_lambda": gs.var_X_lambda,
        "var_X_s": gs.var_X_s, "var_X_a": gs.var_X_a,
    })
