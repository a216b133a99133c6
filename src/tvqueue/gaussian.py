"""Second-order (Gaussian) approximation: variance and covariance grids.

Overloaded intervals carry the kernel grids: the relaxation exponent h,
its cumulative integral G and the three noise intensities (arrival,
service, abandonment).  Each variance solves a linear ODE x' = G' x + f
from its interval's start by one overflow-safe cumulative Simpson filter
on the irregular local grid (_filter); the three waiting-time sources
share one exponent and run as one stacked filter.  The potential-wait
variance takes the exit times t + v(t) from the fluid solve
(FluidInterval.u_loc), reads w there from the interval's path, wdot and
b(t,0) by the fluid's OL stage (fluid.ol_rates), and its two variance
grids through one stacked cubic Hermite interpolant
(functions.PiecewisePolyFn.hermite) whose slopes come from the ODEs.
Underloaded intervals read the infinite-server variance from the fluid
content (var_UL).  Every interval is solved on the local grid the fluid
solution gives it (FluidInterval.t_loc), and its variances reach the
global grid through the fluid's reader of local columns (fluid._on_grid);
the 1-D kernels also span an OL grid's continuation past the horizon.
w, wdot, the boundary density, b(t,0) and the queue-noise age integrals
are the fluid's; no age matrix is formed here.
propagate() walks the interval partition and hands the content variance
at each switching point to the next interval as its initial-condition
variance.
mean_shift_refined differentiates the fluid solve along the refinement
terms; it keeps no copy of the fluid dynamics.

Queue-length and in-service variances are deliberately not emitted as
limit quantities: the limits are discontinuous at switching points.
Distributional summaries live in the approx module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fluid import (UL, FluidInterval, FluidSolution, _cumquad, _on_grid, _step_tolerance,
                    ol_rates, solve_fluid)
from .functions import PiecewisePolyFn, SumFn
from .model import ModelSpec, write_columns

# largest move of a filter's exponent between restarts; exp(300) ~ 1e130
_SPAN = 300.0

__all__ = [
    "IntervalKernels",
    "GaussianSolution",
    "MeanShift",
    "var_W_V",
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


@dataclass
class IntervalKernels:
    """Kernel grids for one overloaded interval.

    Local times t are absolute; tau = t - start.  All arrays share the
    interval's local grid (start, interior grid points, end, continuation).
    """

    interval: FluidInterval
    spec: ModelSpec
    t: np.ndarray
    tau: np.ndarray
    w: np.ndarray
    wdot: np.ndarray
    qw: np.ndarray          # boundary queue density lambda(t-w) Fc(w)
    h: np.ndarray           # waiting-time relaxation exponent
    G: np.ndarray           # cumulative integral of h
    I1: np.ndarray          # arrival noise intensity
    I2: np.ndarray          # service noise intensity
    I3: np.ndarray          # abandonment noise intensity
    Isq: np.ndarray         # I1^2 + I2^2 + I3^2
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
        G = _cumquad(h, tau)
        I1 = spec.c_lambda * np.sqrt(Fcw * b0) / qw
        I2 = -np.sqrt(np.maximum(b0 - sdot, 0.0)) / qw
        I3 = -np.sqrt(Fw * b0) / qw
        Isq = I1 ** 2 + I2 ** 2 + I3 ** 2
        Fwc = np.exp(-_cumquad(hFw, tau))
        return IntervalKernels(
            interval=interval, spec=spec, t=t, tau=tau, w=w, wdot=wdot, qw=qw,
            h=h, G=G, I1=I1, I2=I2, I3=I3, Isq=Isq, hFw=hFw, Fwc=Fwc,
        )


def _var_w_star_parts(k: IntervalKernels):
    """Per-source waiting-time deviation variances on the interval grid,
    one row per source (arrival, service, abandonment), each the solution
    of v' = 2 h v + I_i^2 from v = 0: one filter pass for all three."""
    return _filter(2.0 * k.G, np.stack((k.I1, k.I2, k.I3)) ** 2, k.tau)


def _var_x_star_parts(k: IntervalKernels, w_parts):
    """Per-source content-deviation variances (queue noise from the age
    integrals Q_loc, Q2_loc + waiting-time feedback, w_parts =
    _var_w_star_parts(k)) on the local points up to the interval's end."""
    iv = k.interval
    q2 = k.qw[: iv.n_in] ** 2
    part_lam = k.spec.c_lambda ** 2 * iv.Q2_loc + q2 * w_parts[0][: iv.n_in]
    part_s = q2 * w_parts[1][: iv.n_in]
    part_a = (iv.Q_loc - iv.Q2_loc) + q2 * w_parts[2][: iv.n_in]
    return part_lam, part_s, part_a


def var_W_V(kernels: IntervalKernels, vws: np.ndarray, varX0: float):
    """(var_W, var_V, var_Vstar) on the local points up to the interval's
    end, from vws, the zero-start head-of-line variance on the local grid.

    The potential-waiting variance reads the head-of-line variance at the
    virtual exit times u = t + v(t) = L^{-1}(t), which the fluid solve
    keeps (interval.u_loc) and the continuation past the horizon keeps on
    the local grid: w from the interval's path, wdot and b(t,0) by the
    fluid's OL stage, and vws and Fwc through one stacked cubic Hermite
    interpolant, one knot search for both, whose knot slopes are the
    exact ODE derivatives, d vws/dt = 2 h vws + Isq and
    d Fwc/dt = -hFw Fwc.
    """
    k = kernels
    m = k.interval.n_in
    var_W = vws[:m] + varX0 * k.Fwc[:m] ** 2 / k.qw[:m] ** 2
    u = k.interval.u_loc
    wdot_u, _, b0_u = ol_rates(k.spec, u, k.interval.path(u))
    vws_u, fwc_u = PiecewisePolyFn.hermite(
        k.t, np.stack((vws, k.Fwc)), np.stack((2.0 * k.h * vws + k.Isq, -k.hFw * k.Fwc)))(u)
    var_Vstar = np.maximum(vws_u, 0.0) / (1.0 - wdot_u) ** 2
    return var_W, var_Vstar + varX0 * fwc_u ** 2 / b0_u ** 2, var_Vstar


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


@dataclass
class GaussianSolution:
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
        if iv.kind == UL:
            vx = var_UL(spec, iv, varX0)
            parts.append({"var_X": vx})
        else:
            k = IntervalKernels.build(iv, spec)
            w_parts = _var_w_star_parts(k)
            x_parts = _var_x_star_parts(k, w_parts)
            vxs = x_parts[0] + x_parts[1] + x_parts[2]
            vx = vxs + varX0 * k.Fwc[: iv.n_in] ** 2
            vws = w_parts[0] + w_parts[1] + w_parts[2]
            vw, vv, vvs = var_W_V(k, vws, varX0)
            # each content kernel is the matching waiting-time kernel times
            # the boundary density, so the cross integral factorizes
            parts.append({
                "var_X": vx, "var_Xstar": vxs, "var_W": vw, "var_Wstar": vws,
                "var_V": vv, "var_Vstar": vvs, "cov_XW": k.qw * vws, "Fwc": k.Fwc,
                "var_X_lambda": x_parts[0], "var_X_s": x_parts[1], "var_X_a": x_parts[2]})
        varX0 = float(vx[-1])

    # var_W and var_V are zero in UL, the OL-only grids nan
    ol_only = ("var_Xstar", "var_Wstar", "var_Vstar", "cov_XW", "Fwc", "var_X_lambda",
               "var_X_s", "var_X_a")
    cols = _on_grid(fluid.intervals, len(fluid.grid), parts,
                    {"var_W": 0.0, "var_V": 0.0, **dict.fromkeys(ol_only, np.nan)})
    return GaussianSolution(fluid=fluid, grid=fluid.grid, interval_var0=interval_var0, **cols)


@dataclass
class MeanShift:
    grid: np.ndarray
    mean_X: np.ndarray
    mean_W: np.ndarray


def mean_shift_refined(fluid: FluidSolution) -> MeanShift:
    """Order-sqrt(n) deterministic mean corrections from the refined
    arrival-rate and staffing scaling of fluid.spec: the derivative of
    the fluid content and wait along (arrival_rate_g, staffing_g), as the
    central difference of two fluid solves at fluid.step, on the spec
    moved by +-eps, eps = _step_tolerance(fluid.step)^(1/3).  Each moved
    solve finds its own switch times.  A start on the staffing boundary,
    x0 = s(0), moves with s, so both moved specs start in its regime.
    """
    spec = fluid.spec
    if spec.arrival_rate_g is None or spec.staffing_g is None:
        raise ValueError("refined terms not specified")
    eps = _step_tolerance(fluid.step) ** (1.0 / 3.0)
    on_boundary = spec.x0 >= spec.staffing.scalar(0.0) - 1e-12

    def moved(c):
        return solve_fluid(replace(
            spec,
            arrival_rate=SumFn(spec.arrival_rate, spec.arrival_rate_g, c),
            staffing=SumFn(spec.staffing, spec.staffing_g, c),
            x0=spec.x0 + c * spec.staffing_g.scalar(0.0) if on_boundary else spec.x0,
        ), fluid.step)

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
