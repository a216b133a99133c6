"""Second-order (Gaussian) approximation: variance and covariance grids.

Overloaded intervals carry the full kernel machinery: the relaxation
exponent h, the propagator H(t,u) = Hc(t)/Hc(u), the three noise
intensities (arrival, service, abandonment) and the cumulative
quadratures built from them.  Underloaded intervals use the closed-form
infinite-server variances.  propagate() walks the interval partition and
hands the content variance at each switching point to the next interval
as its initial-condition variance.

Queue-length and in-service variances are deliberately not emitted as
limit quantities: the limits are discontinuous at switching points.
Distributional summaries live in the approx module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, cumulative_simpson, simpson
from scipy.interpolate import CubicSpline

from .fluid import (
    _QTILDE_FLOOR,
    UL,
    BoundaryDensityError,
    FluidInterval,
    FluidSolution,
    swept_integral,
)
from .model import ModelSpec, write_columns

__all__ = [
    "IntervalKernels",
    "GaussianSolution",
    "ULVariances",
    "MeanShift",
    "build_kernels",
    "var_W_star",
    "var_X_star",
    "var_X_star_kernel",
    "var_W_V",
    "var_UL",
    "propagate",
    "mean_shift_refined",
    "write_gaussian_csv",
]

_KERNEL_NODES = 801     # Simpson nodes for the kernel cross-check integrals
_DEDUPE_TOL = 1e-9


def _cumquad(y, x):
    """Cumulative integral of samples y over x, fourth order when possible."""
    if len(x) < 3:
        return cumulative_trapezoid(y, x, initial=0.0)
    return cumulative_simpson(y, x=x, initial=0.0)


def _dedupe(t, *arrays):
    keep = np.concatenate([[True], np.diff(t) > _DEDUPE_TOL])
    return (t[keep],) + tuple(a[keep] for a in arrays)


@dataclass
class IntervalKernels:
    """Kernel grids for one overloaded interval.

    Local times t are absolute; tau = t - start.  All arrays share the
    interval's anchor grid (start, interior grid points, end).
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
    Hc: np.ndarray          # exp(G)
    I1: np.ndarray          # arrival noise intensity
    I2: np.ndarray          # service noise intensity
    I3: np.ndarray          # abandonment noise intensity
    Isq: np.ndarray         # I1^2 + I2^2 + I3^2
    Fwc: np.ndarray         # exp(-int of the hazard at w): initial-content survival

    @property
    def start(self):
        return self.interval.start

    def _G_at(self, t):
        return np.interp(t, self.t, self.G)

    def _w_at(self, t):
        return np.interp(t, self.t, self.w)

    def _qw_at(self, t):
        t = np.asarray(t, dtype=float)
        wv = self._w_at(t)
        return np.asarray(self.spec.arrival_rate(t - wv), dtype=float) * np.asarray(
            self.spec.patience.survival(wv), dtype=float
        )

    def H(self, t, u):
        """Propagator of the waiting-time deviation from time u to t."""
        return np.exp(self._G_at(t) - self._G_at(u))

    def K(self, i, t, u):
        """Content-deviation kernels K_i(t, u), scalar t, vectorized u.

        For the arrival and abandonment sources the kernel is piecewise:
        mass that entered after t - w(t) is still in queue and is weighted
        by its own survival; older mass acts through the waiting-time
        deviation, routed along u -> L^{-1}(u) and propagated by H.
        """
        u = np.asarray(u, dtype=float)
        spec = self.spec
        t = float(t)
        wt = self._w_at(t)
        qwt = float(self._qw_at(t))
        lam_u = np.asarray(spec.arrival_rate(u), dtype=float)
        if i == 2:
            sv = np.asarray(spec.staffing(u), dtype=float)
            return -qwt * np.sqrt(spec.mu * sv) / self._qw_at(u) * self.H(t, u)
        split = t - wt
        age = t - u
        Fc_age = np.asarray(spec.patience.survival(age), dtype=float)
        F_age = np.asarray(spec.patience.cdf(age), dtype=float)
        if i == 1:
            upper = spec.c_lambda * np.sqrt(lam_u) * Fc_age
        else:
            upper = -np.sqrt(lam_u * Fc_age * F_age)
        r = self.interval.l_inverse(u)
        wr = self._w_at(r)
        Fcwr = np.asarray(spec.patience.survival(wr), dtype=float)
        qwr = np.asarray(spec.arrival_rate(r - wr), dtype=float) * Fcwr
        Hr = self.H(t, r)
        if i == 1:
            lower = spec.c_lambda * np.sqrt(lam_u) * Fcwr / qwr * qwt * Hr
        else:
            Fwr = np.asarray(spec.patience.cdf(wr), dtype=float)
            lower = -np.sqrt(lam_u * Fcwr * Fwr) / qwr * qwt * Hr
        return np.where(u > split, upper, lower)

    @staticmethod
    def build(interval: FluidInterval, spec: ModelSpec):
        t, w, wdot = _dedupe(interval.t_loc, interval.w_loc, interval.wdot_loc)
        tau = t - interval.start
        lam_tw = np.asarray(spec.arrival_rate(t - w), dtype=float)
        lamd_tw = np.asarray(spec.arrival_rate.deriv(t - w), dtype=float)
        Fcw = np.asarray(spec.patience.survival(w), dtype=float)
        Fw = np.asarray(spec.patience.cdf(w), dtype=float)
        fw = np.asarray(spec.patience.pdf(w), dtype=float)
        qw = lam_tw * Fcw
        if np.min(qw) < _QTILDE_FLOOR:
            raise BoundaryDensityError("boundary density vanished")
        hFw = fw / Fcw          # patience hazard at the boundary age
        sv = np.asarray(spec.staffing(t), dtype=float)
        sdot = np.asarray(spec.staffing.deriv(t), dtype=float)
        b0 = sv * spec.mu + sdot
        h = (1.0 - wdot) * (-lamd_tw / lam_tw - hFw)
        G = _cumquad(h, tau)
        Hc = np.exp(G)
        I1 = spec.c_lambda * np.sqrt(Fcw * b0) / qw
        I2 = -np.sqrt(np.maximum(b0 - sdot, 0.0)) / qw
        I3 = -np.sqrt(Fw * b0) / qw
        Isq = I1 ** 2 + I2 ** 2 + I3 ** 2
        Fwc = np.exp(-_cumquad(hFw, tau))
        return IntervalKernels(
            interval=interval, spec=spec, t=t, tau=tau, w=w, wdot=wdot, qw=qw,
            h=h, G=G, Hc=Hc, I1=I1, I2=I2, I3=I3, Isq=Isq, Fwc=Fwc,
        )


def build_kernels(fluid: FluidSolution) -> list:
    """Kernel grids for all OL intervals of the fluid solution, in order."""
    return [IntervalKernels.build(iv, fluid.spec) for iv in fluid.ol_intervals()]


def _var_w_star_parts(k: IntervalKernels):
    """Per-source waiting-time deviation variances on the interval grid.

    The propagator factorizes, so each variance is a single cumulative
    quadrature: Hc(t)^2 * int_0^t I_i(u)^2 / Hc(u)^2 du.
    """
    scale = k.Hc ** 2
    parts = []
    for Ii in (k.I1, k.I2, k.I3):
        parts.append(scale * _cumquad(Ii ** 2 / k.Hc ** 2, k.tau))
    return parts


def var_W_star(kernels: IntervalKernels) -> np.ndarray:
    """Variance of the scaled head-of-line waiting-time deviation."""
    p1, p2, p3 = _var_w_star_parts(kernels)
    return p1 + p2 + p3


def _var_x_star_parts(k: IntervalKernels, w_parts):
    """Per-source content-deviation variances (queue noise + waiting-time
    feedback, w_parts = _var_w_star_parts(k)) evaluated by the direct
    formula."""
    spec = k.spec
    ts = k.t[:, None]
    c2 = spec.c_lambda ** 2

    def arrivals(x):
        lam = np.asarray(spec.arrival_rate(ts - x), dtype=float)
        fc = np.asarray(spec.patience.survival(x), dtype=float)
        return c2 * lam * fc ** 2

    def abandons(x):
        lam = np.asarray(spec.arrival_rate(ts - x), dtype=float)
        fc = np.asarray(spec.patience.survival(x), dtype=float)
        return lam * fc * (1.0 - fc)

    q2 = k.qw ** 2
    part_lam = swept_integral(k.w, arrivals) + q2 * w_parts[0]
    part_s = q2 * w_parts[1]
    part_a = swept_integral(k.w, abandons) + q2 * w_parts[2]
    return part_lam, part_s, part_a


def var_X_star(kernels: IntervalKernels) -> np.ndarray:
    """Variance of the scaled content deviation, zero-start version."""
    pl, ps, pa = _var_x_star_parts(kernels, _var_w_star_parts(kernels))
    return pl + ps + pa


def var_X_star_kernel(kernels: IntervalKernels, times) -> np.ndarray:
    """Content-deviation variance by direct quadrature of the squared
    kernels; an independent route used to cross-check var_X_star."""
    k = kernels
    out = np.empty(len(np.atleast_1d(times)))
    for j, tt in enumerate(np.atleast_1d(times)):
        tt = float(tt)
        total = 0.0
        split = tt - float(k._w_at(tt))
        u_hi = np.linspace(split, tt, _KERNEL_NODES)
        vals = k.K(1, tt, u_hi) ** 2 + k.K(3, tt, u_hi) ** 2
        total += simpson(vals, x=u_hi)
        if split > k.start + 1e-12:
            u_lo = np.linspace(k.start, split, _KERNEL_NODES)
            vals = k.K(1, tt, u_lo) ** 2 + k.K(3, tt, u_lo) ** 2
            total += simpson(vals, x=u_lo)
        u_all = np.linspace(k.start, tt, _KERNEL_NODES)
        total += simpson(k.K(2, tt, u_all) ** 2, x=u_all)
        out[j] = total
    return out


def var_W_V(kernels: IntervalKernels, vws: np.ndarray, varX0: float):
    """(var_W, var_V, var_Vstar) grids on the interval, from the
    zero-start head-of-line variance vws = var_W_star(kernels).

    The potential-waiting variance reads the head-of-line variance at the
    virtual exit time t + v(t) = L^{-1}(t); points whose exit time falls
    beyond the solved horizon are marked nan rather than extrapolated.
    """
    k = kernels
    var_W = vws + varX0 * k.Fwc ** 2 / k.qw ** 2
    u = k.interval.l_inverse(k.t)
    inside = u <= k.t[-1] + 1e-12
    var_Vstar = np.full_like(vws, np.nan)
    var_V = np.full_like(vws, np.nan)
    if np.any(inside):
        ui = np.minimum(u[inside], k.t[-1])
        if len(k.t) >= 4:
            vws_u = CubicSpline(k.t, vws)(ui)
            wdot_u = CubicSpline(k.t, k.wdot)(ui)
            fwc_u = CubicSpline(k.t, k.Fwc)(ui)
        else:
            vws_u = np.interp(ui, k.t, vws)
            wdot_u = np.interp(ui, k.t, k.wdot)
            fwc_u = np.interp(ui, k.t, k.Fwc)
        b0_u = np.asarray(k.spec.staffing(ui), dtype=float) * k.spec.mu + np.asarray(
            k.spec.staffing.deriv(ui), dtype=float
        )
        var_Vstar[inside] = np.maximum(vws_u, 0.0) / (1.0 - wdot_u) ** 2
        var_V[inside] = var_Vstar[inside] + varX0 * fwc_u ** 2 / b0_u ** 2
    return var_W, var_V, var_Vstar


def _interval_times(fluid: FluidSolution, iv: FluidInterval):
    """Local anchor times for a UL interval (start, grid interior, end)."""
    times = np.concatenate([[iv.start], fluid.grid[iv.i0 : iv.i1 + 1], [iv.end]])
    return _dedupe(times)[0]


def _grid_index_map(t_loc, fluid, iv):
    """Positions of the global grid points inside the local anchor array."""
    if iv.i1 < iv.i0:
        return np.empty(0, dtype=int)
    return np.searchsorted(t_loc, fluid.grid[iv.i0 : iv.i1 + 1] - 1e-9)


@dataclass
class ULVariances:
    t: np.ndarray
    tau: np.ndarray
    var_X: np.ndarray


def _exp_filter(rate, tau, y):
    """Cumulative int_0^tau exp(-rate (tau - s)) y(s) ds, overflow-safe.

    Fast path: one cumulative quadrature when the exponent stays small.
    Otherwise an exact-decay recursion with a linear interpolant of y on
    each segment.
    """
    if rate * (tau[-1] - tau[0]) < 500.0:
        grow = np.exp(rate * tau)
        return np.exp(-rate * tau) * _cumquad(grow * y, tau)
    out = np.zeros_like(tau)
    for i in range(1, len(tau)):
        d = tau[i] - tau[i - 1]
        E = np.exp(-rate * d)
        seg = y[i - 1] * (1.0 - E) / rate + (y[i] - y[i - 1]) / d * (
            d / rate - (1.0 - E) / rate ** 2
        )
        out[i] = E * out[i - 1] + seg
    return out


def var_UL(
    spec: ModelSpec,
    fluid: FluidSolution,
    X0: float,
    varX0: float,
    interval: FluidInterval,
) -> ULVariances:
    """Content-deviation variance in an underloaded interval.

    Infinite-server form: net-input noise plus the exponentially thinned
    initial-condition variance.
    """
    t = _interval_times(fluid, interval)
    tau = t - interval.start
    mu = spec.mu
    lam = np.asarray(spec.arrival_rate(t), dtype=float)
    c2 = spec.c_lambda ** 2
    var_arr = (c2 - 1.0) * _exp_filter(2.0 * mu, tau, lam) + _exp_filter(mu, tau, lam)
    decay = np.exp(-mu * tau)
    var_init = X0 * (1.0 - decay) * decay + varX0 * decay ** 2
    return ULVariances(t=t, tau=tau, var_X=var_arr + var_init)


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


def propagate(spec: ModelSpec, fluid: FluidSolution) -> GaussianSolution:
    """Assemble all variance grids over the full horizon.

    Walks the interval partition in order, handing each interval the
    content variance reached at the end of the previous one as its
    initial-condition variance.
    """
    n1 = len(fluid.grid)
    var_X = np.full(n1, np.nan)
    nans = lambda: np.full(n1, np.nan)
    var_Xstar, var_W, var_Wstar = nans(), nans(), nans()
    var_V, var_Vstar, cov, fwc = nans(), nans(), nans(), nans()
    comp_l, comp_s, comp_a = nans(), nans(), nans()

    interval_var0 = []
    varX0 = spec.var_x0

    for iv in fluid.intervals:
        interval_var0.append((iv.kind, iv.start, varX0))
        if iv.kind == UL:
            X0 = spec.x0 if iv.start == 0.0 else spec.staffing.scalar(iv.start)
            ulv = var_UL(spec, fluid, X0, varX0, iv)
            idx = _grid_index_map(ulv.t, fluid, iv)
            gsl = slice(iv.i0, iv.i1 + 1)
            var_X[gsl] = ulv.var_X[idx]
            var_W[gsl] = 0.0
            var_V[gsl] = 0.0
            varX0 = float(ulv.var_X[-1])
        else:
            k = IntervalKernels.build(iv, spec)
            w_parts = _var_w_star_parts(k)
            x_parts = _var_x_star_parts(k, w_parts)
            vxs = x_parts[0] + x_parts[1] + x_parts[2]
            vx = vxs + varX0 * k.Fwc ** 2
            vws = w_parts[0] + w_parts[1] + w_parts[2]
            vw, vv, vvs = var_W_V(k, vws, varX0)
            idx = _grid_index_map(k.t, fluid, iv)
            gsl = slice(iv.i0, iv.i1 + 1)
            var_X[gsl] = vx[idx]
            var_Xstar[gsl] = vxs[idx]
            var_W[gsl] = vw[idx]
            var_Wstar[gsl] = vws[idx]
            var_V[gsl] = vv[idx]
            var_Vstar[gsl] = vvs[idx]
            # each content kernel is the matching waiting-time kernel times
            # the boundary density, so the cross integral factorizes
            cov[gsl] = (k.qw * vws)[idx]
            fwc[gsl] = k.Fwc[idx]
            comp_l[gsl] = x_parts[0][idx]
            comp_s[gsl] = x_parts[1][idx]
            comp_a[gsl] = x_parts[2][idx]
            varX0 = float(vx[-1])

    return GaussianSolution(
        fluid=fluid, grid=fluid.grid, var_X=var_X, var_Xstar=var_Xstar,
        var_W=var_W, var_Wstar=var_Wstar, var_V=var_V, var_Vstar=var_Vstar,
        cov_XW=cov, Fwc=fwc, var_X_lambda=comp_l, var_X_s=comp_s,
        var_X_a=comp_a, interval_var0=interval_var0,
    )


@dataclass
class MeanShift:
    grid: np.ndarray
    mean_X: np.ndarray
    mean_W: np.ndarray


def mean_shift_refined(spec: ModelSpec, fluid: FluidSolution) -> MeanShift:
    """Order-sqrt(n) deterministic mean corrections from the refined
    arrival-rate and staffing scaling.

    Each interval restarts the correction from zero: switching points pin
    the content to the staffing level, and underloaded onsets start with
    the corrected content absorbed into the service pool.
    """
    if spec.arrival_rate_g is None or spec.staffing_g is None:
        raise ValueError("refined terms not specified")

    n1 = len(fluid.grid)
    mean_X = np.zeros(n1)
    mean_W = np.zeros(n1)
    mu = spec.mu

    for iv in fluid.intervals:
        gsl = slice(iv.i0, iv.i1 + 1)
        if iv.kind == UL:
            t = _interval_times(fluid, iv)
            tau = t - iv.start
            lam_g = np.asarray(spec.arrival_rate_g(t), dtype=float)
            m = _exp_filter(mu, tau, lam_g)
            mean_X[gsl] = m[_grid_index_map(t, fluid, iv)]
        else:
            k = IntervalKernels.build(iv, spec)
            lam_g_tw = np.asarray(spec.arrival_rate_g(k.t - k.w), dtype=float)
            s_g = np.asarray(spec.staffing_g(k.t), dtype=float)
            sdot_g = np.asarray(spec.staffing_g.deriv(k.t), dtype=float)
            z = (s_g * mu + lam_g_tw + sdot_g) / k.qw
            W_g = -k.Hc * _cumquad(z / k.Hc, k.tau)
            ts = k.t[:, None]

            def queued(x):
                lam = np.asarray(spec.arrival_rate_g(ts - x), dtype=float)
                return lam * np.asarray(spec.patience.survival(x), dtype=float)

            Q1g = swept_integral(k.w, queued)
            idx = _grid_index_map(k.t, fluid, iv)
            mean_X[gsl] = (Q1g + k.qw * W_g)[idx]
            mean_W[gsl] = W_g[idx]
    return MeanShift(grid=fluid.grid, mean_X=mean_X, mean_W=mean_W)


def write_gaussian_csv(gs: GaussianSolution, path):
    write_columns(path, {
        "t": gs.grid, "var_X": gs.var_X, "var_Xstar": gs.var_Xstar,
        "var_W": gs.var_W, "var_Wstar": gs.var_Wstar, "var_V": gs.var_V,
        "cov_XW": gs.cov_XW, "Fwc": gs.Fwc, "var_X_lambda": gs.var_X_lambda,
        "var_X_s": gs.var_X_s, "var_X_a": gs.var_X_a,
    })
