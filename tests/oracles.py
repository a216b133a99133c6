"""Independent evaluation routes the tests check the program against.

Nothing in the program calls these.  `ul_content` solves the underloaded
fluid content by quadrature of the linear ODE, not by the RK4 sweep.
The kernel route evaluates the content-deviation variance of an
overloaded interval as squared-kernel integrals, reading only the kernel
grids (t, w, G) and the spec, against the single cumulative quadrature
`propagate` uses.
"""

import numpy as np
from scipy.integrate import simpson

from tvqueue.gaussian import IntervalKernels

_KERNEL_NODES = 801     # Simpson nodes for the kernel integrals


def ul_content(spec, t, x0, interval_start=0.0):
    """X(t) in a UL interval by quadrature of the linear-ODE solution.

    Gauss-Legendre on the convolution integral, with time measured from
    interval_start.
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


def first_ol_kernels(fluid):
    """Kernel grids of the first overloaded interval of a fluid solution."""
    return IntervalKernels.build(fluid.ol_intervals()[0], fluid.spec)


def _w_at(k, t):
    return np.interp(t, k.t, k.w)


def _qw_at(k, t):
    """Boundary queue density lambda(t - w(t)) Fc(w(t))."""
    t = np.asarray(t, dtype=float)
    wv = _w_at(k, t)
    return np.asarray(k.spec.arrival_rate(t - wv), dtype=float) * np.asarray(
        k.spec.patience.survival(wv), dtype=float
    )


def H(k, t, u):
    """Propagator of the waiting-time deviation from time u to t."""
    return np.exp(np.interp(t, k.t, k.G) - np.interp(u, k.t, k.G))


def K(k, i, t, u):
    """Content-deviation kernels K_i(t, u), scalar t, vectorized u.

    For the arrival and abandonment sources the kernel is piecewise:
    mass that entered after t - w(t) is still in queue and is weighted
    by its own survival; older mass acts through the waiting-time
    deviation, routed along u -> L^{-1}(u) and propagated by H.
    """
    u = np.asarray(u, dtype=float)
    spec = k.spec
    t = float(t)
    wt = _w_at(k, t)
    qwt = float(_qw_at(k, t))
    lam_u = np.asarray(spec.arrival_rate(u), dtype=float)
    if i == 2:
        sv = np.asarray(spec.staffing(u), dtype=float)
        return -qwt * np.sqrt(spec.mu * sv) / _qw_at(k, u) * H(k, t, u)
    split = t - wt
    age = t - u
    Fc_age = np.asarray(spec.patience.survival(age), dtype=float)
    F_age = np.asarray(spec.patience.cdf(age), dtype=float)
    if i == 1:
        upper = spec.c_lambda * np.sqrt(lam_u) * Fc_age
    else:
        upper = -np.sqrt(lam_u * Fc_age * F_age)
    r = np.interp(u, k.t - k.w, k.t)        # L^{-1}(u), L(t) = t - w(t)
    wr = _w_at(k, r)
    Fcwr = np.asarray(spec.patience.survival(wr), dtype=float)
    qwr = np.asarray(spec.arrival_rate(r - wr), dtype=float) * Fcwr
    Hr = H(k, t, r)
    if i == 1:
        lower = spec.c_lambda * np.sqrt(lam_u) * Fcwr / qwr * qwt * Hr
    else:
        Fwr = np.asarray(spec.patience.cdf(wr), dtype=float)
        lower = -np.sqrt(lam_u * Fcwr * Fwr) / qwr * qwt * Hr
    return np.where(u > split, upper, lower)


def var_X_star_kernel(k, times):
    """Zero-start content-deviation variance at `times` by direct
    quadrature of the squared kernels from the interval start."""
    start = k.t[0]
    out = np.empty(len(np.atleast_1d(times)))
    for j, tt in enumerate(np.atleast_1d(times)):
        tt = float(tt)
        total = 0.0
        split = tt - float(_w_at(k, tt))
        u_hi = np.linspace(split, tt, _KERNEL_NODES)
        vals = K(k, 1, tt, u_hi) ** 2 + K(k, 3, tt, u_hi) ** 2
        total += simpson(vals, x=u_hi)
        if split > start + 1e-12:
            u_lo = np.linspace(start, split, _KERNEL_NODES)
            vals = K(k, 1, tt, u_lo) ** 2 + K(k, 3, tt, u_lo) ** 2
            total += simpson(vals, x=u_lo)
        u_all = np.linspace(start, tt, _KERNEL_NODES)
        total += simpson(K(k, 2, tt, u_all) ** 2, x=u_all)
        out[j] = total
    return out
