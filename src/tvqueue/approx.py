"""Finite-scale performance predictions.

The content process at scale n is approximated by a Gaussian law with
mean n X(t) and variance n var_X(t); queue length and number in service
follow by truncating that Gaussian at the integer staffing level
ceil(n s(t)).  Waiting-time predictions carry the fluid mean and the
scaled limit variance inside overloaded stretches and collapse to zero
in underloaded interiors, where the refinement offers nothing.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .gaussian import GaussianSolution
from .model import staffing_level, write_columns

__all__ = [
    "PerformanceReport",
    "truncated_moments",
    "report",
    "write_report_csv",
]

_SQRT2PI = np.sqrt(2.0 * np.pi)
_SQRT2 = math.sqrt(2.0)


def _ndtr(d):
    """Standard normal cdf, 0.5 erfc(-d / sqrt 2), elementwise by
    math.erfc; a 0-d d gives a numpy scalar."""
    x = np.asarray(-d / _SQRT2, dtype=float)
    return 0.5 * np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _excess(diff, sd):
    """(E[Z^+], Var[Z^+]) of a normal Z with mean diff and sd > 0."""
    d = diff / sd
    phi = np.exp(-0.5 * d * d) / _SQRT2PI
    Phi = _ndtr(d)
    # phi + d Phi cancels for d << 0; it is nonnegative in exact arithmetic
    e1 = sd * np.maximum(phi + d * Phi, 0.0)
    e2 = sd * sd * ((1.0 + d * d) * Phi + d * phi)
    return e1, np.maximum(e2 - e1 ** 2, 0.0)


def truncated_moments(mean, var, threshold):
    """Moments of the parts of a normal variable Y above and below a.

    Returns (E[(Y-a)^+], Var[(Y-a)^+], E[Y ^ a], Var[Y ^ a]) where ^ is
    minimum.  Var[Y ^ a] is taken as Var[(a-Y)^+]: a direct second moment
    would cancel terms of order m^2.  Vectorized; entries with var <= 0
    degenerate to the deterministic split.
    """
    m = np.asarray(mean, dtype=float)
    v = np.asarray(var, dtype=float)
    a = np.asarray(threshold, dtype=float)
    m, v, a = np.broadcast_arrays(m, v, a)
    pos = v > 0.0
    sd = np.sqrt(np.where(pos, v, 1.0))
    e1, var_hi = _excess(m - a, sd)
    var_lo = _excess(a - m, sd)[1]
    e_lo = m - e1
    excess = np.maximum(m - a, 0.0)
    e1 = np.where(pos, e1, excess)
    var_hi = np.where(pos, var_hi, 0.0)
    e_lo = np.where(pos, e_lo, np.minimum(m, a))
    var_lo = np.where(pos, var_lo, 0.0)
    if e1.ndim == 0:
        return float(e1), float(var_hi), float(e_lo), float(var_lo)
    return e1, var_hi, e_lo, var_lo


class PerformanceReport(SimpleNamespace):
    n: int
    grid: np.ndarray
    s_n: np.ndarray
    mean_X: np.ndarray
    var_X: np.ndarray
    mean_Q: np.ndarray
    var_Q: np.ndarray
    mean_B: np.ndarray
    var_B: np.ndarray
    mean_W: np.ndarray
    var_W: np.ndarray
    mean_V: np.ndarray
    var_V: np.ndarray


def report(n, gaussian: GaussianSolution) -> PerformanceReport:
    fluid = gaussian.fluid
    spec = fluid.spec
    grid = fluid.grid
    mean_X = n * fluid.X
    var_X = n * gaussian.var_X
    s_n = staffing_level(n, np.asarray(spec.staffing(grid), dtype=float))
    mean_Q, var_Q, mean_B, var_B = truncated_moments(mean_X, var_X, s_n)
    return PerformanceReport(
        n=n, grid=grid, s_n=s_n,
        mean_X=mean_X, var_X=var_X,
        mean_Q=mean_Q, var_Q=var_Q, mean_B=mean_B, var_B=var_B,
        mean_W=fluid.w.copy(), var_W=gaussian.var_W / n,
        mean_V=fluid.v.copy(), var_V=gaussian.var_V / n,
    )


def write_report_csv(rep: PerformanceReport, path):
    write_columns(path, {
        "t": rep.grid, "mean_X": rep.mean_X, "var_X": rep.var_X,
        "mean_Q": rep.mean_Q, "var_Q": rep.var_Q, "mean_B": rep.mean_B,
        "var_B": rep.var_B, "mean_W": rep.mean_W, "var_W": rep.var_W,
        "mean_V": rep.mean_V, "var_V": rep.var_V,
    })
