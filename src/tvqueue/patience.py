"""Patience (abandonment) distributions.

Families: exponential, two-phase hyperexponential (H2), and tabulated
cdfs interpolated by a monotone cubic (functions.PiecewisePolyFn.hermite
with the Fritsch-Carlson slopes of functions.monotone_slopes) so the
hazard stays continuous.
All evaluators are vectorized; `survival_scalar` evaluates one point
with plain `math` for the fluid solver's adaptive steps, and `survival_pdf`
gives Fc and f on one age block from one pass for its age integrals.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import PiecewisePolyFn, halve_brackets, monotone_slopes

__all__ = [
    "PatienceDist",
    "ExponentialPatience",
    "H2Patience",
    "TabulatedPatience",
    "h2_from_scv",
    "patience_from_config",
]


class PatienceDist:
    """Interface: cdf F, survival Fc, density f, sampler."""

    def cdf(self, x):
        raise NotImplementedError

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def survival_scalar(self, x: float) -> float:
        """Fc at a single point as a float (override for speed)."""
        return float(self.survival(x))

    def pdf(self, x):
        raise NotImplementedError

    def survival_pdf(self, x):
        """(survival(x), pdf(x)); override to share the work of the two."""
        return self.survival(x), self.pdf(x)

    def breakpoints(self):
        """Ages where an age-integral panel must end: where the density
        may kink, and where it decays fast (empty for slow closed forms)."""
        return np.empty(0)

    def sample(self, rng, size):
        raise NotImplementedError


def _graded_ages(rate):
    """The ages 2^-j, j = 1..J, J the least with rate 2^-J <= 8: panel
    edges graded toward age 0, so that a phase of this rate decays by at
    most e^-8 (its Fc^2 by e^-16) over the first panel."""
    ages = []
    while rate * 2.0 ** -len(ages) > 8.0:
        ages.append(2.0 ** -(len(ages) + 1))
    return np.array(ages)


class ExponentialPatience(PatienceDist):
    def __init__(self, rate: float):
        if not 0 < rate < math.inf:
            raise ValueError("exponential rate must be positive and finite")
        self.rate = rate

    def cdf(self, x):
        return -np.expm1(-self.rate * np.asarray(x, dtype=float))

    def survival(self, x):
        return np.exp(-self.rate * np.asarray(x, dtype=float))

    def survival_scalar(self, x):
        return math.exp(-self.rate * x)

    def pdf(self, x):
        return self.rate * np.exp(-self.rate * np.asarray(x, dtype=float))

    def survival_pdf(self, x):
        fc = self.survival(x)
        return fc, self.rate * fc

    def breakpoints(self):
        return _graded_ages(self.rate)

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)


class H2Patience(PatienceDist):
    """Mixture p*Exp(rate1) + (1-p)*Exp(rate2)."""

    def __init__(self, p: float, rate1: float, rate2: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("mixing probability must lie in [0, 1]")
        if not (0 < rate1 < math.inf and 0 < rate2 < math.inf):
            raise ValueError("H2 rates must be positive and finite")
        self.p = p
        self.rate1 = rate1
        self.rate2 = rate2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.p * -np.expm1(-self.rate1 * x) + (1.0 - self.p) * -np.expm1(-self.rate2 * x)

    def survival(self, x):
        return self.survival_pdf(x)[0]

    def survival_scalar(self, x):
        return self.p * math.exp(-self.rate1 * x) + (1.0 - self.p) * math.exp(-self.rate2 * x)

    def pdf(self, x):
        return self.survival_pdf(x)[1]

    def survival_pdf(self, x):
        x = np.asarray(x, dtype=float)
        e1 = np.exp(-self.rate1 * x)
        e2 = np.exp(-self.rate2 * x)
        q = 1.0 - self.p
        return (self.p * e1 + q * e2,
                self.p * self.rate1 * e1 + q * self.rate2 * e2)

    def breakpoints(self):
        return _graded_ages(max(self.rate1, self.rate2))

    def sample(self, rng, size):
        phase = rng.random(size) < self.p
        rates = np.where(phase, self.rate1, self.rate2)
        return rng.exponential(1.0, size) / rates


class TabulatedPatience(PatienceDist):
    """User-tabulated cdf, interpolated by a monotone cubic Hermite (PCHIP).

    The analytic derivative of the interpolant supplies the density, which
    keeps the hazard continuous on the tabulated range.
    """

    def __init__(self, x, F):
        x = np.asarray(x, dtype=float)
        F = np.asarray(F, dtype=float)
        if x.ndim != 1 or x.shape != F.shape or len(x) < 2:
            raise ValueError("tabulated cdf needs x and F as 1-D lists of the "
                             "same length, at least 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(F))):
            raise ValueError("tabulated cdf needs finite x and F")
        if x[0] != 0.0 or F[0] != 0.0:
            raise ValueError("tabulated cdf must start at F(0) = 0")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(F) < 0):
            raise ValueError("tabulated cdf must be nondecreasing on increasing x")
        if F[-1] >= 1.0:
            raise ValueError("tabulated cdf must keep Fc > 0 on the table range")
        self.x = x
        self.F = F
        self._interp = PiecewisePolyFn.hermite(x, F, monotone_slopes(x, F))
        # beyond the table: exponential tail matching the terminal hazard
        self._tail_rate = float(self._interp.deriv(x[-1]) / (1.0 - F[-1]))
        if self._tail_rate <= 0:
            raise ValueError("terminal hazard must be positive for the tail extension")
        self._x_end = float(x[-1])
        self._F_end = float(F[-1])

    def _cdf_pdf(self, x):
        """cdf and density from one clip, one knot search and one tail exp."""
        x = np.asarray(x, dtype=float)
        F_in, f_in = self._interp.value_and_deriv(np.clip(x, self.x[0], self.x[-1]))
        # the tail is read only past the table; clamping the distance keeps
        # a steep tail's exp from overflowing at the points inside it
        e = np.exp(-self._tail_rate * np.maximum(x - self.x[-1], 0.0))
        mass = 1.0 - self.F[-1]
        inside = x <= self.x[-1]
        return (np.where(inside, F_in, 1.0 - mass * e),
                np.where(inside, f_in, mass * self._tail_rate * e))

    def cdf(self, x):
        return self._cdf_pdf(x)[0]

    def survival_scalar(self, x):
        if x > self._x_end:
            cdf = 1.0 - (1.0 - self._F_end) * math.exp(-self._tail_rate * (x - self._x_end))
        else:
            # clip to the table: the first piece would continue below x = 0
            cdf = self._interp.scalar(max(x, 0.0))
        return 1.0 - cdf

    def pdf(self, x):
        return self._cdf_pdf(x)[1]

    def survival_pdf(self, x):
        F, f = self._cdf_pdf(x)
        return 1.0 - F, f

    def breakpoints(self):
        """The knots past 0: the cubic pieces' ends, the last one where the
        exponential tail starts; past it, the tail's graded ages."""
        return np.concatenate([self.x[1:], self._x_end + _graded_ages(self._tail_rate)])

    def sample(self, rng, size):
        u = rng.random(size)
        # invert the tabulated part by bisection, the tail analytically
        out = np.empty(size)
        flat = np.atleast_1d(out)
        uu = np.atleast_1d(u)
        in_table = uu <= self.F[-1]
        if np.any(in_table):
            target = uu[in_table]
            # the piece holding each target, from F at the knots: F[j] <=
            # target < F[j + 1], or the last piece; its monotone cubic is
            # bisected in the local variable alone
            j = np.minimum(np.searchsorted(self.F, target, side="right") - 1,
                           len(self.x) - 2)
            lo, hi = halve_brackets(_cubic_above, np.zeros(len(target)), np.diff(self.x)[j],
                                    *self._interp.coeffs[j].T, target)
            flat[in_table] = self.x[j] + 0.5 * (lo + hi)
        if np.any(~in_table):
            utail = uu[~in_table]
            flat[~in_table] = self.x[-1] - np.log((1.0 - utail) / (1.0 - self.F[-1])) / self._tail_rate
        return out


def _cubic_above(u, c0, c1, c2, c3, y):
    """c0 + u (c1 + u (c2 + u c3)) > y, the cubic evaluated in place."""
    p = c3 * u
    p += c2
    p *= u
    p += c1
    p *= u
    p += c0
    return p > y


def h2_from_scv(mean: float, scv: float) -> PatienceDist:
    """Balanced-means H2 with the requested mean and squared coefficient of
    variation.  scv must be >= 1; scv == 1 degenerates to exponential."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if scv < 1.0:
        raise ValueError("H2 requires scv >= 1")
    theta = 1.0 / mean
    p = 0.5 * (1.0 - np.sqrt((scv - 1.0) / (scv + 1.0)))
    return H2Patience(p=float(p), rate1=float(2.0 * p * theta), rate2=float(2.0 * (1.0 - p) * theta))


def patience_from_config(cfg: dict) -> PatienceDist:
    kind = cfg.get("kind")
    params = cfg.get("params", {})
    if kind == "exponential":
        if "rate" in params:
            return ExponentialPatience(float(params["rate"]))
        mean = float(params["mean"])
        if not mean > 0:
            raise ValueError("mean must be positive")
        return ExponentialPatience(1.0 / mean)
    if kind == "h2":
        if "mean" in params and "scv" in params:
            return h2_from_scv(float(params["mean"]), float(params["scv"]))
        return H2Patience(float(params["p"]), float(params["rate1"]), float(params["rate2"]))
    if kind == "tabulated":
        return TabulatedPatience(params["x"], params["F"])
    raise ValueError(f"unknown patience kind {kind!r}")
