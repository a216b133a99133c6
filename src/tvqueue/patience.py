"""Patience (abandonment) distributions.

Families: exponential, two-phase hyperexponential (H2), and tabulated
cdfs interpolated by a monotone cubic so the hazard stays continuous.
All evaluators are vectorized; `survival_scalar` evaluates one point
with plain `math` for the fluid solver's RK4 sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

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

    def sample(self, rng, size):
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialPatience(PatienceDist):
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("exponential rate must be positive")

    def cdf(self, x):
        return -np.expm1(-self.rate * np.asarray(x, dtype=float))

    def survival(self, x):
        return np.exp(-self.rate * np.asarray(x, dtype=float))

    def survival_scalar(self, x):
        return math.exp(-self.rate * x)

    def pdf(self, x):
        return self.rate * np.exp(-self.rate * np.asarray(x, dtype=float))

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class H2Patience(PatienceDist):
    """Mixture p*Exp(rate1) + (1-p)*Exp(rate2)."""

    p: float
    rate1: float
    rate2: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("mixing probability must lie in [0, 1]")
        if self.rate1 <= 0 or self.rate2 <= 0:
            raise ValueError("H2 rates must be positive")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.p * -np.expm1(-self.rate1 * x) + (1.0 - self.p) * -np.expm1(-self.rate2 * x)

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return self.p * np.exp(-self.rate1 * x) + (1.0 - self.p) * np.exp(-self.rate2 * x)

    def survival_scalar(self, x):
        return self.p * math.exp(-self.rate1 * x) + (1.0 - self.p) * math.exp(-self.rate2 * x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return (
            self.p * self.rate1 * np.exp(-self.rate1 * x)
            + (1.0 - self.p) * self.rate2 * np.exp(-self.rate2 * x)
        )

    def sample(self, rng, size):
        phase = rng.random(size) < self.p
        rates = np.where(phase, self.rate1, self.rate2)
        return rng.exponential(1.0, size) / rates


class TabulatedPatience(PatienceDist):
    """User-tabulated cdf, interpolated monotone-cubically.

    The analytic derivative of the interpolant supplies the density, which
    keeps the hazard continuous on the tabulated range.
    """

    def __init__(self, x, F):
        x = np.asarray(x, dtype=float)
        F = np.asarray(F, dtype=float)
        if x[0] != 0.0 or F[0] != 0.0:
            raise ValueError("tabulated cdf must start at F(0) = 0")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(F) < 0):
            raise ValueError("tabulated cdf must be nondecreasing on increasing x")
        if F[-1] >= 1.0:
            raise ValueError("tabulated cdf must keep Fc > 0 on the table range")
        self.x = x
        self.F = F
        self._interp = PchipInterpolator(x, F)
        self._dinterp = self._interp.derivative()
        # beyond the table: exponential tail matching the terminal hazard
        self._tail_rate = float(self._dinterp(x[-1]) / (1.0 - F[-1]))
        if self._tail_rate <= 0:
            raise ValueError("terminal hazard must be positive for the tail extension")
        # the interpolant's breakpoints and per-interval power coefficients
        # (highest power first, in x - breakpoint) as plain floats
        self._knots = self._interp.x.tolist()
        self._pieces = self._interp.c.T.tolist()
        self._F_end = float(F[-1])

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = self._interp(np.clip(x, self.x[0], self.x[-1]))
        # the tail is read only past the table; clamping the distance keeps
        # a steep tail's exp from overflowing at the points inside it
        past = np.maximum(x - self.x[-1], 0.0)
        tail = 1.0 - (1.0 - self.F[-1]) * np.exp(-self._tail_rate * past)
        return np.where(x <= self.x[-1], inside, tail)

    def survival_scalar(self, x):
        x_end = self._knots[-1]
        if x > x_end:
            cdf = 1.0 - (1.0 - self._F_end) * math.exp(-self._tail_rate * (x - x_end))
        else:
            # clip to the table and sum the powers in the interpolant's order
            x = max(x, self._knots[0])
            i = min(bisect_right(self._knots, x) - 1, len(self._pieces) - 1)
            u = x - self._knots[i]
            cdf = 0.0
            z = 1.0
            for c in reversed(self._pieces[i]):
                cdf = cdf + c * z
                z *= u
        return 1.0 - cdf

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = self._dinterp(np.clip(x, self.x[0], self.x[-1]))
        past = np.maximum(x - self.x[-1], 0.0)
        tail = (1.0 - self.F[-1]) * self._tail_rate * np.exp(-self._tail_rate * past)
        return np.where(x <= self.x[-1], inside, tail)

    def sample(self, rng, size):
        u = rng.random(size)
        # invert the tabulated part by bisection, the tail analytically
        out = np.empty(size if np.ndim(size) == 0 else size)
        flat = np.atleast_1d(out)
        uu = np.atleast_1d(u)
        in_table = uu <= self.F[-1]
        if np.any(in_table):
            lo = np.zeros(in_table.sum())
            hi = np.full(in_table.sum(), self.x[-1])
            target = uu[in_table]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                above = self._interp(mid) > target
                hi = np.where(above, mid, hi)
                lo = np.where(above, lo, mid)
            flat[in_table] = 0.5 * (lo + hi)
        if np.any(~in_table):
            utail = uu[~in_table]
            flat[~in_table] = self.x[-1] - np.log((1.0 - utail) / (1.0 - self.F[-1])) / self._tail_rate
        return out


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
        return ExponentialPatience(1.0 / float(params["mean"]))
    if kind == "h2":
        if "mean" in params and "scv" in params:
            return h2_from_scv(float(params["mean"]), float(params["scv"]))
        return H2Patience(float(params["p"]), float(params["rate1"]), float(params["rate2"]))
    if kind == "tabulated":
        return TabulatedPatience(params["x"], params["F"])
    raise ValueError(f"unknown patience kind {kind!r}")
