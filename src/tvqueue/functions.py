"""Piecewise-smooth time functions: arrival rates, staffing levels.

Closed-form families (constant, linear, sinusoid) plus piecewise
polynomials.  Every function exposes vectorized value and derivative
evaluation on [0, horizon]; sinusoids and polynomials extend naturally
beyond the horizon, which the fluid solver uses when a waiting-time
profile has to be continued past the end of the grid.
The fluid solver's RK4 sweep evaluates one time at a time through
`scalar` / `scalar_deriv`, which every family computes with plain
`math` instead of a one-element numpy array.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SmoothFn",
    "ConstantFn",
    "LinearFn",
    "SinusoidFn",
    "PiecewisePolyFn",
    "fn_from_config",
]


class SmoothFn:
    """Base class for real functions of time with evaluable derivatives."""

    def __call__(self, t):
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError

    def scalar(self, t: float) -> float:
        """Value at a single time as a float (override for speed)."""
        return float(self(t))

    def scalar_deriv(self, t: float) -> float:
        """Derivative at a single time as a float (override for speed)."""
        return float(self.deriv(t))

    def breakpoints(self):
        """Times where the derivative may jump (empty for closed forms)."""
        return np.empty(0)


@dataclass(frozen=True)
class ConstantFn(SmoothFn):
    value: float

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def deriv(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def scalar(self, t):
        return float(self.value)

    def scalar_deriv(self, t):
        return 0.0


@dataclass(frozen=True)
class LinearFn(SmoothFn):
    intercept: float
    slope: float

    def __call__(self, t):
        return self.intercept + self.slope * np.asarray(t, dtype=float)

    def deriv(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def scalar(self, t):
        return self.intercept + self.slope * t

    def scalar_deriv(self, t):
        return float(self.slope)


@dataclass(frozen=True)
class SinusoidFn(SmoothFn):
    """a + b*sin(c*t + d)."""

    a: float
    b: float
    c: float = 1.0
    d: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.a + self.b * np.sin(self.c * t + self.d)

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        return self.b * self.c * np.cos(self.c * t + self.d)

    def scalar(self, t):
        return self.a + self.b * math.sin(self.c * t + self.d)

    def scalar_deriv(self, t):
        return self.b * self.c * math.cos(self.c * t + self.d)


@dataclass(frozen=True)
class PiecewisePolyFn(SmoothFn):
    """Polynomial pieces on consecutive intervals [knots[i], knots[i+1]].

    coeffs[i] holds the coefficients of piece i in increasing-power order,
    evaluated in the local variable (t - knots[i]).  Evaluation beyond the
    last knot continues the final piece.
    """

    knots: tuple = field(default=())
    coeffs: tuple = field(default=())

    def __post_init__(self):
        if len(self.knots) != len(self.coeffs) + 1:
            raise ValueError("need len(knots) == len(coeffs) + 1")
        # per-piece derivative coefficients for scalar_deriv
        dcoeffs = tuple(
            tuple(k * c[k] for k in range(1, len(c))) or (0.0,) for c in self.coeffs
        )
        object.__setattr__(self, "_dcoeffs", dcoeffs)

    def _piece(self, t):
        idx = np.searchsorted(self.knots, t, side="right") - 1
        return np.clip(idx, 0, len(self.coeffs) - 1)

    def _eval(self, t, order):
        t = np.asarray(t, dtype=float)
        idx = self._piece(t)
        out = np.zeros_like(t)
        for i, c in enumerate(self.coeffs):
            mask = idx == i
            if not np.any(mask):
                continue
            p = np.polynomial.Polynomial(c).deriv(order) if order else np.polynomial.Polynomial(c)
            out[mask] = p(t[mask] - self.knots[i])
        return out

    def __call__(self, t):
        return self._eval(t, 0)

    def deriv(self, t):
        return self._eval(t, 1)

    def _scalar_eval(self, t, coeffs):
        """Horner on the piece holding t, clipped as in `_piece`."""
        i = min(max(bisect_right(self.knots, t) - 1, 0), len(coeffs) - 1)
        u = t - self.knots[i]
        acc = 0.0
        for c in reversed(coeffs[i]):
            acc = c + acc * u
        return acc

    def scalar(self, t):
        return self._scalar_eval(t, self.coeffs)

    def scalar_deriv(self, t):
        return self._scalar_eval(t, self._dcoeffs)

    def breakpoints(self):
        return np.asarray(self.knots[1:-1], dtype=float)


_KINDS = {
    "constant": lambda p: ConstantFn(float(p["value"])),
    "linear": lambda p: LinearFn(float(p["intercept"]), float(p["slope"])),
    "sinusoid": lambda p: SinusoidFn(
        float(p["a"]), float(p["b"]), float(p.get("c", 1.0)), float(p.get("d", 0.0))
    ),
    "piecewise_poly": lambda p: PiecewisePolyFn(
        tuple(float(k) for k in p["knots"]),
        tuple(tuple(float(c) for c in cs) for cs in p["coeffs"]),
    ),
}


def fn_from_config(cfg: dict) -> SmoothFn:
    """Build a SmoothFn from a {kind, params} mapping (see README schema)."""
    kind = cfg.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown function kind {kind!r}")
    params = cfg.get("params", {})
    return _KINDS[kind](params)
