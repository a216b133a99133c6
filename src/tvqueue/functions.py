"""Piecewise-smooth time functions: arrival rates, staffing levels.

Closed-form families (constant, linear, sinusoid) plus piecewise
polynomials.  Every function exposes vectorized value and derivative
evaluation on [0, horizon]; sinusoids and polynomials extend naturally
beyond the horizon, which the fluid solver uses when a waiting-time
profile has to be continued past the end of the grid.  Piecewise
polynomials are also the cubic Hermite interpolant
(`PiecewisePolyFn.hermite`) of tabulated patience cdfs and of the
Gaussian layer's grid functions.
The fluid solver's adaptive steps evaluate one time at a time through
`scalar` / `scalar_deriv`, which every family computes with plain
`math` instead of a one-element numpy array.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property

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


class ConstantFn(SmoothFn):
    def __init__(self, value: float):
        self.value = value

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def deriv(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def scalar(self, t):
        return float(self.value)

    def scalar_deriv(self, t):
        return 0.0


class LinearFn(SmoothFn):
    def __init__(self, intercept: float, slope: float):
        self.intercept = intercept
        self.slope = slope

    def __call__(self, t):
        return self.intercept + self.slope * np.asarray(t, dtype=float)

    def deriv(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def scalar(self, t):
        return self.intercept + self.slope * t

    def scalar_deriv(self, t):
        return float(self.slope)


class SinusoidFn(SmoothFn):
    """a + b*sin(c*t + d)."""

    def __init__(self, a: float, b: float, c: float = 1.0, d: float = 0.0):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

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


class PiecewisePolyFn(SmoothFn):
    """Polynomial pieces on consecutive intervals [knots[i], knots[i+1]].

    coeffs[i] holds the coefficients of piece i in increasing-power order,
    evaluated in the local variable u = t - knots[i] and summed from the
    lowest power up; shorter pieces are padded with zeros to one
    (pieces x terms) array.  Evaluation before the first knot and beyond
    the last continues the end pieces.

    A (rows x pieces x terms) array carries several functions on the same
    knots (`hermite` of stacked values): array evaluation then returns
    one row per function from one knot search and one gather per power.
    The scalar reads need a single row.
    """

    def __init__(self, knots, coeffs):
        if not isinstance(coeffs, np.ndarray):
            if any(len(c) == 0 for c in coeffs):
                raise ValueError("every piecewise piece needs at least one coefficient")
            padded = np.zeros((len(coeffs), max(map(len, coeffs), default=1)))
            for row, c in zip(padded, coeffs):
                row[: len(c)] = c
            coeffs = padded
        coeffs = np.asarray(coeffs, dtype=float)
        knots = np.asarray(knots, dtype=float)
        pieces, terms = coeffs.shape[-2:]
        if pieces == 0:
            raise ValueError("a piecewise polynomial needs at least one piece")
        if len(knots) != pieces + 1:
            raise ValueError("need len(knots) == len(coeffs) + 1")
        if not np.all(np.diff(knots) > 0):
            raise ValueError(f"piecewise knots must increase: {knots.tolist()}")
        self.knots = knots
        # per order (value, derivative): one contiguous (rows x pieces)
        # array per power, of which coeffs is a view; d/du of sum c_j u^j
        # has terms j c_j, and a constant's derivative is one zero term
        cols = np.ascontiguousarray(np.moveaxis(coeffs, -1, 0))
        j = np.arange(1, terms).reshape((-1,) + (1,) * (cols.ndim - 1))
        dcols = cols[1:] * j if terms > 1 else np.zeros_like(cols)
        self._columns = (cols, dcols)
        self.coeffs = np.moveaxis(cols, 0, -1)
        self._dcoeffs = np.moveaxis(dcols, 0, -1)

    @classmethod
    def hermite(cls, x, y, dydx):
        """Piecewise cubic through (x[i], y[..., i]) with slope dydx[..., i]
        at x[i]; a (rows x knots) y and dydx give one function per row."""
        x, y, dydx = (np.asarray(a, dtype=float) for a in (x, y, dydx))
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[..., :-1] + dydx[..., 1:] - 2 * slope) / dx
        c2 = (slope - dydx[..., :-1]) / dx - t
        # power-major, the layout _eval reads; coeffs is a view of it
        cols = np.stack((y[..., :-1], dydx[..., :-1], c2, t / dx))
        return cls(x, np.moveaxis(cols, 0, -1))

    def _eval(self, t, *orders):
        """The value (order 0) and/or the derivative (order 1) at t, read
        at one piece index with shared powers of u: one knot search for
        both, and for every row.  The number of interior knots at or below
        t is the piece index, clipped to the end pieces."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.knots[1:-1], t, side="right")
        u = t - self.knots.take(i)
        powers = [u]
        outs = []
        for order in orders:
            cols = self._columns[order]
            while len(powers) < len(cols) - 1:
                powers.append(powers[-1] * u)
            out = cols[0].take(i, axis=-1)
            for col, z in zip(cols[1:], powers):
                out = out + col.take(i, axis=-1) * z
            outs.append(out)
        return outs

    def __call__(self, t):
        return self._eval(t, 0)[0]

    def deriv(self, t):
        return self._eval(t, 1)[0]

    def value_and_deriv(self, t):
        """(self(t), self.deriv(t)) from one knot search."""
        return self._eval(t, 0, 1)

    def _scalar_eval(self, t, order):
        """`_eval` of the value (order 0) or the derivative (order 1) at
        one time, with plain floats.  The number of interior knots at or
        below t is the clipped piece index of `_eval`."""
        interior, pieces = self._floats[order]
        knot, cs = pieces[bisect_right(interior, t)]
        u = t - knot
        acc = 0.0
        z = 1.0
        for c in cs:
            acc = acc + c * z
            z *= u
        return acc

    def scalar(self, t):
        return self._scalar_eval(t, 0)

    def scalar_deriv(self, t):
        return self._scalar_eval(t, 1)

    @cached_property
    def _floats(self):
        """Per order (value, derivative): the interior knots and each
        piece's (knot, coefficients) as plain floats."""
        interior = self.knots[1:-1].tolist()
        knots = self.knots[:-1].tolist()
        return tuple((interior, list(zip(knots, c.tolist())))
                     for c in (self.coeffs, self._dcoeffs))

    def breakpoints(self):
        return self.knots[1:-1].copy()


class SumFn(SmoothFn):
    """f + c*g: a time function moved along g, as the mean shift moves
    the arrival rate and the staffing; its breakpoints are both
    functions'."""

    def __init__(self, f: SmoothFn, g: SmoothFn, c: float):
        self.f = f
        self.g = g
        self.c = c

    def __call__(self, t):
        return self.f(t) + self.c * self.g(t)

    def deriv(self, t):
        return self.f.deriv(t) + self.c * self.g.deriv(t)

    def scalar(self, t):
        return self.f.scalar(t) + self.c * self.g.scalar(t)

    def scalar_deriv(self, t):
        return self.f.scalar_deriv(t) + self.c * self.g.scalar_deriv(t)

    def breakpoints(self):
        return np.union1d(self.f.breakpoints(), self.g.breakpoints())


def halve_brackets(upper, lo, hi, *params):
    """(lo, hi) after at most 60 halvings of the brackets [lo, hi].
    upper(mid, *params) is True where the point sought lies at or below
    the midpoint mid; params are arrays with one entry per bracket.

    A bracket whose midpoint rounds to one of its ends is at a fixed
    point after that halving: every later one leaves it as it is, so it
    ends as after all 60.  Every fourth halving looks for such brackets
    and retires them from the working arrays once they make up half of
    them; the loop stops when none is left.
    """
    lo, hi = lo.copy(), hi.copy()
    live = np.arange(len(lo))
    a, b = lo, hi
    for k in range(60):
        if not len(a):
            break
        mid = 0.5 * (a + b)
        up = upper(mid, *params)
        look = k % 4 == 3
        if look:
            inside = (a != mid) & (mid != b)
        a, b = np.where(up, a, mid), np.where(up, mid, b)
        if look and 2 * np.count_nonzero(inside) <= len(inside):
            lo[live], hi[live] = a, b
            live, a, b = live[inside], a[inside], b[inside]
            params = [p[inside] for p in params]
    lo[live], hi[live] = a, b
    return lo, hi


def monotone_slopes(x, y):
    """Knot slopes that keep a cubic Hermite interpolant of monotone data
    monotone (PCHIP, Fritsch & Carlson 1980): zero at a local extremum or
    next to a flat segment, else the weighted harmonic mean of the
    adjacent secants; at the ends a one-sided three-point slope, limited
    to keep the shape; the secant when there are two points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        return np.array([m[0], m[0]])
    d = np.zeros_like(y)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    ma, mb = m[:-1][smooth], m[1:][smooth]
    d[1:-1][smooth] = 1.0 / ((w1[smooth] / ma + w2[smooth] / mb) / (w1[smooth] + w2[smooth]))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _end_slope(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


_KINDS = {
    "constant": lambda p: ConstantFn(float(p["value"])),
    "linear": lambda p: LinearFn(float(p["intercept"]), float(p["slope"])),
    "sinusoid": lambda p: SinusoidFn(
        float(p["a"]), float(p["b"]), float(p.get("c", 1.0)), float(p.get("d", 0.0))
    ),
    "piecewise_poly": lambda p: PiecewisePolyFn(
        [float(k) for k in p["knots"]], [[float(c) for c in cs] for cs in p["coeffs"]]
    ),
}


def fn_from_config(cfg: dict) -> SmoothFn:
    """Build a SmoothFn from a {kind, params} mapping (see README schema)."""
    kind = cfg.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown function kind {kind!r}")
    params = cfg.get("params", {})
    return _KINDS[kind](params)
