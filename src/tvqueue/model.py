"""Model primitives and validity checks.

A ModelSpec bundles the arrival rate, staffing level, service rate,
patience distribution and arrival-variability parameter, plus the horizon
and the initial state.  validate() reports every violated assumption
instead of raising, so callers can show all problems at once.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .functions import SmoothFn, fn_from_config
from .patience import PatienceDist, patience_from_config

__all__ = ["ModelSpec", "ValidationReport", "validate", "load_spec", "spec_from_dict"]

# validation grid resolution relative to the horizon
_GRID_FRACTION = 1e-3
# cells per block of write_columns, within the memory of 256 %-formatted rows
_CSV_BLOCK = 1536


class ModelSpec:
    def __init__(self, arrival_rate: SmoothFn, staffing: SmoothFn, mu: float,
                 patience: PatienceDist, horizon: float, x0: float = 0.0,
                 var_x0: float = 0.0, c_lambda: float = 1.0,
                 arrival_rate_g: SmoothFn | None = None, staffing_g: SmoothFn | None = None):
        self.arrival_rate = arrival_rate
        self.staffing = staffing
        self.mu = mu
        self.patience = patience
        self.horizon = horizon
        self.x0 = x0
        self.var_x0 = var_x0
        self.c_lambda = c_lambda  # 1: Poisson arrivals
        # order-sqrt(n) refinement terms of n lambda + sqrt(n) lambda_g and
        # n s + sqrt(n) s_g, along which gaussian.mean_shift_refined differentiates
        self.arrival_rate_g = arrival_rate_g
        self.staffing_g = staffing_g


class ValidationReport:
    def __init__(self, violations: list | None = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "model valid"
        return "; ".join(self.violations)


@np.errstate(invalid="ignore", over="ignore")
def validate(spec: ModelSpec) -> ValidationReport:
    """Check positivity, finiteness, staffing continuity and initial
    conditions.  A non-finite parameter makes nan or inf values, which
    fail the checks without a floating-point warning."""
    report = ValidationReport()
    for name in ("horizon", "mu", "x0", "var_x0", "c_lambda"):
        if not np.isfinite(getattr(spec, name)):
            report.violations.append(f"{name} must be finite")
    if spec.horizon <= 0:
        report.violations.append("horizon must be positive")
    if not 0 < spec.horizon < np.inf:
        return report
    grid = np.linspace(0.0, spec.horizon, int(1.0 / _GRID_FRACTION) + 1)

    if spec.mu <= 0:
        report.violations.append("service rate mu > 0 fails")
    # written as not-all-inside so that nan values fail
    for name, fn in (("lambda", spec.arrival_rate), ("s", spec.staffing)):
        values = np.asarray(fn(grid), dtype=float)
        if not np.all(values > 0):
            report.violations.append(f"{name}_inf > 0 fails")
        if not np.all(values < np.inf):
            report.violations.append(f"{name}_sup < inf fails")
    # s at each breakpoint in (0, T) against its left limit: a jump fails, a kink passes
    b = np.asarray(spec.staffing.breakpoints(), dtype=float)
    b = b[(b > 0) & (b < spec.horizon)]
    right, left = (np.asarray(spec.staffing(x), dtype=float) for x in (b, np.nextafter(b, -np.inf)))
    if np.any(np.abs(right - left) > 1e-9 * np.maximum(1.0, np.abs(right))):
        report.violations.append("staffing continuous on [0, T] fails")
    if spec.c_lambda < 0:
        report.violations.append("c_lambda >= 0 fails")
    if spec.var_x0 < 0:
        report.violations.append("Var(X(0)) >= 0 fails")
    if spec.x0 < 0:
        report.violations.append("X(0) >= 0 fails")
    # values: s on the grid; the scalar s(0) only where it is finite there
    # (math raises on a non-finite sinusoid phase)
    if np.isfinite(values[0]) and spec.x0 > spec.staffing.scalar(0.0) + 1e-12:
        report.violations.append("X(0) <= s(0) fails")
    try:
        # positive up to the first age where Fc underflows; at an older age
        # the queue reaches, the fluid sweep's boundary-density floor fails
        Fc = np.asarray(spec.patience.survival(grid), dtype=float)
        m = max(int(np.argmax(np.append(Fc < np.finfo(float).tiny, True))), 1)
        if not np.all(Fc[:m] > 0):
            report.violations.append("Fc(x) > 0 on [0, T] fails")
        if not np.all(spec.patience.pdf(grid[:m]) > 0):
            report.violations.append("f(x) > 0 on [0, T] fails")
        if abs(float(spec.patience.cdf(0.0))) > 1e-12:
            report.violations.append("F(0) = 0 fails")
    except ValueError as exc:
        report.violations.append(str(exc))
    return report


def spec_from_dict(cfg: dict) -> ModelSpec:
    """Build a ModelSpec from the documented config mapping."""
    for name in ("lambda", "staffing", "patience"):
        if not isinstance(cfg[name], dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
    return ModelSpec(
        arrival_rate=fn_from_config(cfg["lambda"]),
        staffing=fn_from_config(cfg["staffing"]),
        mu=float(cfg["mu"]),
        patience=patience_from_config(cfg["patience"]),
        horizon=float(cfg["horizon"]),
        x0=float(cfg.get("x0", 0.0)),
        var_x0=float(cfg.get("var_x0", 0.0)),
        c_lambda=float(cfg.get("c_lambda", 1.0)),
    )


def load_spec(path) -> ModelSpec:
    """Read a JSON config file (schema documented in the README)."""
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return spec_from_dict(cfg)


def staffing_level(n, s):
    """Integer staffing ceil(n s) of staffing value(s) s, guarded against
    float fuzz."""
    return np.ceil(n * s - 1e-9)


@functools.cache
def _tables():
    """The tables of _float_words, made at its first call.  A float cell is
    4 little-endian words: separator, sign, "0." to "0.000", 10 digits with
    a NUL after each where the dot may go, "e+dd" or "e+ddd".  By value
    0-9999: the digits, and the digits to the last nonzero one as a
    mantissa's first, second or (times 100) last group.  By 11 k + p: AND
    words keeping max(k, p) digits, OR words putting the dot after p if a
    kept digit follows.  By X + 290: 10^(9-X), p, the "0." and exponent."""
    d = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    v = np.arange(10000)
    sig = (4 - (v % 10 == 0) - (v % 100 == 0) - (v % 1000 == 0) - (v == 0)).astype(np.uint8)
    b, (k, p) = np.arange(24).reshape(3, 1, 8), divmod(np.arange(121)[:, None], 11)
    masks = np.array([255 * ((b % 2 == 0) & (b < 2 * np.maximum(k, p))),
                      46 * ((b == 2 * p - 1) & (p < k))], np.uint8).view("<u8").reshape(6, 121)
    x = np.arange(-290, 291)
    sci = (x < -4) | (x > 9)
    lead = np.pad(np.array([b"0.000", b"0.00", b"0.0", b"0."], "S8").view("<u8"), (286, 291))
    expo = np.array([b"e%+03d" % v for v in range(-290, 291)], "S8").view("<u8") * sci
    digits = (48 + d.T).astype("<u2", order="C").view("<u8")[:, 0]
    return (digits, (sig + np.uint8([[0], [4], [8]])) * (sig > 0), masks, 10.0 ** (9 - x),
            np.where(sci, 1, x + 1).clip(0), *(np.array([lead, expo], "<u8") << np.uint64(24)))


def _float_words(x, sep):
    """The floats x as cells of 4 words, opened by the separator words
    sep, and the indices of the cells written by `b"%.10g" % v`.  The
    others are +-0, or have 1e-280 <= |x| <= 1e280 and a mantissa |x|
    10^(9-X), X = floor(log10|x|) (+1 where low), more than 1e-4 from a
    tie, which two roundings move by at most 4e-6; one that rounds to 1e10
    is 1e9 with X + 1."""
    digits, sig, masks, scale, dot, lead, expo = _tables()
    ok = (np.abs(x) >= 1e-280) & (np.abs(x) <= 1e280)
    y = np.where(ok, np.abs(x), 1.0)
    xi = np.floor(np.log10(y)).astype(np.intp) + 290
    xi += y * scale[xi] >= 1e10
    y *= scale[xi]
    ok &= np.abs(y - np.rint(y)) < 0.4999
    y = np.rint(y) * ok
    up = y >= 1e10
    xi += up
    y[up] = 1e9
    slow = np.flatnonzero(~(ok | (x == 0)))
    q = np.zeros((4, len(x)), np.intp)
    q[1], q[2] = np.floor(y / 1e6), np.floor(y / 100)
    q[3] = (y - q[2] * 100) * 100
    q[2] -= q[1] * 10000
    del y
    kept = np.maximum(np.maximum(sig[0][q[1]], sig[1][q[2]]), sig[2][q[3]]) * 11 + dot[xi]
    words = digits[q]
    del q
    words[1:] &= np.take(masks[:3], kept, axis=1)
    words[1:] |= np.take(masks[3:], kept, axis=1)
    words[3] |= expo[xi]
    words[0] = lead[xi] | sep | np.signbit(x) * np.uint64(ord("-") << 16)
    if len(slow):
        text = np.array([b"%.10g" % v for v in x[slow].tolist()], "S30")
        words[:, slow] = _text_words(text, sep[slow]).T
    return words.T, slow


def _text_words(text, sep):
    """The bytes array text as NUL-padded words opened by separators sep."""
    cells = np.zeros((len(text), (text.itemsize + 9) // 8 * 8), np.uint8)
    cells[:, 2:text.itemsize + 2] = text.view(np.uint8).reshape(len(text), text.itemsize)
    cells.view("<u8")[:, 0] |= sep
    return cells.view("<u8")


def write_columns(path, columns):
    """Write a CSV table, one column per entry of the name -> values dict.

    Float cells are written as %.10g, integers as their decimals, other
    cells as their str() in UTF-8 like the header, with the `\r\n` line
    ends of `csv.writer`; no cell is quoted, so names and strings must hold
    no comma, quote, line break or NUL.  Each block of about _CSV_BLOCK
    cells is one array of NUL-padded cells, written without the NULs.
    """
    cells = [np.asarray(col) for col in columns.values()]
    floats = np.array([c.dtype.kind == "f" for c in cells])
    sep = np.array([0x0A0D] + [ord(",")] * (len(cells) - 1), "<u8")
    rows, step = len(cells[0]), max(1, _CSV_BLOCK // len(cells))
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode("utf-8"))
        for lo in range(0, rows, step):
            block = [col[lo:lo + step] for col in cells]
            n = len(block[0])
            x = np.array([c for c, f in zip(block, floats) if f], float).ravel()
            words = _float_words(x, np.repeat(sep[floats], n))[0]
            fcols = iter(words.T.reshape(4, -1, n).transpose(1, 2, 0))
            words = np.concatenate([next(fcols) if f else _text_words(
                c.astype("S") if c.dtype.kind in "iu"
                else np.array([str(v).encode("utf-8") for v in c.tolist()], "S"), s)
                for c, f, s in zip(block, floats, sep)], axis=1)
            fh.write(words.tobytes().translate(None, b"\0"))
            del x, words, fcols
        fh.write(b"\r\n")
