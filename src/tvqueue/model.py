"""Model primitives and validity checks.

A ModelSpec bundles the arrival rate, staffing level, service rate,
patience distribution and arrival-variability parameter, plus the horizon
and the initial state.  validate() reports every violated assumption
instead of raising, so callers can show all problems at once.
"""

from __future__ import annotations

import json

import numpy as np

from .functions import SmoothFn, fn_from_config
from .patience import PatienceDist, patience_from_config

__all__ = ["ModelSpec", "ValidationReport", "validate", "load_spec", "spec_from_dict"]

# validation grid resolution relative to the horizon
_GRID_FRACTION = 1e-3
# CSV rows formatted by one bytes %-operation in write_columns
_CSV_BLOCK = 256


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


def write_columns(path, columns):
    """Write a CSV table, one column per entry of the name -> values dict.

    Float columns are written as %.10g and integer columns as %d; every
    other cell is written as its str(), encoded as UTF-8 like the header,
    with the `\r\n` line ends of `csv.writer`; no cell is quoted, so
    names and string cells must hold no comma, quote or line break.  The
    rows are written _CSV_BLOCK at a time, formatted as bytes by one
    %-operation on a list of the block's cells from each column's slice:
    the memory taken does not grow with the number of rows.
    """
    cells = [np.asarray(col) for col in columns.values()]
    formats = {"f": b"%.10g", "i": b"%d", "u": b"%d"}
    row = b",".join(formats.get(col.dtype.kind, b"%s") for col in cells) + b"\r\n"
    m, rows = len(cells), len(cells[0])
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode("utf-8") + b"\r\n")
        for lo in range(0, rows, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, rows)
            flat = [None] * (m * (hi - lo))
            for j, col in enumerate(cells):
                values = col[lo:hi].tolist()
                if col.dtype.kind not in formats:
                    values = [str(v).encode("utf-8") for v in values]
                flat[j::m] = values
            fh.write((row * (hi - lo)) % tuple(flat))
