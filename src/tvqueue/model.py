"""Model primitives and validity checks.

A ModelSpec bundles the arrival rate, staffing level, service rate,
patience distribution and arrival-variability parameter, plus the horizon
and the initial state.  validate() reports every violated assumption
instead of raising, so callers can show all problems at once.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .functions import SmoothFn, fn_from_config
from .patience import PatienceDist, patience_from_config

__all__ = ["ModelSpec", "ValidationReport", "validate", "load_spec", "spec_from_dict"]

# validation grid resolution relative to the horizon
_GRID_FRACTION = 1e-3


@dataclass(frozen=True)
class ModelSpec:
    arrival_rate: SmoothFn
    staffing: SmoothFn
    mu: float
    patience: PatienceDist
    horizon: float
    x0: float = 0.0
    var_x0: float = 0.0
    c_lambda: float = 1.0  # Poisson arrivals
    # order-sqrt(n) refinement terms, read only by gaussian.mean_shift_refined
    arrival_rate_g: SmoothFn | None = None
    staffing_g: SmoothFn | None = None


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "model valid"
        return "; ".join(self.violations)


def validate(spec: ModelSpec) -> ValidationReport:
    """Check positivity and initial-condition assumptions on a dense grid."""
    report = ValidationReport()
    if spec.horizon <= 0:
        report.violations.append("horizon must be positive")
        return report
    grid = np.linspace(0.0, spec.horizon, int(1.0 / _GRID_FRACTION) + 1)

    if spec.mu <= 0:
        report.violations.append("service rate mu > 0 fails")
    if np.min(spec.arrival_rate(grid)) <= 0:
        report.violations.append("lambda_inf > 0 fails")
    if np.min(spec.staffing(grid)) <= 0:
        report.violations.append("s_inf > 0 fails")
    if spec.c_lambda < 0:
        report.violations.append("c_lambda >= 0 fails")
    if spec.var_x0 < 0:
        report.violations.append("Var(X(0)) >= 0 fails")
    if spec.x0 < 0:
        report.violations.append("X(0) >= 0 fails")
    s0 = spec.staffing.scalar(0.0)
    if spec.x0 > s0 + 1e-12:
        report.violations.append("X(0) <= s(0) fails")
    try:
        if np.min(spec.patience.survival(grid)) <= 0:
            report.violations.append("Fc(x) > 0 on [0, T] fails")
        if np.min(spec.patience.pdf(grid)) <= 0:
            report.violations.append("f(x) > 0 on [0, T] fails")
        if abs(float(spec.patience.cdf(0.0))) > 1e-12:
            report.violations.append("F(0) = 0 fails")
    except ValueError as exc:
        report.violations.append(str(exc))
    return report


def spec_from_dict(cfg: dict) -> ModelSpec:
    """Build a ModelSpec from the documented config mapping."""
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

    Float columns are written as %.10g; integer and string columns are
    written as they are.
    """
    cells = []
    for col in columns.values():
        col = np.asarray(col)
        if col.dtype.kind == "f":
            cells.append([f"{v:.10g}" for v in col.tolist()])
        else:
            cells.append(col.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))
