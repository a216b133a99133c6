"""Model configs and CLI calls of the three benchmark workloads.

Each workload is a list of operations; an operation is one `tvqueue`
CLI call on one config.  Configs are plain dicts in the documented JSON
schema, written to disk by the runner, so the program reads them exactly
as a user's file.  The model formulas are repeated at the end of this
module for the output checks, which never call into the program.
"""

from __future__ import annotations

import math

import numpy as np

# lambda = 1 + 0.6 sin t, s = 1, mu = 1, balanced H2 patience (mean 2,
# scv 4), T = 16: the ROADMAP's acceptance-5 model
SINE_H2 = {
    "lambda": {"kind": "sinusoid", "params": {"a": 1.0, "b": 0.6}},
    "staffing": {"kind": "constant", "params": {"value": 1.0}},
    "mu": 1.0,
    "patience": {"kind": "h2", "params": {"mean": 2.0, "scv": 4.0}},
    "horizon": 16.0,
}

# constant overload: lambda = 1.5, s = 1, exponential patience of rate
# 0.5, starting full; w -> 2 ln 1.5, X -> 2, var_X -> 3
STATIONARY = {
    "lambda": {"kind": "constant", "params": {"value": 1.5}},
    "staffing": {"kind": "constant", "params": {"value": 1.0}},
    "mu": 1.0,
    "patience": {"kind": "exponential", "params": {"rate": 0.5}},
    "horizon": 30.0,
    "x0": 1.0,
}

# continuous piecewise-quadratic arrival rate, coefficients in the local
# variable t - knot (increasing powers): rises into overload, falls back
# into underload, rises again
PIECEWISE_KNOTS = [0.0, 3.0, 6.0, 9.0, 12.0]
PIECEWISE_COEFFS = [
    [0.5, 0.2, 0.05],       # 0.5 -> 1.55 on [0, 3]
    [1.55, 0.0, -0.05],     # 1.55 -> 1.10
    [1.10, -0.15, 0.0],     # 1.10 -> 0.65
    [0.65, 0.1, 0.03],      # 0.65 -> 1.22
]

# tabulated patience: Fc(x) = (1 + 0.1 x) exp(-x / 2) on x = 0, 0.5, ..., 10,
# so f(0) = 0.4 > 0 and the table keeps Fc > 0; `F` is the key the loader reads
PATIENCE_X = [0.5 * i for i in range(21)]
PATIENCE_F = [1.0 - (1.0 + 0.1 * x) * math.exp(-0.5 * x) for x in PATIENCE_X]

PIECEWISE_TAB = {
    "lambda": {"kind": "piecewise_poly",
               "params": {"knots": PIECEWISE_KNOTS, "coeffs": PIECEWISE_COEFFS}},
    "staffing": {"kind": "constant", "params": {"value": 1.0}},
    "mu": 1.0,
    "patience": {"kind": "tabulated", "params": {"x": PATIENCE_X, "F": PATIENCE_F}},
    "horizon": 12.0,
}

# desk model with sinusoidal staffing s = 1 + 0.3 sin(t - 0.5)
SINE_STAFFED = dict(SINE_H2, staffing={
    "kind": "sinusoid", "params": {"a": 1.0, "b": 0.3, "c": 1.0, "d": -0.5}})

DESK_N, DESK_REPS, DESK_SEED = 200, 400, 1
APPROX_N = 200
STAFFED_N, STAFFED_REPS = 2000, 3


def operations(workload: str, seed: int):
    """[(label, config dict, CLI argv without --config/--out)] for a workload.

    `desk_sine` keeps the simulator seed at 1 whatever `seed` is: its
    output checks are statistical, with the tolerances that acceptance
    criterion 5 pins at that seed, and another seed would fail them by
    chance.  `staffed_2000` has only exact checks, so it takes `seed`.
    """
    if workload == "desk_sine":
        return [("compare", SINE_H2,
                 ["compare", "--n", str(DESK_N), "--reps", str(DESK_REPS),
                  "--seed", str(DESK_SEED), "--parallel", "1"])]
    if workload == "approx_sweep":
        argv = ["approx", "--n", str(APPROX_N)]
        return [("sine_h2", SINE_H2, argv),
                ("stationary", STATIONARY, argv),
                ("piecewise_tab", PIECEWISE_TAB, argv)]
    if workload == "staffed_2000":
        return [("simulate", SINE_STAFFED,
                 ["simulate", "--n", str(STAFFED_N), "--reps", str(STAFFED_REPS),
                  "--seed", str(seed), "--parallel", "1"])]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("desk_sine", "approx_sweep", "staffed_2000")


# --- the same models, evaluated by the benchmark for the output checks ---

def sine_lambda(t):
    return 1.0 + 0.6 * np.sin(t)


def staffed_s(t):
    return 1.0 + 0.3 * np.sin(np.asarray(t, dtype=float) - 0.5)


def piecewise_lambda(t):
    """Horner evaluation of the piece holding each t (the last piece
    continues past the final knot)."""
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(PIECEWISE_KNOTS, t, side="right") - 1,
                0, len(PIECEWISE_COEFFS) - 1)
    u = t - np.asarray(PIECEWISE_KNOTS)[i]
    coeffs = np.asarray(PIECEWISE_COEFFS)[i]
    out = np.zeros_like(u)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        out = out * u + coeffs[..., k]
    return out
