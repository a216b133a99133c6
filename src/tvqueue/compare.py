"""Side-by-side comparison of predictions and simulation estimates.

Error metrics exclude windows around switching points (and the start),
where the limit quantities jump and the finite-scale system is known to
track them poorly.  Waiting-time means use a wider interior margin: the
limits vanish at interval endpoints, so pointwise relative error there
measures entry granularity, not approximation quality.  Potential-wait
points whose estimate was censored by the horizon in any replication are
dropped.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .fluid import FluidSolution, solve_fluid
from .gaussian import GaussianSolution, propagate
from .model import ModelSpec, write_columns
from .sim import SimConfig, SimEstimate, estimate

__all__ = ["CompareResult", "compare", "compare_metrics",
           "write_compare_csv", "write_summary"]

SWITCH_WINDOW = 0.3
WAIT_WINDOW = 0.5


class CompareResult(SimpleNamespace):
    fluid: FluidSolution
    gaussian: GaussianSolution
    sim: SimEstimate
    metrics: dict
    passed: dict
    masks: dict                 # compare_metrics' masks on the observation grid

    @property
    def ok(self):
        return all(self.passed.values())

    def summary_lines(self):
        lines = []
        for key, value in self.metrics.items():
            mark = ""
            if key in self.passed:
                mark = "  [PASS]" if self.passed[key] else "  [FAIL]"
            lines.append(f"{key} = {value:.6g}{mark}")
        lines.append("overall: " + ("PASS" if self.ok else "FAIL"))
        return lines


def _away_from_switches(fluid, tg, window):
    """The points of tg farther than `window` from the start and from
    every switching time."""
    cuts = np.concatenate([[0.0], fluid.switch_times])
    return np.all(np.abs(tg[:, None] - cuts) > window, axis=1)


def _base_masks(fluid, gaussian, tg):
    """(Xf, vXf, base, X mask, var_X mask) on the observation grid tg: the
    predicted mean and variance, the points away from the start and the
    switches, and those of them where each prediction is positive."""
    Xf = np.interp(tg, fluid.grid, fluid.X)
    vXf = np.interp(tg, fluid.grid, gaussian.var_X)
    base = _away_from_switches(fluid, tg, SWITCH_WINDOW)
    return Xf, vXf, base, base & (Xf > 1e-9), base & (vXf > 1e-12)


def compare_metrics(fluid, gaussian, est):
    """Error metrics between predictions and a simulation estimate.

    Returns (metrics dict, masks dict); masks index the observation grid.
    """
    tg = est.t
    Xf, vXf, base, on_X, on_var = _base_masks(fluid, gaussian, tg)
    wf = np.interp(tg, fluid.grid, fluid.w)
    vf = np.interp(tg, fluid.grid, fluid.v)
    ol = np.interp(tg, fluid.grid, fluid.ol.astype(float)) > 0.99
    wait = _away_from_switches(fluid, tg, WAIT_WINDOW) & ol & (wf > 1e-9)
    resolved = est.count("V") >= est.config.reps
    vmask = wait & resolved & np.isfinite(est.mean("V")) & (vf > 1e-9)

    metrics = {}
    with np.errstate(invalid="ignore", divide="ignore"):
        relX = np.abs(est.scaled_mean("X") - Xf) / Xf
        metrics["mean_X_rel_sup"] = float(np.max(relX[on_X]))
        ratio = est.scaled_var("X") / vXf
        rb = ratio[on_var]
        metrics["var_X_ratio_min"] = float(np.min(rb))
        metrics["var_X_ratio_max"] = float(np.max(rb))
        if np.any(wait):
            relW = np.abs(est.mean("W") - wf) / wf
            metrics["mean_W_rel_sup"] = float(np.max(relW[wait]))
        if np.any(vmask):
            relV = np.abs(est.mean("V") - vf) / vf
            metrics["mean_V_rel_sup"] = float(np.max(relV[vmask]))
    masks = {"base": base, "wait": wait, "v": vmask}
    return metrics, masks


def compare(spec: ModelSpec, n: int, reps: int, seed: int = 0,
            grid_step: float = 1e-3, obs_step: float = 0.05,
            parallel: int = 1, tol_mean: float = 0.05,
            tol_var: float = 1.25, tol_wait: float = 0.07) -> CompareResult:
    """Full pipeline: fluid + variance solve, simulation, error metrics.

    tol_var bounds the variance ratio to [1/tol_var, tol_var].  Raises
    ValueError before the fluid solve on a config the simulator rejects
    or with fewer than 2 replications, which give no variance, and
    before any replication when no observation point is left to compare
    the mean or the variance on.
    """
    config = SimConfig(spec, n=n, reps=reps, base_seed=seed,
                       obs_step=obs_step, parallel=parallel)
    if reps < 2:
        raise ValueError(f"compare needs reps >= 2 to estimate a variance, got {reps}")
    fluid = solve_fluid(spec, grid_step)
    gaussian = propagate(fluid)
    *_, on_X, on_var = _base_masks(fluid, gaussian, config.obs_grid())
    if not (np.any(on_X) and np.any(on_var)):
        raise ValueError(
            f"no observation point to compare: every multiple of obs_step "
            f"{obs_step:g} up to the horizon lies within {SWITCH_WINDOW} of "
            "the start or a switching time, or has a zero prediction")
    est = estimate(config)
    metrics, masks = compare_metrics(fluid, gaussian, est)
    passed = {
        "mean_X_rel_sup": metrics["mean_X_rel_sup"] <= tol_mean,
        "var_X_ratio_min": metrics["var_X_ratio_min"] >= 1.0 / tol_var,
        "var_X_ratio_max": metrics["var_X_ratio_max"] <= tol_var,
    }
    for key in ("mean_W_rel_sup", "mean_V_rel_sup"):
        if key in metrics:
            passed[key] = metrics[key] <= tol_wait
    return CompareResult(fluid=fluid, gaussian=gaussian, sim=est,
                         metrics=metrics, passed=passed, masks=masks)


def write_compare_csv(result: CompareResult, path):
    fluid, gaussian, est = result.fluid, result.gaussian, result.sim
    tg = est.t
    write_columns(path, {
        "t": tg,
        "fluid_X": np.interp(tg, fluid.grid, fluid.X),
        "sim_mean_X": est.scaled_mean("X"),
        "pred_var_X": np.interp(tg, fluid.grid, gaussian.var_X),
        "sim_var_X": est.scaled_var("X"),
        "fluid_w": np.interp(tg, fluid.grid, fluid.w),
        "sim_mean_W": est.mean("W"),
        "fluid_v": np.interp(tg, fluid.grid, fluid.v),
        "sim_mean_V": est.mean("V"),
        "in_base_mask": result.masks["base"].astype(int),
        "in_wait_mask": result.masks["wait"].astype(int),
    })


def write_summary(result: CompareResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        for line in result.summary_lines():
            fh.write(line + "\n")
