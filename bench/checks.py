"""Output checks, made apart from the program.

Every expected value is a closed form, the benchmark's own quadrature, or
an exact property of the output (flow balance, staffing ceiling), never a
stored copy of an earlier output.  Each check returns a list of problems;
an empty list passes.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from workloads import APPROX_N, STAFFED_N, piecewise_lambda, sine_lambda, staffed_s

# CSVs carry 10 significant digits; identities are checked to 1e-9 of scale
CSV_RTOL = 1e-9
SWITCH_WINDOW = 0.3     # excluded around switches and t = 0, as in tvqueue.compare
MEAN_X_TOL = 0.05
VAR_RATIO = (0.8, 1.25)
STATIONARY_TOL = 1e-5
NAN_TAIL_SLACK = 0.01   # ten grid steps of the approx grid


def read_csv(path):
    """{column name: float array} of a CSV with a header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[j]) for r in rows[1:]])
            for j, name in enumerate(rows[0])}


def _close(a, b, scale, what):
    err = np.abs(np.asarray(a) - np.asarray(b))
    bad = err > CSV_RTOL * np.maximum(1.0, np.abs(scale))
    if np.any(bad):
        return [f"{what}: off by {float(np.max(err)):.3g} at {int(np.sum(bad))} points"]
    return []


def ul_content(t, lam, mu=1.0, x0=0.0, nodes=8):
    """X on the grid t of Xdot = lam(t) - mu X, X(0) = x0: exact decay per
    step plus a Gauss-Legendre quadrature of the arrival convolution."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    a, b = t[:-1], t[1:]
    h = (b - a)[:, None]
    u = a[:, None] + 0.5 * h * (xg[None, :] + 1.0)
    step = 0.5 * h[:, 0] * np.sum(wg * np.exp(-mu * (b[:, None] - u)) * lam(u), axis=1)
    out = np.empty(len(t))
    out[0] = x0
    for k in range(len(step)):
        out[k + 1] = out[k] * math.exp(-mu * (b[k] - a[k])) + step[k]
    return out


def sine_closed_form(t):
    """X for lambda = 1 + 0.6 sin t, mu = 1, X(0) = 0, while underloaded."""
    return (1.0 - np.exp(-t)) + 0.3 * (np.sin(t) - np.cos(t) + np.exp(-t))


def away_from_switches(t, fluid_x, level=1.0):
    """Points farther than SWITCH_WINDOW from t = 0 and from every switch.

    A switch is where the fluid content crosses the staffing level; it is
    known to within the grid spacing, which widens the excluded window so
    the mask stays inside the one tvqueue.compare uses.
    """
    keep = np.abs(t) > SWITCH_WINDOW
    for i in np.flatnonzero(np.diff(fluid_x > level)):
        mid, half = 0.5 * (t[i] + t[i + 1]), 0.5 * (t[i + 1] - t[i])
        keep &= np.abs(t - mid) > SWITCH_WINDOW + half + 1e-9
    return keep


def check_desk(c):
    """compare.csv of the sine/H2 model: errors recomputed from the columns."""
    t, fx, sx = c["t"], c["fluid_X"], c["sim_mean_X"]
    problems = []
    # closed form on [0, first switch)
    pre = t < _switch_of_closed_form()
    err = float(np.max(np.abs(fx[pre] - sine_closed_form(t[pre]))))
    if not np.sum(pre) > 10 or err > CSV_RTOL:
        problems.append(f"fluid_X off the closed form by {err:.3g} before the first switch")
    keep = away_from_switches(t, fx)
    if np.sum(keep) < len(t) // 2:
        problems.append(f"only {int(np.sum(keep))} of {len(t)} points away from switches")
    m = keep & (fx > 1e-9)
    rel = float(np.max(np.abs(sx[m] - fx[m]) / fx[m]))
    if not rel <= MEAN_X_TOL:
        problems.append(f"sup relative error of the mean content {rel:.4f} > {MEAN_X_TOL}")
    v = keep & (c["pred_var_X"] > 1e-12)
    ratio = c["sim_var_X"][v] / c["pred_var_X"][v]
    lo, hi = float(np.min(ratio)), float(np.max(ratio))
    if not (VAR_RATIO[0] <= lo and hi <= VAR_RATIO[1]):
        problems.append(f"variance ratio [{lo:.3f}, {hi:.3f}] outside {list(VAR_RATIO)}")
    return problems


def _switch_of_closed_form():
    lo, hi = 0.0, 3.0       # X(0) = 0 < 1 < X(3)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sine_closed_form(mid) < 1.0 else (lo, mid)
    return lo


# sweep models that start underloaded from X(0) = 0, by arrival rate, and
# the stationary model's limits at T
_UL_RATES = {"sine_h2": sine_lambda, "piecewise_tab": piecewise_lambda}
_STATIONARY_LIMITS = {"mean_W": 2.0 * math.log(1.5), "mean_X": 2.0, "var_X": 3.0}


def _nan_tail(t, mean_w, finite):
    """var_V may be NaN only as one run of rows up to T, where the wait of
    an arrival at t reaches past T (t + w(t) > T, to NAN_TAIL_SLACK): the
    program leaves it NaN there (see CHANGES.md)."""
    k = len(t) if finite.all() else int(np.argmin(finite))
    reach = t + mean_w > t[-1] - NAN_TAIL_SLACK
    if np.any(finite[k:]) or not np.all(reach[k:]):
        return [f"var_V not finite at {int(np.sum(~finite))} points, "
                f"from t = {t[k]:.6g} (allowed: one run to T where t + w(t) > T)"]
    return []


def check_approx(label, c, n=APPROX_N):
    """approx.csv at scale n of one sweep model (staffing s = 1 in all)."""
    t = c["t"]
    problems = _close(c["mean_Q"] + c["mean_B"], c["mean_X"], c["mean_X"],
                      "mean_Q + mean_B vs mean_X")
    for name in ("var_X", "var_Q", "var_B", "var_W", "var_V"):
        finite = np.isfinite(c[name])
        if name == "var_V":
            problems += _nan_tail(t, c["mean_W"], finite)
        elif not np.all(finite):
            problems.append(f"{name} not finite at {int(np.sum(~finite))} points")
        if np.any(c[name][finite] < 0.0):
            problems.append(f"{name} negative at {int(np.sum(c[name][finite] < 0))} points")
    if np.any(c["mean_B"] > n * (1.0 + CSV_RTOL)):      # ceil(n s) = n
        problems.append(f"mean_B above ceil(n s) = {n}")
    if label == "stationary":
        for name, limit in _STATIONARY_LIMITS.items():
            got = c[name][-1] / (1.0 if name == "mean_W" else n)
            if not abs(got - limit) <= STATIONARY_TOL * limit:
                problems.append(f"{name} at T = {got:.9g}, limit {limit:.9g}")
    if label in _UL_RATES:
        x = ul_content(t, _UL_RATES[label])
        k = int(np.argmax(x >= 1.0))    # first point at the staffing level
        if k < 10:
            problems.append("no underloaded start")
        problems += _close(c["mean_X"][:k] / n, x[:k], 1.0, "mean_X / n vs quadrature")
        problems += _close(c["var_X"][:k] / n, x[:k], 1.0, "var_X / n vs X (Poisson)")
    return problems


def staffing_level(t, n=STAFFED_N):
    return np.ceil(n * staffed_s(t) - 1e-9)


def check_staffed(c, n=STAFFED_N):
    """simulate.csv at scale n with sinusoidal staffing."""
    problems = _close(c["mean_Q"] + c["mean_B"], c["mean_X"], c["mean_X"],
                      "mean_Q + mean_B vs mean_X")
    over = c["mean_B"] > staffing_level(c["t"], n) + CSV_RTOL * np.abs(c["mean_B"])
    if np.any(over):
        problems.append(f"mean_B above ceil(n s(t) - 1e-9) at {int(np.sum(over))} points")
    return problems


def check_path(p, n=STAFFED_N):
    """One replication: exact flow conservation and the integer staffing."""
    g = {k: np.asarray(v) for k, v in p.items()}
    problems = []
    resid = g["X"] - (p["x0"] + g["N"] - g["D"] - g["A"] - g["forced"])
    if np.any(resid != 0):
        problems.append(f"conservation residual nonzero at {int(np.sum(resid != 0))} points")
    if np.any(g["X"] != g["Q"] + g["B"]):
        problems.append("X != Q + B")
    wrong = g["s"] != staffing_level(g["t"], n)
    if np.any(wrong):
        problems.append(f"staffing level != ceil(n s(t) - 1e-9) at {int(np.sum(wrong))} points")
    return problems


_OUTPUT = {"desk_sine": "compare.csv", "approx_sweep": "approx.csv",
           "staffed_2000": "simulate.csv"}


def check_output(workload, label, outdir):
    """Problems with the CSV one CLI call of `workload` wrote to outdir."""
    try:
        c = read_csv(outdir / _OUTPUT[workload])
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    if workload == "desk_sine":
        return check_desk(c)
    if workload == "approx_sweep":
        return check_approx(label, c)
    return check_staffed(c)
