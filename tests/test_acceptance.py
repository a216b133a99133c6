"""End-to-end acceptance gate.

Eight criteria, each printed as a single PASS/FAIL line with its measured
numbers.  Tolerances are pinned here and nowhere else; every expected
value is either a closed form or an independent oracle (Monte-Carlo,
exact counting, or a redundant evaluation route).
"""

import filecmp
import time

import numpy as np
import pytest

from tvqueue.compare import compare
from tvqueue.fluid import solve_fluid
from tvqueue.functions import ConstantFn, SinusoidFn
from tvqueue.gaussian import mean_shift_refined, propagate
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience, h2_from_scv
from tvqueue.sim import SimConfig, run_replication, write_path_csv

from oracles import first_ol_kernels, var_X_star_kernel


def _sine_h2_spec():
    return ModelSpec(SinusoidFn(1.0, 0.6), ConstantFn(1.0), 1.0,
                     h2_from_scv(2.0, 4.0), 16.0)


def _stationary_spec(horizon=30.0):
    return ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), horizon, x0=1.0)


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_criterion_1_infinite_server_reduction(capsys):
    # patience rate equal to the service rate makes every customer leave
    # at rate mu regardless of position, so the content is a Poisson
    # infinite-server count: variance equals the mean on the whole
    # horizon, across every regime switch
    t0 = time.perf_counter()
    spec = ModelSpec(SinusoidFn(1.0, 0.6), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 16.0)
    fl = solve_fluid(spec)
    gs = propagate(fl)
    err = float(np.max(np.abs(gs.var_X - fl.X)))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-4 and elapsed < 5.0
    _report(capsys, "criterion 1, infinite-server reduction", ok,
            f"max |var_X - X| = {err:.2e} (tol 1e-4), {elapsed:.1f}s (< 5s)")
    assert err < 1e-4
    assert elapsed < 5.0


def test_criterion_2_stationary_closed_forms(capsys):
    # constant overload lambda=1.5, s=1, mu=1, exponential patience 0.5:
    # w -> 2 ln 1.5, Q -> 1, var_Wstar -> 2, var_Xstar -> 3
    t0 = time.perf_counter()
    fl = solve_fluid(_stationary_spec())
    gs = propagate(fl)
    errs = {
        "w": abs(fl.w[-1] - 2.0 * np.log(1.5)),
        "Q": abs(fl.Q[-1] - 1.0),
        "var_Wstar": abs(gs.var_Wstar[-1] - 2.0),
        "var_Xstar": abs(gs.var_Xstar[-1] - 3.0),
    }
    elapsed = time.perf_counter() - t0
    ok = (errs["w"] < 1e-6 and max(errs["Q"], errs["var_Wstar"],
                                   errs["var_Xstar"]) < 1e-4
          and elapsed < 5.0)
    _report(capsys, "criterion 2, stationary overload closed forms", ok,
            ", ".join(f"{k} err {v:.1e}" for k, v in errs.items())
            + f" (tol 1e-6 / 1e-4), {elapsed:.1f}s (< 5s)")
    assert errs["w"] < 1e-6
    assert errs["Q"] < 1e-4
    assert errs["var_Wstar"] < 1e-4
    assert errs["var_Xstar"] < 1e-4
    assert elapsed < 5.0


def test_criterion_3_kernel_identity(capsys):
    # the single-quadrature variance equals the squared-kernel integrals
    t0 = time.perf_counter()
    fl = solve_fluid(_sine_h2_spec())
    gs = propagate(fl)
    k = first_ol_kernels(fl)
    times = np.linspace(k.t[0] + 0.5, k.t[-1] - 0.1, 9)
    direct = np.interp(times, gs.grid, gs.var_Xstar)
    kernel = var_X_star_kernel(k, times)
    rel = float(np.max(np.abs(kernel / direct - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = rel < 1e-6 and elapsed < 10.0
    _report(capsys, "criterion 3, direct vs kernel variance identity", ok,
            f"max rel diff = {rel:.2e} (tol 1e-6), {elapsed:.1f}s (< 10s)")
    assert rel < 1e-6
    assert elapsed < 10.0


def test_criterion_4_waiting_sde_oracle(capsys):
    # Euler scheme for the waiting-time deviation SDE, 1e5 paths at step
    # 1e-3, against the quadrature variance at t = 0.5, 1, 2
    t0 = time.perf_counter()
    fl = solve_fluid(_stationary_spec(horizon=3.0), step=1e-3)
    gs = propagate(fl)
    k = first_ol_kernels(fl)
    sig = np.sqrt(k.Isq)
    paths = 100_000
    rng = np.random.default_rng(2024)
    W = np.zeros(paths)
    targets = {tt: float(np.interp(tt, gs.grid, gs.var_Wstar))
               for tt in (0.5, 1.0, 2.0)}
    got, se = {}, {}
    probes = {int(round(tt / 1e-3)): tt for tt in (0.5, 1.0, 2.0)}
    for i in range(1, len(k.tau)):
        dt = k.tau[i] - k.tau[i - 1]
        W += (k.h[i - 1] * W * dt
              + sig[i - 1] * np.sqrt(dt) * rng.standard_normal(paths))
        if i in probes:
            tt = probes[i]
            got[tt] = float(np.var(W, ddof=1))
            se[tt] = got[tt] * np.sqrt(2.0 / (paths - 1))
    elapsed = time.perf_counter() - t0
    devs = {tt: abs(got[tt] - targets[tt]) / se[tt] for tt in targets}
    ok = max(devs.values()) < 3.0 and elapsed < 60.0
    _report(capsys, "criterion 4, waiting-time SDE Monte-Carlo oracle", ok,
            ", ".join(f"t={tt}: {d:.2f} SE" for tt, d in devs.items())
            + f" (< 3 SE), {elapsed:.1f}s (< 60s)")
    for tt in targets:
        assert devs[tt] < 3.0
    assert elapsed < 60.0


def test_criterion_5_desk_scale_simulation(capsys):
    # n=200, 400 replications of the sinusoidal H2 model against the
    # assembled predictions: means within 5%, variance ratio in
    # [0.8, 1.25] away from switches, waits within 7% in overload
    t0 = time.perf_counter()
    result = compare(_sine_h2_spec(), n=200, reps=400, seed=1,
                     grid_step=1e-3, tol_mean=0.05, tol_var=1.25,
                     tol_wait=0.07)
    elapsed = time.perf_counter() - t0
    m = result.metrics
    ok = result.ok and elapsed < 180.0
    _report(capsys, "criterion 5, desk-scale simulation comparison", ok,
            f"mean_X {m['mean_X_rel_sup']:.3f} (<=0.05), "
            f"var ratio [{m['var_X_ratio_min']:.3f}, "
            f"{m['var_X_ratio_max']:.3f}] (in [0.8, 1.25]), "
            f"mean_W {m['mean_W_rel_sup']:.3f}, "
            f"mean_V {m['mean_V_rel_sup']:.3f} (<=0.07), "
            f"{elapsed:.0f}s (< 180s)")
    assert result.ok, "\n".join(result.summary_lines())
    assert elapsed < 180.0


def test_criterion_6_simulator_exactness(capsys, tmp_path):
    # integer flow conservation at every observation time for 100 seeds,
    # and byte-identical output for a repeated seed
    spec = _sine_h2_spec()
    config = SimConfig(spec, n=50, reps=1)
    bad = 0
    for seed in range(100):
        path = run_replication(config, seed)
        if np.any(path.conservation_residual() != 0):
            bad += 1
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(run_replication(config, 17), p1)
    write_path_csv(run_replication(config, 17), p2)
    same = filecmp.cmp(p1, p2, shallow=False)
    ok = bad == 0 and same
    _report(capsys, "criterion 6, simulator exactness and determinism", ok,
            f"conservation violations {bad}/100 seeds, "
            f"repeat-seed CSV identical: {same}")
    assert bad == 0
    assert same


def test_criterion_7_grid_self_convergence(capsys):
    # three-step Richardson fit on w, v, X and var_X: halving the grid
    # step must shrink the change at second order or better
    t0 = time.perf_counter()
    spec = _sine_h2_spec()
    steps = [6.4e-2, 3.2e-2, 1.6e-2]
    sols = []
    for h in steps:
        fl = solve_fluid(spec, h)
        sols.append((fl, propagate(fl)))
    g0 = sols[0][0].grid
    sw = np.asarray(sols[-1][0].switch_times)
    keep = np.all(np.abs(g0[:, None] - sw[None, :]) > 0.2, axis=1)
    orders = {}
    for name in ("w", "v", "X", "var_X"):
        vals = []
        for fl, gs in sols:
            arr = {"w": fl.w, "v": fl.v, "X": fl.X, "var_X": gs.var_X}[name]
            idx = np.searchsorted(fl.grid, g0[keep] - 1e-12)
            vals.append(np.nan_to_num(arr[idx], nan=0.0))
        d1 = np.max(np.abs(vals[0] - vals[1]))
        d2 = np.max(np.abs(vals[1] - vals[2]))
        orders[name] = float(np.log2(d1 / d2))
    elapsed = time.perf_counter() - t0
    ok = min(orders.values()) >= 1.9
    _report(capsys, "criterion 7, grid self-convergence", ok,
            ", ".join(f"{k} order {v:.2f}" for k, v in orders.items())
            + f" (>= 1.9), {elapsed:.1f}s")
    for name, p in orders.items():
        assert p >= 1.9, f"{name} converges at order {p:.2f}"


def test_criterion_8_refined_scaling(capsys):
    # zero refinement terms produce exactly zero corrections; in
    # stationary overload (theta = 0.5) the shift is the derivative of
    # the fluid limit: a unit staffing refinement drives the waiting
    # correction to -1/(theta s) = -2 and the content correction to
    # 1 - mu/theta = -1, a unit arrival refinement drives them to
    # 1/(theta lambda) = 4/3 and 1/theta = 2; in underload (lambda = 0.5,
    # mu = 1) a unit arrival refinement gives the content 1 - exp(-t)
    spec0 = ModelSpec(**dict(vars(_stationary_spec()), arrival_rate_g=ConstantFn(0.0),
                             staffing_g=ConstantFn(0.0)))
    fl = solve_fluid(spec0)
    ms0 = mean_shift_refined(fl)
    zero = float(max(np.max(np.abs(ms0.mean_X)), np.max(np.abs(ms0.mean_W))))
    i29 = int(np.searchsorted(fl.grid, 29.0))

    spec1 = ModelSpec(**dict(vars(spec0), staffing_g=ConstantFn(1.0)))
    fl1 = solve_fluid(spec1)
    ms1 = mean_shift_refined(fl1)
    werr = abs(float(ms1.mean_W[-1]) + 2.0)
    xerr_s = abs(float(ms1.mean_X[i29]) + 1.0)

    ms_l = mean_shift_refined(solve_fluid(ModelSpec(**dict(vars(spec0), arrival_rate_g=ConstantFn(1.0)))))
    xerr_l = abs(float(ms_l.mean_X[i29]) - 2.0)
    werr_l = abs(float(ms_l.mean_W[i29]) - 4.0 / 3.0)

    ul = ModelSpec(ConstantFn(0.5), ConstantFn(1.0), 1.0, ExponentialPatience(1.0), 4.0,
                   arrival_rate_g=ConstantFn(1.0), staffing_g=ConstantFn(0.0))
    fl_ul = solve_fluid(ul)
    xerr_ul = float(np.max(np.abs(mean_shift_refined(fl_ul).mean_X - (1.0 - np.exp(-fl_ul.grid)))))
    ok = (zero == 0.0 and werr < 1e-3 and max(xerr_s, xerr_l, werr_l) < 1e-4
          and xerr_ul < 1e-8)
    _report(capsys, "criterion 8, refined-scaling corrections", ok,
            f"zero-term residual {zero:.1e} (= 0), "
            f"|W shift(30) + 2| = {werr:.1e} (tol 1e-3); "
            f"s_g = 1: |X shift(29) + 1| = {xerr_s:.1e}; "
            f"lambda_g = 1: |X shift(29) - 2| = {xerr_l:.1e}, "
            f"|W shift(29) - 4/3| = {werr_l:.1e} (tol 1e-4); "
            f"underload lambda_g = 1: |X shift - (1 - e^-t)| = {xerr_ul:.1e} (tol 1e-8)")
    assert zero == 0.0
    assert werr < 1e-3
    assert xerr_s < 1e-4
    assert xerr_l < 1e-4 and werr_l < 1e-4
    assert xerr_ul < 1e-8
