import filecmp

import numpy as np
import pytest
from scipy.linalg import expm

from tvqueue.functions import ConstantFn, LinearFn, SinusoidFn
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience
from tvqueue.sim import (
    Moments,
    SimConfig,
    estimate,
    gen_arrivals,
    run_replication,
    staffing_epochs,
    write_estimate_csv,
    write_path_csv,
)


def _mmn_spec(lam, theta, horizon=4.0, s=1.0):
    return ModelSpec(ConstantFn(lam), ConstantFn(s), 1.0,
                     ExponentialPatience(theta), horizon)


def test_arrival_counts_match_integrated_rate():
    # Poisson totals: mean count over draws vs n int lambda, within 3 SE
    spec = ModelSpec(SinusoidFn(1.0, 0.6), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 6.0)
    n, draws = 40, 300
    rng = np.random.default_rng(5)
    total = np.empty(draws)
    window = np.empty(draws)
    for i in range(draws):
        a = gen_arrivals(spec, n, rng, 6.0)
        total[i] = len(a)
        window[i] = np.sum((a >= 2.0) & (a < 4.0))
    lam_total = n * (6.0 - 0.6 * (np.cos(6.0) - 1.0))
    lam_win = n * (2.0 - 0.6 * (np.cos(4.0) - np.cos(2.0)))
    assert abs(total.mean() - lam_total) < 3 * total.std() / np.sqrt(draws)
    assert abs(window.mean() - lam_win) < 3 * window.std() / np.sqrt(draws)
    # Poisson dispersion: variance tracks the mean
    assert total.var() / total.mean() == pytest.approx(1.0, abs=0.25)


def test_arrivals_sorted_within_chunks_and_positive():
    spec = _mmn_spec(2.0, 1.0)
    a = gen_arrivals(spec, 100, np.random.default_rng(0), 4.0)
    assert np.all(a >= 0.0) and np.all(a <= 4.0)
    assert np.all(np.diff(a) >= 0.0)


def test_staffing_epochs_linear():
    spec = ModelSpec(ConstantFn(1.0), LinearFn(1.0, -0.05), 1.0,
                     ExponentialPatience(1.0), 5.0)
    times, levels = staffing_epochs(spec, 20, 5.0)
    # ceil(20 (1 - 0.05 t)) drops by one each unit time
    assert np.allclose(times, [1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-9)
    assert list(levels) == [19, 18, 17, 16, 15]
    # a ramp rising 50000 levels on [0, 1] crosses 2.5 levels per probe
    # interval: every level still gets its own epoch, level n + k at
    # (k - 1) / n (just after, by the ceiling)
    ramp = ModelSpec(ConstantFn(1.0), LinearFn(1.0, 1.0), 1.0,
                     ExponentialPatience(1.0), 1.0)
    times, levels = staffing_epochs(ramp, 50000, 1.0)
    assert list(levels) == list(range(50001, 100001))
    assert np.allclose(times, np.arange(50000) / 50000.0, atol=1e-9)


def test_conservation_across_seeds():
    spec = ModelSpec(SinusoidFn(1.0, 0.6), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.5), 6.0)
    config = SimConfig(spec, n=20, reps=1)
    for seed in range(25):
        path = run_replication(config, seed)
        assert np.all(path.conservation_residual() == 0)
        assert np.all(path.X == path.Q + path.B)
        assert np.all(path.B <= path.s)


def test_replication_deterministic(tmp_path):
    spec = _mmn_spec(1.5, 0.5)
    config = SimConfig(spec, n=30, reps=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_path_csv(run_replication(config, 3), p1)
    write_path_csv(run_replication(config, 3), p2)
    assert filecmp.cmp(p1, p2, shallow=False)
    # a different seed gives a different path
    p3 = tmp_path / "c.csv"
    write_path_csv(run_replication(config, 4), p3)
    assert not filecmp.cmp(p1, p3, shallow=False)


def test_patience_equal_service_is_poisson():
    # theta = mu: total departure rate is mu X, so X is a Poisson
    # infinite-server count with mean n lambda (1 - e^{-t})
    spec = _mmn_spec(1.5, 1.0, horizon=4.0)
    est = estimate(SimConfig(spec, n=30, reps=600, base_seed=9))
    for tt in (2.0, 4.0):
        i = np.searchsorted(est.t, tt)
        target = 30 * 1.5 * (1.0 - np.exp(-tt))
        m = est.mean("X")[i]
        assert abs(m - target) < 3 * est.se("X")[i]
        assert est.var("X")[i] / m == pytest.approx(1.0, abs=0.15)


def test_erlang_a_transient_matches_generator():
    # M/M/s+M with theta != mu: the exact law of X(t) is the birth-death
    # chain (births n lambda, deaths mu min(x, ns) + theta (x - ns)^+),
    # truncated at 80 states and solved by the matrix exponential
    n, lam, theta, T = 10, 1.2, 0.5, 4.0
    spec = ModelSpec(ConstantFn(lam), ConstantFn(1.0), 1.0,
                     ExponentialPatience(theta), T, x0=1.0)
    est = estimate(SimConfig(spec, n=n, reps=2000, base_seed=3))
    x = np.arange(80)
    death = 1.0 * np.minimum(x, n) + theta * np.maximum(x - n, 0)
    G = np.diag(np.full(79, n * lam), 1) + np.diag(death[1:], -1)
    G -= np.diag(G.sum(axis=1))
    p0 = np.zeros(80)
    p0[n] = 1.0
    for tt in (0.5, 1.0, 2.0, 4.0):
        p = p0 @ expm(G * tt)
        mean_X = p @ x
        mean_Q = p @ np.maximum(x - n, 0)
        var_X = p @ x ** 2 - mean_X ** 2
        i = np.searchsorted(est.t, tt)
        assert abs(est.mean("X")[i] - mean_X) < 3 * est.se("X")[i]
        assert abs(est.mean("Q")[i] - mean_Q) < 3 * est.se("Q")[i]
        assert est.var("X")[i] / var_X == pytest.approx(1.0, abs=0.15)


def test_stable_system_carries_offered_load():
    # lightly loaded many-server system with patient customers:
    # essentially no queue, E[B] near the offered load n lambda / mu
    spec = ModelSpec(ConstantFn(0.5), ConstantFn(1.0), 1.0,
                     ExponentialPatience(0.01), 10.0)
    est = estimate(SimConfig(spec, n=40, reps=200, base_seed=2))
    i = np.searchsorted(est.t, 10.0)
    assert est.mean("B")[i] == pytest.approx(20.0, abs=1.0)
    assert est.mean("Q")[i] < 0.5


@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_shrinking_staffing_forces_removals(x0):
    # with x0 = 1 all servers start busy, so the first removals take
    # initial-content customers
    spec = ModelSpec(ConstantFn(2.0), LinearFn(1.0, -0.05), 1.0,
                     ExponentialPatience(0.5), 5.0, x0=x0)
    for seed in range(5):
        path = run_replication(SimConfig(spec, n=40, reps=1), seed)
        assert np.all(path.B <= path.s)
        assert np.all(path.conservation_residual() == 0)
        assert path.forced[-1] > 0


def test_moments_streaming_matches_numpy():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(50, 7))
    mm = Moments(7)
    for row in data:
        mm.add(row)
    assert np.allclose(mm.mean, data.mean(axis=0))
    assert np.allclose(mm.variance(), data.var(axis=0, ddof=1))


def test_moments_merge_any_grouping():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(60, 4))
    whole = Moments(4)
    for row in data:
        whole.add(row)
    a, b, c = Moments(4), Moments(4), Moments(4)
    for row in data[:10]:
        a.add(row)
    for row in data[10:45]:
        b.add(row)
    for row in data[45:]:
        c.add(row)
    b.merge(c)
    a.merge(b)
    assert np.allclose(a.mean, whole.mean)
    assert np.allclose(a.variance(), whole.variance())


def test_moments_skip_nan():
    mm = Moments(2)
    mm.add([1.0, np.nan])
    mm.add([3.0, 5.0])
    mm.add([5.0, np.nan])
    assert mm.count[0] == 3 and mm.count[1] == 1
    assert mm.mean[0] == pytest.approx(3.0)
    assert mm.mean[1] == pytest.approx(5.0)
    assert np.isnan(mm.variance()[1])


def test_single_rep_has_no_variance():
    est = estimate(SimConfig(_mmn_spec(1.0, 1.0, horizon=1.0), n=5, reps=1))
    assert np.all(np.isnan(est.var("X")))


def test_parallel_matches_serial(tmp_path):
    spec = _mmn_spec(1.5, 0.5, horizon=2.0)
    serial = estimate(SimConfig(spec, n=10, reps=12, base_seed=7, parallel=1))
    para = estimate(SimConfig(spec, n=10, reps=12, base_seed=7, parallel=2))
    p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
    write_estimate_csv(serial, p1)
    write_estimate_csv(para, p2)
    for name in ("X", "W"):
        assert np.allclose(serial.mean(name), para.mean(name), equal_nan=True)
        assert np.allclose(serial.var(name), para.var(name), equal_nan=True)


def test_scaled_views():
    est = estimate(SimConfig(_mmn_spec(1.5, 0.5, horizon=2.0), n=10, reps=8))
    assert np.allclose(est.scaled_mean("X"), est.mean("X") / 10.0)
    assert np.allclose(est.scaled_var("X"), est.var("X") / 10.0, equal_nan=True)
    assert np.allclose(est.scaled_var("W"), est.var("W") * 10.0, equal_nan=True)


def test_config_validation():
    with pytest.raises(ValueError, match="reps >= 1"):
        SimConfig(_mmn_spec(1.0, 1.0), n=10, reps=0)
    with pytest.raises(ValueError, match="invalid model"):
        estimate(SimConfig(ModelSpec(ConstantFn(0.0), ConstantFn(1.0), 1.0,
                                     ExponentialPatience(1.0), 2.0),
                           n=5, reps=2))


def test_obs_grid_stays_within_horizon():
    # a step that does not divide the horizon stops short of it
    grid = SimConfig(_mmn_spec(1.0, 1.0, horizon=1.0), n=5, reps=1,
                     obs_step=0.6).obs_grid()
    assert np.array_equal(grid, [0.0, 0.6])
    # a step that divides it ends on it, also where T / step falls just
    # below the integer (0.3 / 0.1 = 2.9999999999999996)
    grid = SimConfig(_mmn_spec(1.0, 1.0, horizon=16.0), n=5, reps=1).obs_grid()
    assert len(grid) == 321 and grid[-1] == 16.0
    grid = SimConfig(_mmn_spec(1.0, 1.0, horizon=0.3), n=5, reps=1,
                     obs_step=0.1).obs_grid()
    assert len(grid) == 4
