import filecmp
import json
import re
import sys

import numpy as np
import pytest

from tvqueue.cli import main
from tvqueue.functions import ConstantFn
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience, PatienceDist


def _write_config(tmp_path, **overrides):
    cfg = {
        "lambda": {"kind": "constant", "params": {"value": 1.5}},
        "staffing": {"kind": "constant", "params": {"value": 1.0}},
        "mu": 1.0,
        "patience": {"kind": "exponential", "params": {"rate": 0.5}},
        "horizon": 5.0,
        "x0": 1.0,
    }
    cfg.update(overrides)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_fluid_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["fluid", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "fluid.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_variance_subcommand(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["variance", "--config", cfg, "--out", str(out),
                 "--grid-step", "0.002"]) == 0
    assert (out / "variance.csv").exists()


def test_approx_subcommand(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["approx", "--config", cfg, "--out", str(out),
                 "--n", "50"]) == 0
    header = (out / "approx.csv").read_text().splitlines()[0]
    assert header.startswith("t,mean_X")


def test_simulate_subcommand_deterministic(tmp_path):
    cfg = _write_config(tmp_path, horizon=2.0)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["simulate", "--config", cfg, "--n", "20", "--reps", "5",
            "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert filecmp.cmp(out1 / "simulate.csv", out2 / "simulate.csv",
                       shallow=False)


def test_missing_config_file(tmp_path, capsys):
    code = main(["fluid", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    pytest.param(None, id="not_json"),
    pytest.param({"lambda": 1.0}, id="lambda_number"),
    pytest.param({"patience": None}, id="patience_null"),
    pytest.param({"patience": ["exponential"]}, id="patience_list"),
])
def test_malformed_config(tmp_path, capsys, overrides):
    if overrides is None:
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cfg = str(bad)
    else:
        cfg = _write_config(tmp_path, **overrides)
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if overrides is not None:
        section, = overrides
        assert f"config section {section!r} must be a JSON object" in err


def test_bad_tabulated_table_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, patience={
        "kind": "tabulated", "params": {"x": [], "F": []}})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "1-D lists of the same length" in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    pytest.param({"kind": "exponential", "params": {"rate": 0.0}},
                 "exponential rate must be positive", id="exponential_rate"),
    pytest.param({"kind": "exponential", "params": {"mean": 0.0}},
                 "mean must be positive", id="exponential_mean"),
    pytest.param({"kind": "h2", "params": {"p": 1.5, "rate1": 1.0, "rate2": 2.0}},
                 r"mixing probability must lie in \[0, 1\]", id="h2_p_above_1"),
    pytest.param({"kind": "h2", "params": {"p": -0.1, "rate1": 1.0, "rate2": 2.0}},
                 r"mixing probability must lie in \[0, 1\]", id="h2_p_below_0"),
    pytest.param({"kind": "h2", "params": {"p": 0.5, "rate1": 0.0, "rate2": 2.0}},
                 "H2 rates must be positive", id="h2_rate1"),
    pytest.param({"kind": "h2", "params": {"p": 0.5, "rate1": 1.0, "rate2": -2.0}},
                 "H2 rates must be positive", id="h2_rate2"),
    pytest.param({"kind": "h2", "params": {"mean": 0.0, "scv": 4.0}},
                 "mean must be positive", id="h2_mean"),
    pytest.param({"kind": "tabulated", "params": {"x": [0.0, 1.0, 2.0], "F": [0.0, 0.5, 0.4]}},
                 "tabulated cdf must be nondecreasing", id="tabulated_decreasing"),
    # a non-finite rate or table value is a config error too, not a
    # misleading Fc(x) > 0 violation
    pytest.param({"kind": "exponential", "params": {"rate": float("inf")}},
                 "exponential rate must be positive and finite", id="exponential_rate_inf"),
    pytest.param({"kind": "h2", "params": {"p": 0.5, "rate1": float("inf"), "rate2": 2.0}},
                 "H2 rates must be positive and finite", id="h2_rate1_inf"),
    pytest.param({"kind": "tabulated",
                  "params": {"x": [0.0, 1.0, float("inf")], "F": [0.0, 0.5, 0.6]}},
                 "tabulated cdf needs finite x and F", id="tabulated_x_inf"),
])
def test_bad_patience_parameters_are_config_errors(tmp_path, capsys, params, message):
    cfg = _write_config(tmp_path, patience=params)
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(f"config error: {message}", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("section", ["lambda", "staffing"])
def test_piecewise_poly_without_pieces_is_config_error(tmp_path, capsys, section):
    cfg = _write_config(tmp_path, **{section: {
        "kind": "piecewise_poly", "params": {"knots": [0.0], "coeffs": []}}})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "at least one piece" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
@pytest.mark.parametrize("command", ["fluid", "approx", "simulate", "compare"])
def test_output_path_that_is_no_directory_is_config_error(tmp_path, capsys, monkeypatch,
                                                          command, under):
    # an --out that names a file, or a path under one, fails with one
    # config-error line before any solving or simulating
    def not_called(*args, **kwargs):
        raise AssertionError("solved before the output directory was made")

    for target in ("tvqueue.fluid.solve_fluid", "tvqueue.sim.estimate", "tvqueue.cli.run_compare"):
        monkeypatch.setattr(target, not_called)
    cfg = _write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    argv = [command, "--config", cfg, "--out", str(taken / "sub" if under else taken)]
    if command != "fluid":
        argv += ["--n", "20"]
    if command in ("simulate", "compare"):
        argv += ["--reps", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config error: ") and err.count("\n") == 1
    assert taken.read_text() == "keep"


def test_invalid_model(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, **{"lambda": {"kind": "constant", "params": {"value": 0.0}}})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "lambda_inf > 0 fails" in capsys.readouterr().err


def _sine_h2_staffed(tmp_path, coeffs):
    """The sine/H2 model with piecewise staffing, its knot at t = 2."""
    return _write_config(
        tmp_path, horizon=16.0, x0=0.0,
        **{"lambda": {"kind": "sinusoid", "params": {"a": 1.0, "b": 0.6}},
           "staffing": {"kind": "piecewise_poly",
                        "params": {"knots": [0.0, 2.0, 16.0], "coeffs": coeffs}},
           "patience": {"kind": "h2", "params": {"mean": 2.0, "scv": 4.0}}})


@pytest.mark.parametrize("command", ["approx", "simulate"])
@pytest.mark.parametrize("after", [1.3, 0.8])
def test_staffing_jump_is_invalid_model(tmp_path, capsys, command, after):
    # a jump in s at t = 2, inside the first overload, would add or drop
    # fluid content (flow residual 0.3 up, 0.2 down) with exit 0
    cfg = _sine_h2_staffed(tmp_path, [[1.0], [after]])
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--n", "20"]
    if command == "simulate":
        argv += ["--reps", "2"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "staffing continuous on [0, T] fails" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_staffing_kink_is_valid(tmp_path):
    # s = 1 + 0.1 t, then 1.2 - 0.05 (t - 2): continuous, with a kink at 2
    cfg = _sine_h2_staffed(tmp_path, [[1.0, 0.1], [1.2, -0.05]])
    assert main(["approx", "--config", cfg, "--out", str(tmp_path), "--n", "20"]) == 0


def test_infeasible_staffing(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        **{"lambda": {"kind": "constant", "params": {"value": 3.0}},
           "staffing": {"kind": "linear",
                        "params": {"intercept": 1.0, "slope": -0.9}},
           "horizon": 1.0})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_failed_run_makes_no_output_directory(tmp_path, capsys):
    # the output directory is checked before solving, made only to write
    cfg = _write_config(
        tmp_path,
        **{"lambda": {"kind": "constant", "params": {"value": 3.0}},
           "staffing": {"kind": "linear",
                        "params": {"intercept": 1.0, "slope": -0.9}},
           "horizon": 1.0})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path / "out" / "sub")]) == 4
    assert not (tmp_path / "out").exists()


def test_os_error_outside_the_output_is_no_config_error(tmp_path, monkeypatch):
    # only making the output directory and writing into it map an OSError
    # to a config error
    def broken(*args, **kwargs):
        raise BrokenPipeError("pipe closed")

    monkeypatch.setattr("tvqueue.fluid.solve_fluid", broken)
    with pytest.raises(BrokenPipeError):
        main(["fluid", "--config", _write_config(tmp_path), "--out", str(tmp_path)])


@pytest.mark.parametrize("command", ["fluid", "compare"])
def test_critical_loading_exits_invalid(tmp_path, capsys, command):
    # lambda = s = mu = 1 starting full: the fluid stays on the boundary
    cfg = _write_config(
        tmp_path, **{"lambda": {"kind": "constant", "params": {"value": 1.0}}})
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    if command == "compare":
        argv += ["--n", "20", "--reps", "2"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "critical loading" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fluid", "variance"])
@pytest.mark.parametrize("horizon, step", [(29.0, "1e-2"), (45.0, None)])
def test_ul_tending_to_staffing_exits_ok(tmp_path, command, horizon, step):
    # lambda = s = mu = 1 from x0 = 0: X = 1 - e^-t only tends to s, so
    # the model is underloaded throughout at any grid step
    cfg = _write_config(tmp_path, horizon=horizon, x0=0.0, **{
        "lambda": {"kind": "constant", "params": {"value": 1.0}},
        "patience": {"kind": "exponential", "params": {"rate": 1.0}}})
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    assert main(argv + (["--grid-step", step] if step else [])) == 0


def test_compare_pass_and_fail(tmp_path, capsys):
    cfg = _write_config(tmp_path, horizon=4.0)
    out = tmp_path / "cmp"
    base = ["compare", "--config", cfg, "--out", str(out), "--n", "100",
            "--reps", "60", "--seed", "1", "--grid-step", "0.005"]
    # loose tolerances: this checks plumbing, not statistical accuracy
    assert main(base + ["--tol-mean", "0.1", "--tol-var", "2.0",
                        "--tol-wait", "0.2"]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text
    assert (out / "compare.csv").exists()
    assert (out / "summary.txt").exists()
    # impossibly tight tolerances flip the exit code to 5
    assert main(base + ["--tol-mean", "1e-9", "--tol-wait", "1e-9"]) == 5
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("overrides, violation", [
    ({"mu": float("nan")}, "mu must be finite"),
    ({"mu": float("inf")}, "mu must be finite"),
    ({"x0": float("nan")}, "x0 must be finite"),
    ({"var_x0": float("nan")}, "var_x0 must be finite"),
    ({"c_lambda": float("nan")}, "c_lambda must be finite"),
    ({"horizon": float("nan")}, "horizon must be finite"),
    ({"horizon": float("inf")}, "horizon must be finite"),
    ({"lambda": {"kind": "sinusoid", "params": {"a": float("nan"), "b": 0.6}}},
     "lambda_inf > 0 fails"),
    ({"lambda": {"kind": "constant", "params": {"value": float("inf")}}},
     "lambda_sup < inf fails"),
    ({"staffing": {"kind": "constant", "params": {"value": float("inf")}}},
     "s_sup < inf fails"),
    ({"c_lambda": -1.0}, "c_lambda >= 0 fails"),
    ({"var_x0": -1.0}, "Var(X(0)) >= 0 fails"),
    # an infinite function parameter: nan values on the grid, and no
    # floating-point warning or math domain error on the way
    ({"staffing": {"kind": "sinusoid",
                   "params": {"a": 1.0, "b": 0.3, "c": 1.0, "d": float("inf")}}},
     "s_inf > 0 fails"),
    ({"lambda": {"kind": "sinusoid", "params": {"a": 1.0, "b": 0.6, "c": float("inf")}}},
     "lambda_inf > 0 fails"),
    ({"lambda": {"kind": "linear", "params": {"intercept": 1.0, "slope": float("inf")}}},
     "lambda_inf > 0 fails"),
])
def test_non_finite_number_is_invalid_model(tmp_path, capsys, overrides, violation):
    # json reads NaN and Infinity; validate must not let them through, nor
    # a negative c_lambda or var_x0
    cfg = _write_config(tmp_path, **overrides)
    assert main(["variance", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert violation in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("horizon, obs_step", [(0.25, "0.05"), (16.0, "20")])
def test_compare_without_comparable_point(tmp_path, capsys, monkeypatch,
                                          horizon, obs_step):
    # every observation time lies within the switch window of t = 0
    def no_replications(config):
        raise AssertionError("compare ran replications")

    monkeypatch.setattr(sys.modules["tvqueue.compare"], "estimate", no_replications)
    cfg = _write_config(tmp_path, horizon=horizon)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path), "--n", "20",
                 "--reps", "2", "--obs-step", obs_step]) == 2
    err = capsys.readouterr().err
    assert "no observation point to compare" in err
    assert "Traceback" not in err


def test_compare_with_one_replication(tmp_path, capsys, monkeypatch):
    # a variance needs 2 replications: compare fails before the fluid
    # solve and any replication, while simulate still runs one
    def not_called(*args):
        raise AssertionError("compare went past its config check")

    for name in ("solve_fluid", "estimate"):
        monkeypatch.setattr(sys.modules["tvqueue.compare"], name, not_called)
    cfg = _write_config(tmp_path)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path), "--n", "50",
                 "--reps", "1"]) == 2
    err = capsys.readouterr().err
    assert "reps >= 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.txt").exists()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--n", "5",
                 "--reps", "1"]) == 0


@pytest.mark.parametrize("step", ["7", "100"])
def test_coarse_grid_step_is_config_error(tmp_path, capsys, step):
    # past mu * step = 1 the Gaussian layer's quadratures on the grid lose
    # the decay of X' = -mu X; a step past the horizon would drop it from
    # the grid
    cfg = _write_config(
        tmp_path, **{"lambda": {"kind": "sinusoid", "params": {"a": 1.0, "b": 0.6}},
                     "horizon": 16.0, "x0": 0.0})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path),
                 "--grid-step", step]) == 2
    err = capsys.readouterr().err
    assert "grid step" in err
    assert "Traceback" not in err


def test_overflow_at_coarse_step_is_config_error(tmp_path, capsys):
    # the OL ODE is stiff at patience rate 50: a trial step that throws w
    # far negative, where Fc(w) = exp(-50 w) overflows, is rejected, and
    # the overload found on [7.08, 7.80] holds no grid point of step 1
    cfg = _write_config(tmp_path, **{
        "lambda": {"kind": "sinusoid", "params": {"a": 0.7, "b": 0.5, "c": 1.0, "d": 1.0}},
        "patience": {"kind": "exponential", "params": {"rate": 50.0}},
        "horizon": 8.0, "x0": 0.5})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path), "--grid-step", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "grid step 1 too coarse" in err
    assert "Traceback" not in err


def test_uncovered_potential_wait_is_config_error(tmp_path, capsys, monkeypatch):
    # w grows almost as fast as t, so the continuation past the horizon
    # stops before L(t) = t - w(t) covers it; shortened to run fast
    monkeypatch.setattr("tvqueue.fluid._EXT_SPAN", 1.0)
    cfg = _write_config(tmp_path, **{
        "lambda": {"kind": "constant", "params": {"value": 200.0}},
        "patience": {"kind": "exponential", "params": {"rate": 1e-3}},
        "horizon": 2.0})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "potential wait" in err
    assert "Traceback" not in err


def test_uncovered_potential_wait_exits_in_few_steps(tmp_path, capsys, monkeypatch):
    # the same model over its full continuation span: w grows almost as
    # fast as t, so L(t) = t - w(t) is short of T = 16 after the 1000 time
    # units; adaptive steps get there in a few hundred stage calls, where
    # fixed steps of 1e-3 took 10^6 steps
    calls = []
    survival = ExponentialPatience.survival_scalar
    monkeypatch.setattr(ExponentialPatience, "survival_scalar",
                        lambda self, x: calls.append(x) or survival(self, x))
    cfg = _write_config(tmp_path, **{
        "lambda": {"kind": "constant", "params": {"value": 200.0}},
        "patience": {"kind": "exponential", "params": {"rate": 1e-3}},
        "horizon": 16.0})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "potential wait" in err and "continued to t=1016.000000" in err
    assert "Traceback" not in err
    assert 0 < len(calls) < 2000


def test_overload_between_grid_points_is_config_error(tmp_path, capsys):
    # lambda = 0.65 + 0.5 sin t overloads on [2.050, 2.606], between the
    # grid points 2 and 3 of step 1: found at a step end, and refused
    cfg = _write_config(tmp_path, **{
        "lambda": {"kind": "sinusoid", "params": {"a": 0.65, "b": 0.5}},
        "patience": {"kind": "exponential", "params": {"rate": 1.0}},
        "horizon": 8.0, "x0": 0.5})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path), "--grid-step", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "grid step 1 too coarse: the overload on [2.05" in err
    assert "Traceback" not in err
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_simulate_takes_no_grid_step(tmp_path, capsys):
    # the simulator solves no fluid model, so it has no fluid grid
    cfg = _write_config(tmp_path, horizon=1.0)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--out", str(tmp_path), "--n", "5",
              "--grid-step", "0.002"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-step" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, command):
    # rejected by the parser, before compare solves the fluid model
    def no_solve(*args):
        raise AssertionError("the fluid model was solved")

    monkeypatch.setattr(sys.modules["tvqueue.compare"], "solve_fluid", no_solve)
    cfg = _write_config(tmp_path, horizon=1.0)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path), "--n", "5",
              "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed: must be non-negative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("key, value", [("c_lambda", 2.0), ("c_lambda", 0.0),
                                        ("var_x0", 0.5)])
def test_simulator_rejects_gaussian_only_keys(tmp_path, capsys, monkeypatch,
                                              command, key, value):
    # the simulator has Poisson arrivals and a fixed initial content: a
    # config asking for anything else stops before the fluid solve
    def no_solve(*args):
        raise AssertionError("the fluid model was solved")

    monkeypatch.setattr(sys.modules["tvqueue.compare"], "solve_fluid", no_solve)
    cfg = _write_config(tmp_path, horizon=1.0, **{key: value})
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--n", "5",
                 "--reps", "2"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert f"{key} must be" in err and f"got {value:g}" in err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("argv", [["fluid"], ["variance"], ["approx", "--n", "10"],
                                  ["simulate", "--n", "10", "--reps", "2"],
                                  ["compare", "--n", "10", "--reps", "2"]],
                         ids=lambda argv: argv[0])
def test_overlong_horizon_is_config_error(tmp_path, capsys, argv):
    # horizon / step overflows to inf, so the grid has no point count:
    # a one-line config error, not an OverflowError
    cfg = _write_config(tmp_path, horizon=1e308)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "horizon 1e+308 is too long" in err


def test_gaussian_only_keys_reach_the_analytic_commands(tmp_path):
    # fluid, variance and approx read c_lambda and var_x0
    cfg = _write_config(tmp_path, horizon=2.0, c_lambda=2.0, var_x0=0.5)
    for argv in (["fluid"], ["variance"], ["approx", "--n", "10"]):
        assert main(argv + ["--config", cfg, "--out", str(tmp_path),
                            "--grid-step", "0.01"]) == 0


def test_vanishing_boundary_density_exits_invalid(tmp_path, capsys):
    # lambda falls to 1e-13 at t = 3, so lambda(t - w) Fc(w) drops below
    # the floor in overload once t - w(t) passes 3
    rate = {"kind": "piecewise_poly",
            "params": {"knots": [0.0, 3.0, 10.0], "coeffs": [[2.0], [1e-13]]}}
    cfg = _write_config(tmp_path, horizon=6.0, **{
        "lambda": rate, "patience": {"kind": "exponential", "params": {"rate": 1.0}}})
    assert main(["approx", "--config", cfg, "--out", str(tmp_path), "--n", "10"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: queue boundary density vanished at t=3.6")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


_FAST_PATIENCE = {"kind": "exponential", "params": {"rate": 30.0}}


@pytest.mark.parametrize("command", ["approx", "variance"])
def test_fast_patience_variances_stay_finite(tmp_path, capsys, command):
    # lambda = 1.5, s = mu = 1, patience rate theta = 30: G = -30 t, so
    # exp(2G) leaves the float range from t = 11.8 and one quadrature over
    # the interval would write NaN.  The relaxation time 1/(2 theta) leaves
    # no transient at t = 16; the tolerance is the discretization error of
    # rate 60 at step 1e-3.  Limits: var_Wstar = Isq / (2 theta) with
    # Isq = 2, var_Xstar = Q + qw^2 var_Wstar with Q = 0.5 / theta, qw = 1
    cfg = _write_config(tmp_path, horizon=16.0, patience=_FAST_PATIENCE)
    argv = [command, "--config", cfg, "--out", str(tmp_path)]
    assert main(argv + (["--n", "200"] if command == "approx" else [])) == 0
    assert capsys.readouterr().err == ""
    out = np.genfromtxt(tmp_path / f"{command}.csv", delimiter=",", names=True)
    for name in ("var_X", "var_W", "var_V"):
        assert np.all(np.isfinite(out[name])), name
    if command == "variance":
        assert out["var_Wstar"][-1] == pytest.approx(1.0 / 30.0, rel=1e-5)
        assert out["var_Xstar"][-1] == pytest.approx(1.5 / 30.0, rel=1e-5)


def test_underflowing_patience_survival_solves(tmp_path, capsys):
    # Fc = exp(-30 x) underflows from age 23.6 < T = 30, an age the queue
    # (w -> ln 1.5 / 30) never reaches
    cfg = _write_config(tmp_path, horizon=30.0, patience=_FAST_PATIENCE)
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


class _CutPatience(PatienceDist):
    """Exponential patience of rate 30 whose survival drops to exactly 0
    at age 0.005, below the stationary wait ln 1.5 / 30."""

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.005, np.exp(-30.0 * x), 0.0)

    def cdf(self, x):
        return 1.0 - self.survival(x)

    def pdf(self, x):
        return 30.0 * self.survival(x)


def test_vanishing_patience_survival_at_reached_age_exits_invalid(
        tmp_path, capsys, monkeypatch):
    # the model check stops at Fc's first zero; the sweep's boundary-density
    # floor fails once the wait passes it
    spec = ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0, _CutPatience(), 1.0,
                     x0=1.0)
    monkeypatch.setattr("tvqueue.cli.load_spec", lambda path: spec)
    cfg = _write_config(tmp_path)
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: queue boundary density vanished")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_violated_arrival_envelope_exits_invalid(tmp_path, capsys, monkeypatch,
                                                 command):
    # an envelope below lambda would bias the thinning: the run stops
    envelope = sys.modules["tvqueue.sim"].arrival_envelope

    def halved(spec, horizon):
        edges, env = envelope(spec, horizon)
        return edges, 0.5 * env

    monkeypatch.setattr("tvqueue.sim.arrival_envelope", halved)
    cfg = _write_config(tmp_path, horizon=2.0)
    argv = [command, "--config", cfg, "--out", str(tmp_path), "--n", "20",
            "--reps", "2"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "exceeds its thinning bound" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "5", "--obs-step", "0"],
    ["simulate", "--n", "5", "--obs-step", "-0.05"],
    ["simulate", "--n", "5", "--obs-step", "inf"],
    ["simulate", "--n", "0"],
    ["simulate", "--n", "5", "--reps", "0"],
    ["fluid", "--grid-step", "0"],
    ["approx", "--n", "0"],
    ["simulate", "--n", "5", "--parallel", "0"],
    ["simulate", "--n", "5", "--parallel", "-4"],
    ["compare", "--n", "5", "--tol-var", "0"],
    ["compare", "--n", "5", "--tol-var", "-1"],
    ["compare", "--n", "5", "--tol-var", "nan"],
    ["compare", "--n", "5", "--tol-mean", "0"],
    ["compare", "--n", "5", "--tol-wait", "inf"],
])
def test_nonpositive_numeric_flag_is_config_error(tmp_path, capsys, argv):
    cfg = _write_config(tmp_path, horizon=1.0)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be positive" in err
    assert "Traceback" not in err
