import filecmp
import json

import pytest

from tvqueue.cli import main


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


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fluid", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_invalid_model(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, **{"lambda": {"kind": "constant", "params": {"value": 0.0}}})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "lambda_inf > 0 fails" in capsys.readouterr().err


def test_infeasible_staffing(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        **{"lambda": {"kind": "constant", "params": {"value": 3.0}},
           "staffing": {"kind": "linear",
                        "params": {"intercept": 1.0, "slope": -0.9}},
           "horizon": 1.0})
    assert main(["fluid", "--config", cfg, "--out", str(tmp_path)]) == 4


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
])
def test_nonpositive_numeric_flag_is_config_error(tmp_path, capsys, argv):
    cfg = _write_config(tmp_path, horizon=1.0)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be positive" in err
    assert "Traceback" not in err
