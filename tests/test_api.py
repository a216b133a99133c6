import importlib
import json
import math
import os
import pickle
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tvqueue
from tvqueue.approx import report
from tvqueue.fluid import solve_fluid
from tvqueue.gaussian import propagate
from tvqueue.model import spec_from_dict
from tvqueue.sim import SimConfig, estimate, run_replication

MODULES = sorted(m.name for m in pkgutil.iter_modules(tvqueue.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"tvqueue.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# every module's public names: adding or dropping one is an edit here
PUBLIC = {
    "approx": ["PerformanceReport", "truncated_moments", "report", "write_report_csv"],
    "cli": ["main"],
    "compare": ["CompareResult", "compare", "compare_metrics", "write_compare_csv",
                "write_summary"],
    "fluid": ["FluidSolution", "FluidInterval", "StaffingInfeasibleError",
              "CriticalLoadingError", "BoundaryDensityError", "solve_fluid",
              "write_fluid_csv"],
    "functions": ["SmoothFn", "ConstantFn", "LinearFn", "SinusoidFn", "PiecewisePolyFn",
                  "fn_from_config"],
    "gaussian": ["IntervalKernels", "GaussianSolution", "MeanShift", "var_UL", "propagate",
                 "mean_shift_refined", "write_gaussian_csv"],
    "model": ["ModelSpec", "ValidationReport", "validate", "load_spec", "spec_from_dict"],
    "patience": ["PatienceDist", "ExponentialPatience", "H2Patience", "TabulatedPatience",
                 "h2_from_scv", "patience_from_config"],
    "sim": ["SimConfig", "SimPath", "SimEstimate", "Moments", "arrival_envelope",
            "gen_arrivals", "staffing_epochs", "run_replication", "estimate",
            "write_path_csv", "write_estimate_csv"],
}


def test_public_api_is_pinned():
    assert sorted(PUBLIC) == MODULES
    for module, names in PUBLIC.items():
        assert importlib.import_module(f"tvqueue.{module}").__all__ == names, module


# piecewise-polynomial arrivals with a tabulated patience cdf: an approx
# run on it reaches every quadrature, interpolant and normal-cdf routine
_X = [0.5 * i for i in range(21)]
PIECEWISE_TAB = {
    "lambda": {"kind": "piecewise_poly",
               "params": {"knots": [0.0, 3.0, 6.0, 9.0, 12.0],
                          "coeffs": [[0.5, 0.2, 0.05], [1.55, 0.0, -0.05],
                                     [1.10, -0.15, 0.0], [0.65, 0.1, 0.03]]}},
    "staffing": {"kind": "constant", "params": {"value": 1.0}},
    "mu": 1.0,
    "patience": {"kind": "tabulated",
                 "params": {"x": _X, "F": [1.0 - (1.0 + 0.1 * x) * math.exp(-0.5 * x)
                                           for x in _X]}},
    "horizon": 12.0,
}


SINE_H2 = {
    "lambda": {"kind": "sinusoid", "params": {"a": 1.0, "b": 0.6}},
    "staffing": {"kind": "constant", "params": {"value": 1.0}},
    "mu": 1.0,
    "patience": {"kind": "h2", "params": {"mean": 2.0, "scv": 4.0}},
    "horizon": 16.0,
}


def _modules_after_approx(tmp_path, cfg, prefixes):
    """The modules named in `prefixes`, or under them, that one `tvqueue
    approx --n 200` run on the config `cfg` loads in a fresh interpreter."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = textwrap.dedent(f"""
        import json, sys
        from tvqueue.cli import main
        code = main(["approx", "--config", {str(path)!r}, "--out", {str(tmp_path)!r},
                     "--n", "200"])
        prefixes = {tuple(prefixes)!r}
        under = tuple(p + "." for p in prefixes)
        print(json.dumps([code, sorted(m for m in sys.modules
                                       if m in prefixes or m.startswith(under))]))
    """)
    src = str(Path(tvqueue.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code in (0, None)
    assert (tmp_path / "approx.csv").stat().st_size > 0
    return modules


def test_runtime_loads_no_scipy(tmp_path):
    # numpy is the only run-time dependency: a full approx run in a fresh
    # interpreter must not load scipy
    assert _modules_after_approx(tmp_path, PIECEWISE_TAB, ["scipy"]) == []


def test_approx_run_loads_no_numpy_polynomial(tmp_path):
    # the interpolants form their derivative coefficients without
    # numpy.polynomial's polyder, so an approx run, which builds them,
    # does not load numpy.polynomial (about 3 ms) either
    assert _modules_after_approx(tmp_path, SINE_H2, ["numpy.polynomial"]) == []


def _modules_after_import(prefixes, module="tvqueue.cli"):
    """The modules named in `prefixes`, or under them, that `import
    module` loads in a fresh interpreter."""
    code = textwrap.dedent(f"""
        import json, sys
        import {module}
        prefixes = {tuple(prefixes)!r}
        under = tuple(p + "." for p in prefixes)
        print(json.dumps(sorted(m for m in sys.modules if m in prefixes or m.startswith(under))))
    """)
    src = str(Path(tvqueue.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_process_pool():
    # the process pool is imported only by a parallel simulation, so
    # importing the CLI loads neither it nor multiprocessing
    assert _modules_after_import(["multiprocessing", "concurrent.futures.process"]) == []


def test_cli_import_loads_no_dataclasses():
    # the spec, function, patience and result types are plain classes, so
    # importing the CLI neither loads dataclasses nor generates methods
    assert _modules_after_import(["dataclasses"]) == []


def test_cli_import_loads_no_numpy_polynomial():
    # the age integrals' Gauss-Legendre nodes are hard-coded, so importing
    # the CLI does not load numpy.polynomial (3-6 ms)
    assert _modules_after_import(["numpy.polynomial"]) == []


def test_sim_import_loads_no_other_pipeline():
    # the package exports no names, so importing the simulator loads only
    # the modules it uses: not the fluid, Gaussian, approx or compare layers
    assert _modules_after_import(["tvqueue.fluid", "tvqueue.gaussian", "tvqueue.approx",
                                  "tvqueue.compare"], "tvqueue.sim") == []


def test_result_records_pickle():
    # the result records pickle and come back with every field, the fluid
    # solution's intervals and the simulator's path and estimate included
    spec = spec_from_dict(dict(SINE_H2, horizon=4.0))
    gs = propagate(solve_fluid(spec, 0.01))
    config = SimConfig(spec, n=10, reps=2)
    records = (gs.fluid, gs.fluid.intervals[-1], gs, report(10, gs),
               run_replication(config, 1), estimate(config))
    for rec in records:
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and vars(back).keys() == vars(rec).keys()
        for name, value in vars(rec).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(back, name), value, equal_nan=True), name
