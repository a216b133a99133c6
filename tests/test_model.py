import json

import numpy as np
import pytest

from tvqueue.functions import ConstantFn, SinusoidFn
from tvqueue.model import ModelSpec, load_spec, spec_from_dict, validate, write_columns
from tvqueue.patience import ExponentialPatience


def _spec(**kw):
    base = dict(
        arrival_rate=ConstantFn(1.0),
        staffing=ConstantFn(1.0),
        mu=1.0,
        patience=ExponentialPatience(1.0),
        horizon=10.0,
    )
    base.update(kw)
    return ModelSpec(**base)


def test_valid_spec_passes():
    report = validate(_spec())
    assert report.ok
    assert str(report) == "model valid"


def test_nonpositive_arrival_rate():
    report = validate(_spec(arrival_rate=ConstantFn(0.0)))
    assert "lambda_inf > 0 fails" in report.violations


def test_arrival_rate_dipping_negative():
    report = validate(_spec(arrival_rate=SinusoidFn(0.5, 1.0)))
    assert "lambda_inf > 0 fails" in report.violations


def test_nonpositive_staffing():
    report = validate(_spec(staffing=ConstantFn(-1.0)))
    assert "s_inf > 0 fails" in report.violations


def test_initial_content_above_staffing():
    report = validate(_spec(x0=2.0))
    assert "X(0) <= s(0) fails" in report.violations


def test_multiple_violations_reported_together():
    report = validate(_spec(arrival_rate=ConstantFn(-1.0), mu=-2.0, x0=-1.0))
    assert len(report.violations) >= 3


def test_spec_from_dict_defaults():
    spec = spec_from_dict({
        "lambda": {"kind": "constant", "params": {"value": 1.0}},
        "staffing": {"kind": "constant", "params": {"value": 2.0}},
        "mu": 0.5,
        "patience": {"kind": "exponential", "params": {"rate": 1.0}},
        "horizon": 8.0,
    })
    assert spec.x0 == 0.0
    assert spec.var_x0 == 0.0
    assert spec.c_lambda == 1.0
    assert spec.arrival_rate_g is None


def test_load_spec_roundtrip(tmp_path):
    cfg = {
        "lambda": {"kind": "sinusoid", "params": {"a": 1.0, "b": 0.6}},
        "staffing": {"kind": "constant", "params": {"value": 1.0}},
        "mu": 1.0,
        "patience": {"kind": "h2", "params": {"mean": 2.0, "scv": 4.0}},
        "horizon": 16.0,
        "c_lambda": 1.0,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    spec = load_spec(path)
    assert spec.horizon == 16.0
    assert float(spec.arrival_rate(0.0)) == pytest.approx(1.0)
    assert validate(spec).ok


def test_write_columns(tmp_path):
    path = tmp_path / "table.csv"
    write_columns(path, {
        "t": np.array([0.0, 1.0 / 3.0]),
        "count": np.array([3, 12], dtype=int),
        "kind": np.array(["UL", "OL"]),
        "v": np.array([np.nan, 1234567.891234]),
    })
    rows = path.read_text().splitlines()
    assert rows[0] == "t,count,kind,v"      # dict order
    assert rows[1] == "0,3,UL,nan"
    assert rows[2] == "0.3333333333,12,OL,1234567.891"
