import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvqueue import model
from tvqueue.functions import ConstantFn, SinusoidFn
from tvqueue.model import ModelSpec, load_spec, spec_from_dict, validate, write_columns
from tvqueue.patience import ExponentialPatience, H2Patience


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


@pytest.mark.parametrize("rate, horizon", [(30.0, 30.0), (0.5, 1500.0)])
def test_underflowing_patience_survival_is_valid(rate, horizon):
    # Fc = exp(-rate x) underflows before the horizon; positivity is
    # checked only on the ages before it does
    assert validate(_spec(patience=ExponentialPatience(rate), horizon=horizon)).ok


class _LatePatience(ExponentialPatience):
    """Exponential survival with a density that vanishes on [1, 2)."""

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 1.0) & (x < 2.0), 0.0, super().pdf(x))


def test_density_zero_before_underflow_fails():
    report = validate(_spec(patience=_LatePatience(1.0)))
    assert report.violations == ["f(x) > 0 on [0, T] fails"]


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
    # h2's other form: the mixing probability p of Exp(rate1) and the rates
    cfg["patience"] = {"kind": "h2", "params": {"p": 0.25, "rate1": 2.0, "rate2": 0.5}}
    path.write_text(json.dumps(cfg))
    spec = load_spec(path)
    assert type(spec.patience) is H2Patience
    assert vars(spec.patience) == vars(H2Patience(p=0.25, rate1=2.0, rate2=0.5))
    assert float(spec.patience.survival(1.0)) == pytest.approx(
        0.25 * np.exp(-2.0) + 0.75 * np.exp(-0.5))
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


def _csv_reference(columns):
    """The table as csv.writer writes it, each float cell as "%.10g" % v."""
    buf = io.StringIO(newline="")
    out = csv.writer(buf)
    out.writerow(columns)
    cols = [np.asarray(c) for c in columns.values()]
    for i in range(len(cols[0])):
        out.writerow(["%.10g" % c[i] if c.dtype.kind == "f" else c[i].item() for c in cols])
    return buf.getvalue()


@pytest.mark.parametrize("rows", ["0", "1", "B-1", "B", "B+1", "2B+3"])
def test_write_columns_blocks_match_csv_writer(tmp_path, rows):
    # rows are formatted a block at a time: an empty table, a part block,
    # whole blocks and whole blocks plus a part all read as csv.writer's;
    # unsigned integers and non-ASCII names and cells too, as UTF-8
    block = model._CSV_BLOCK
    n = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1,
         "2B+3": 2 * block + 3}[rows]
    specials = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1, -2.5e17, 123456789.123]
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    x[: len(specials)] = specials[:n]
    columns = {
        "x": x,
        "t": np.arange(n) / 3.0,
        "k": np.arange(n, dtype=np.int64) - 7,
        "regime": np.where(np.arange(n) % 3 == 0, "OL", "UL"),
        "y": x[::-1].copy(),
        "count": np.arange(n, dtype=np.uint64) * np.uint64(2 ** 40),
        "régime_é": np.where(np.arange(n) % 2 == 0, "é", "∞ω"),
    }
    path = tmp_path / "table.csv"
    write_columns(path, columns)
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == _csv_reference(columns)


def test_write_columns_memory_does_not_grow_with_rows(tmp_path):
    # a block's cells are built from its slice of each column: a table of
    # 40 blocks of 12 float columns, whose 122880 cells as Python floats
    # alone take about 3 MB, writes in under 1 MB of traced memory
    rng = np.random.default_rng(0)
    columns = {f"c{j}": rng.standard_normal(40 * model._CSV_BLOCK) for j in range(12)}
    tracemalloc.start()
    try:
        write_columns(tmp_path / "table.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6



@pytest.mark.parametrize("values", [[0, 7, -42, 9999999999, -9999999999], [10 ** 10, -1],
                                    [np.iinfo(np.int64).min, np.iinfo(np.int64).max]])
def test_integer_cells_match_percent_d(tmp_path, values):
    # integer columns are written by numpy's decimal cast, as %d
    i = np.array(values, dtype=np.int64)
    u = np.abs(i).astype(np.uint64)
    write_columns(tmp_path / "ints.csv", {"i": i, "u": u})
    rows = (tmp_path / "ints.csv").read_bytes().split(b"\r\n")
    assert rows[1:] == [b"%d,%d" % iu for iu in zip(i.tolist(), u.tolist())] + [b""]


def _float_cells(x):
    """The cells _float_words builds for the floats x, split at their
    comma separators, and the indices it leaves to `b"%.10g" % v`."""
    x = np.asarray(x, dtype=float)
    words, slow = model._float_words(x, np.full(len(x), ord(","), "<u8"))
    return words.tobytes().translate(None, b"\0").split(b",")[1:], slow


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_float_cells_match_percent_format(values):
    cells, _ = _float_cells(values)
    assert cells == [b"%.10g" % v for v in values]


def test_float_cells_match_percent_format_on_random_bits(tmp_path):
    # random bit patterns: every exponent, subnormals, nan payloads and
    # infinities, written through write_columns in blocks
    x = np.frombuffer(np.random.default_rng(34).bytes(8 * 100_000), dtype=float)
    write_columns(tmp_path / "bits.csv", {"x": x, "y": x[::-1]})
    rows = (tmp_path / "bits.csv").read_bytes().split(b"\r\n")
    assert rows[0] == b"x,y" and rows[-1] == b""
    want = [b"%.10g,%.10g" % vw for vw in zip(x.tolist(), x[::-1].tolist())]
    assert rows[1:-1] == want


def _ulps(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


@pytest.mark.parametrize("values", [
    pytest.param(_ulps(1e-5) + _ulps(-1e-5) + _ulps(1e-4) + _ulps(1e10) + _ulps(-1e10)
                 + _ulps(1e16) + _ulps(9.9999999995e15), id="exponent_switches"),
    pytest.param([1e100, -1e100, 1e-100, -1e-100, 5e-324, -5e-324, np.finfo(float).max,
                  -np.finfo(float).max, np.finfo(float).tiny, 0.0, -0.0], id="extremes"),
])
def test_float_cells_fixed_values(values):
    cells, _ = _float_cells(values)
    assert cells == [b"%.10g" % v for v in values]


def test_float_cells_ties_take_the_exact_format():
    # exact halves at the 11th digit round to even, which the scaled
    # mantissa cannot tell from a value next to them: every cell of these
    # is written by the per-cell format
    ties = [1234567890.5, 1234567891.5, 9999999999.5, -9999999999.5, 12345678905.0,
            99999999995.0]
    cells, slow = _float_cells(ties)
    assert cells == [b"%.10g" % v for v in ties]
    assert cells[0] == b"1234567890" and cells[1] == b"1234567892"
    assert slow.tolist() == list(range(len(ties)))
