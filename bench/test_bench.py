"""Tests of the benchmark itself: every output check passes on the
program's real output and fails on a perturbed copy, and the tracer
accounts for the traced wall time.

    python3 -m pytest -q bench/test_bench.py

Runs each workload's CLI calls once (about a minute).
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import STATIONARY, operations  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{workload: {label: {column: array}}} from one real run of each."""
    out = {}
    for w in ("desk_sine", "approx_sweep", "staffed_2000"):
        workdir = tmp_path_factory.mktemp(w)
        ops = operations(w, 1)
        run.write_configs(workdir, ops)
        r = run.run_child("run", workdir, w, 1)
        assert r["codes"] == [0] * len(ops)
        out[w] = {label: checks.read_csv(workdir / "out" / label / checks._OUTPUT[w])
                  for label, _, _ in ops}
        if w == "staffed_2000":
            out["path"] = run.run_child("path", workdir, w, 1)["path"]
    return out


def perturbed(c, column, index, change):
    d = copy.deepcopy(c)
    d[column][index] = change(d[column][index])
    return d


def test_desk_checks(outputs):
    c = outputs["desk_sine"]["compare"]
    assert checks.check_desk(c) == []
    early = int(np.searchsorted(c["t"], 0.5))
    mid = int(np.flatnonzero(checks.away_from_switches(c["t"], c["fluid_X"]))[10])
    for column, index, change, word in [
        ("fluid_X", early, lambda v: v + 1e-7, "closed form"),
        ("sim_mean_X", mid, lambda v: v * 1.08, "mean content"),
        ("sim_var_X", mid, lambda v: v * 1.6, "variance ratio"),
        ("sim_var_X", mid, lambda v: v * 0.6, "variance ratio"),
    ]:
        problems = checks.check_desk(perturbed(c, column, index, change))
        assert any(word in p for p in problems), (column, problems)


@pytest.mark.parametrize("label", ["sine_h2", "stationary", "piecewise_tab"])
def test_approx_checks(outputs, label):
    c = outputs["approx_sweep"][label]
    assert checks.check_approx(label, c) == []
    cases = [
        ("mean_Q", 500, lambda v: v + 1e-3, "mean_Q + mean_B"),
        ("var_Q", 500, lambda v: -1.0, "var_Q negative"),
        ("var_V", 500, lambda v: -1.0, "var_V negative"),
        ("var_V", 100, lambda v: float("nan"), "var_V not finite"),
        ("var_V", slice(None), lambda v: np.full_like(v, np.nan), "var_V not finite"),
        ("var_W", 500, lambda v: float("nan"), "var_W not finite"),
        ("mean_B", 500, lambda v: 201.0, "ceil(n s)"),
    ]
    if label == "stationary":
        cases += [(name, -1, lambda v: v * (1 + 1e-4), f"{name} at T")
                  for name in ("mean_W", "mean_X", "var_X")]
    else:
        cases += [("mean_X", 100, lambda v: v * (1 + 1e-7), "quadrature"),
                  ("var_X", 100, lambda v: v * (1 + 1e-7), "Poisson")]
    for column, index, change, word in cases:
        problems = checks.check_approx(label, perturbed(c, column, index, change))
        assert any(word in p for p in problems), (column, problems)


def test_staffed_checks(outputs):
    c = outputs["staffed_2000"]["simulate"]
    assert checks.check_staffed(c) == []
    k = 100
    level = float(checks.staffing_level(c["t"][k]))
    for column, change, word in [
        ("mean_X", lambda v: v + 1e-3, "mean_Q + mean_B"),
        ("mean_B", lambda v: level + 0.5, "ceil(n s(t) - 1e-9)"),
    ]:
        problems = checks.check_staffed(perturbed(c, column, k, change))
        assert any(word in p for p in problems), (column, problems)


def test_path_checks(outputs):
    p = outputs["path"]
    assert checks.check_path(p) == []
    for column, word in [("N", "conservation"), ("forced", "conservation"),
                         ("Q", "X != Q + B"), ("s", "staffing level")]:
        d = copy.deepcopy(p)
        d[column][50] += 1
        problems = checks.check_path(d)
        assert any(word in q for q in problems), (column, problems)


def test_import_metrics_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |     numpy",
        "import time:      2500 |       4000 |       scipy.special",
        "import time:       500 |        500 |     scipy",
        "import time:       300 |       7000 | tvqueue.fluid",
        "import time:       100 |       7100 | tvqueue",
    ])
    got = spans.import_metrics(text)
    assert got == pytest.approx({"init.scipy_import_s": 3e-3, "init.self_import_s": 4e-4})


def test_tracer_accounts_for_wall_time(tmp_path):
    from tvqueue import cli, fluid, model

    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(dict(STATIONARY, horizon=2.0)))
    original = fluid.solve_fluid
    tracer = spans.Tracer("unit")
    tracer.install()
    assert cli.fluid.solve_fluid is not original
    entry = tracer.wrap_entry(cli.main)
    assert entry(["approx", "--n", "50", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    tracer.uninstall()
    assert fluid.solve_fluid is original and cli.load_spec is model.load_spec
    m = tracer.layer_metrics()
    assert m["model.validate_calls"] == 2          # the CLI's, then solve_fluid's
    assert m["functions.calls"] > 0 and m["patience.calls"] > 0
    assert m["sim.replication_s"] == 0.0
    units = spans.per_layer_units()
    self_total = sum(v for k, v in m.items()
                     if units[k] == "s" and not k.startswith("trace."))
    assert 0.0 <= m["trace.remainder_s"] < 0.2 * m["trace.wall_s"]
    assert self_total + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"])
    by_id = {s[0]: s for s in tracer.spans}
    root = [s for s in tracer.spans if s[1] == "cli.main"]
    assert len(root) == 1 and root[0][4] is None
    for s in tracer.spans:
        if s[4] is not None:
            parent = by_id[s[4]]
            assert parent[2] <= s[2] and s[3] <= parent[3]


def test_paced_leaves_out_probes_and_scales_by_their_speed():
    import signal
    import time

    old = signal.getsignal(signal.SIGALRM)
    with speed.Paced() as p:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [d for t, d in p.probes if p._start <= t < p._end]
    assert len(p.probes) == len(inside) + 2 and len(inside) >= 3
    assert p.raw_seconds == pytest.approx(p._end - p._start - sum(inside))
    assert 0.3 <= p.raw_seconds + sum(inside) < 0.5
    scale = sum(speed.PROBE_REF_S / d for _, d in p.probes) / len(p.probes)
    assert p.seconds == pytest.approx(p.raw_seconds * scale)
