import filecmp
import gc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import chunked_arrivals, heap_replication
from tvqueue.functions import ConstantFn, LinearFn, PiecewisePolyFn, SinusoidFn, SmoothFn
from tvqueue.model import ModelSpec
from tvqueue.patience import ExponentialPatience, PatienceDist, TabulatedPatience, h2_from_scv
from tvqueue.sim import (
    EnvelopeError,
    Moments,
    SimConfig,
    _TRACKED,
    _by_name,
    _exponentials,
    _fixed_setup,
    arrival_envelope,
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
    envelope = arrival_envelope(spec, 6.0)
    total = np.empty(draws)
    window = np.empty(draws)
    for i in range(draws):
        a = gen_arrivals(spec, n, rng, envelope)
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
    a = gen_arrivals(spec, 100, np.random.default_rng(0), arrival_envelope(spec, 4.0))
    assert np.all(a >= 0.0) and np.all(a <= 4.0)
    assert np.all(np.diff(a) >= 0.0)


def test_block_and_single_exponential_draws_agree():
    # the departure clock reads exponentials drawn in blocks of 1024; a
    # seeded path equals the one drawn a value at a time only while
    # numpy's block and single draws give the same sequence
    for seed in (0, 7):
        single = np.random.default_rng(seed)
        block = np.random.default_rng(seed)
        ones = [single.standard_exponential() for _ in range(2500)]
        blocks = np.concatenate([block.standard_exponential(1024) for _ in range(3)])
        assert ones == blocks[:2500].tolist()
        # and so does the clock's C-level iterator over 1024-draw blocks
        draw = _exponentials(np.random.default_rng(seed)).__next__
        assert isinstance(draw, types.MethodWrapperType)
        assert [draw() for _ in range(2500)] == ones


def _staffed_spec():
    return ModelSpec(SinusoidFn(1.0, 0.6), SinusoidFn(1.0, 0.3, 1.0, -0.5), 1.0,
                     ExponentialPatience(0.5), 3.0)


def test_batch_builds_fixed_setup_once(monkeypatch):
    # the envelope and the staffing epochs depend on (spec, n, horizon)
    # alone: a batch of 5 replications builds each once
    calls = {"envelope": 0, "epochs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr("tvqueue.sim.arrival_envelope",
                        counted("envelope", arrival_envelope))
    monkeypatch.setattr("tvqueue.sim.staffing_epochs",
                        counted("epochs", staffing_epochs))
    estimate(SimConfig(_staffed_spec(), n=20, reps=5))
    assert calls == {"envelope": 1, "epochs": 1}


def test_batch_paths_equal_single_replications(monkeypatch):
    # the shared set-up changes no path: each replication of a batch
    # equals run_replication(config, seed) building its own set-up
    config = SimConfig(_staffed_spec(), n=20, reps=4, base_seed=11)
    seen = {}

    def recorded(config, seed, *rest):
        seen[seed] = path = run_replication(config, seed, *rest)
        return path

    monkeypatch.setattr("tvqueue.sim.run_replication", recorded)
    estimate(config)
    assert sorted(seen) == [11, 12, 13, 14]
    for seed, path in seen.items():
        alone = run_replication(config, seed)
        for name in ("X", "Q", "B", "W", "V", "s", "N", "D", "A", "E", "forced"):
            assert np.array_equal(getattr(path, name), getattr(alone, name),
                                  equal_nan=True), (seed, name)


def _assert_same_path(path, oracle, label=""):
    for name, a in vars(path).items():
        b = getattr(oracle, name)
        if name == "x0":
            assert type(a) is type(b) and a == b, label
        else:
            assert a.dtype == b.dtype, (label, name)
            assert np.array_equal(a, b, equal_nan=True), (label, name)


def _tabulated():
    x = np.linspace(0.0, 10.0, 21)
    return TabulatedPatience(x, 1.0 - (1.0 + 0.1 * x) * np.exp(-0.5 * x))


# (label, spec, n, seeds): the event loop against the heap oracle
ORACLE_CASES = [
    ("sine_h2", ModelSpec(SinusoidFn(1.0, 0.6), ConstantFn(1.0), 1.0,
                          h2_from_scv(2.0, 4.0), 16.0), 200, range(3)),
    ("staffed_x0=0", _staffed_spec(), 40, range(12)),
    ("staffed_x0=1", ModelSpec(**dict(vars(_staffed_spec()), x0=1.0)), 40, range(12)),
    ("stationary_x0=1", ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                                  ExponentialPatience(0.5), 30.0, x0=1.0), 30, range(4)),
    ("piecewise_tab", ModelSpec(
        PiecewisePolyFn([0.0, 3.0, 6.0, 9.0, 12.0],
                        [[0.5, 0.2, 0.05], [1.55, 0.0, -0.05],
                         [1.10, -0.15, 0.0], [0.65, 0.1, 0.03]]),
        ConstantFn(1.0), 1.0, _tabulated(), 12.0), 40, range(6)),
    ("n=1", ModelSpec(SinusoidFn(1.0, 0.6), ConstantFn(1.0), 1.0,
                      h2_from_scv(2.0, 4.0), 16.0), 1, range(20)),
    ("no_arrivals", _mmn_spec(0.3, 1.0, horizon=2.0), 1, range(20)),
    # one full-pool stretch of ~6000 departures, a draw each, across
    # several 1024-draw buffer ends
    ("stationary_x0=1_n=200", ModelSpec(ConstantFn(1.5), ConstantFn(1.0), 1.0,
                                        ExponentialPatience(0.5), 30.0, x0=1.0), 200, range(3)),
    # many short full-pool stretches cut by staffing epochs
    ("staffed_n=2000", _staffed_spec(), 2000, range(1)),
]


@pytest.mark.parametrize("label, spec, n, seeds", ORACLE_CASES,
                         ids=[c[0] for c in ORACLE_CASES])
def test_replication_matches_heap_oracle(label, spec, n, seeds):
    # the loop without abandonment events reads every field of the path
    # the event-by-event heap simulation observes, bit for bit
    config = SimConfig(spec, n=n, reps=1)
    fixed = _fixed_setup(config)
    empty = 0
    for seed in seeds:
        path = run_replication(config, seed, fixed)
        _assert_same_path(path, heap_replication(config, seed, fixed), (label, seed))
        empty += path.N[-1] == 0
        if label == "stationary_x0=1_n=200":
            assert path.D[-1] > 4 * 1024
    if label == "no_arrivals":
        assert 0 < empty < len(seeds)


_ORACLE_SPECS = {label: spec for label, spec, _, _ in ORACLE_CASES}


# (label, spec, n): thinning against the chunk-by-chunk oracle
THINNING_CASES = [
    ("sine_h2", _ORACLE_SPECS["sine_h2"], 200),
    ("staffed_n=40", _staffed_spec(), 40),
    ("staffed_n=2000", _staffed_spec(), 2000),
    ("piecewise_tab", _ORACLE_SPECS["piecewise_tab"], 50),
    ("stationary", _ORACLE_SPECS["stationary_x0=1"], 30),
    ("n=1", _ORACLE_SPECS["sine_h2"], 1),
    ("lambda=0.01", _mmn_spec(0.01, 1.0, horizon=2.0), 1),
]


@pytest.mark.parametrize("label, spec, n", THINNING_CASES,
                         ids=[c[0] for c in THINNING_CASES])
def test_gen_arrivals_matches_chunked_oracle(label, spec, n):
    # one uniform block per chunk and one sort draw and keep what the
    # chunk-by-chunk thinning does, and leave the generator where it does
    envelope = arrival_envelope(spec, spec.horizon)
    empty = 0
    for seed in range(8):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        a = gen_arrivals(spec, n, rng, envelope)
        b = chunked_arrivals(spec, n, ref, envelope)
        assert a.dtype == b.dtype and np.array_equal(a, b), (label, seed)
        assert rng.random() == ref.random(), (label, seed)
        empty += len(a) == 0
    if label == "lambda=0.01":
        assert empty == 8


class _CountingRng:
    """Forwards to a Generator and counts the calls of each method."""

    def __init__(self, rng):
        self.rng, self.calls = rng, {}

    def __getattr__(self, name):
        def call(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return getattr(self.rng, name)(*args)
        return call


def test_gen_arrivals_draws_one_count_and_one_block_per_chunk():
    # at n = 1 some chunks draw no candidate and so no block
    spec = _ORACLE_SPECS["sine_h2"]
    edges, env = arrival_envelope(spec, spec.horizon)
    rng, ref = _CountingRng(np.random.default_rng(3)), _CountingRng(np.random.default_rng(3))
    gen_arrivals(spec, 1, rng, (edges, env))
    chunked_arrivals(spec, 1, ref, (edges, env))    # two uniform calls per filled chunk
    filled = ref.calls["uniform"] // 2
    assert 0 < filled < len(env)
    assert rng.calls == {"poisson": len(env), "random": filled}


def test_gen_arrivals_rejects_lambda_above_its_bound():
    spec = _staffed_spec()
    edges, env = arrival_envelope(spec, spec.horizon)
    with pytest.raises(EnvelopeError, match="exceeds its thinning bound"):
        gen_arrivals(spec, 40, np.random.default_rng(0), (edges, 0.5 * env))


class _OneDimFn(SmoothFn):
    """Delegates to fn, asserting that every evaluation is on 1-D input."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t):
        assert np.ndim(t) == 1
        return self.fn(t)

    def deriv(self, t):
        assert np.ndim(t) == 1
        return self.fn.deriv(t)

    def breakpoints(self):
        return self.fn.breakpoints()


@pytest.mark.parametrize("lam, breaks", [
    (SinusoidFn(1.0, 0.6), []),
    # a breakpoint at 3.3, off the 65 edges 12 k / 64
    (PiecewisePolyFn([0.0, 3.3, 12.0], [[0.5, 0.2, 0.05], [1.61, -0.1, 0.002]]), [3.3]),
], ids=["sinusoid", "piecewise"])
def test_arrival_envelope_is_its_documented_bound(lam, breaks):
    # per chunk: the largest of 257 samples of lambda plus half a spacing
    # times the largest sampled |lambda'|, plus 1e-12, bit for bit
    T = 12.0
    edges, env = arrival_envelope(ModelSpec(_OneDimFn(lam), ConstantFn(1.0), 1.0,
                                            ExponentialPatience(1.0), T), T)
    assert np.array_equal(edges, np.union1d(np.linspace(0.0, T, 65), breaks))
    ref = []
    for a, b in zip(edges[:-1], edges[1:]):
        ts = np.linspace(a, b, 257)
        slope = np.max(np.abs(lam.deriv(ts)))
        ref.append(np.max(lam(ts)) + 0.5 * (b - a) / 256.0 * slope + 1e-12)
    assert env.tobytes() == np.array(ref).tobytes()


class FixedPatience(PatienceDist):
    """Hands out a fixed list of patience values, in arrival order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def sample(self, rng, size):
        assert size == len(self.values)
        return self.values.copy()


def _pinned(monkeypatch, arrivals, patience, spec, n, seed=0, epochs=None):
    """Path and oracle path of one replication with the given arrival
    epochs and patience values, and staffing epochs (times, levels) if
    given."""
    arrivals = np.asarray(arrivals, dtype=float)
    assert np.all(np.diff(arrivals) >= 0.0)
    for thinning in ("tvqueue.sim.gen_arrivals", "oracles.chunked_arrivals"):
        monkeypatch.setattr(thinning, lambda *args: arrivals.copy())
    if epochs is not None:
        times, levels = np.asarray(epochs[0], dtype=float), np.asarray(epochs[1], dtype=int)
        monkeypatch.setattr("tvqueue.sim.staffing_epochs", lambda *args: (times, levels))
    else:   # undo an earlier call's epochs
        monkeypatch.setattr("tvqueue.sim.staffing_epochs", staffing_epochs)
    spec = ModelSpec(**dict(vars(spec), patience=FixedPatience(patience)))
    config = SimConfig(spec, n=n, reps=1)
    return run_replication(config, seed), heap_replication(config, seed)


def test_ties_on_staffing_epochs_and_observations(monkeypatch):
    # staffing rises by one every 0.25 (n = 4, s = 0.5 + t): arrivals land
    # on staffing epochs and observation points, some with no patience,
    # and queued customers' deadlines fall on staffing epochs and
    # observation points; the staffing change comes first, then the
    # arrival, and a customer whose deadline is the epoch still enters
    spec = ModelSpec(ConstantFn(1.0), LinearFn(0.5, 1.0), 1.0,
                     ExponentialPatience(1.0), 2.0)
    n = 4
    epochs = staffing_epochs(spec, n, spec.horizon)[0]
    grid = SimConfig(spec, n=n, reps=1).obs_grid()
    on = np.concatenate((epochs[epochs < 2.0], grid[1::3]))
    # deadlines exactly on a target: a - (a - t) is exact for a in [t/2, 2t]
    targets = np.concatenate((epochs[2:-1], grid[5::4]))
    early = 0.75 * targets
    arr = np.concatenate((on, on, early, early))
    pat = np.concatenate((np.zeros(len(on)), np.full(len(on), 0.1),
                          targets - early, np.zeros(len(early))))
    order = np.argsort(arr, kind="stable")
    arr, pat = arr[order], pat[order]
    assert np.all(early + (targets - early) == targets)
    for seed in range(6):
        path, oracle = _pinned(monkeypatch, arr, pat, spec, n, seed)
        _assert_same_path(path, oracle, seed)
        assert np.all(path.conservation_residual() == 0)
        assert path.A[-1] > 0 and path.E[-1] > 0


def _first_departure(seed, busy):
    """Epoch of the first departure when `busy` servers (mu = 1) are busy
    from time 0 on: the first exponential of the service stream / busy."""
    rng_srv = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
    return rng_srv.standard_exponential() / busy


def test_ties_on_the_first_departure(monkeypatch):
    # the first departure is at an epoch the test knows, so arrivals,
    # deadlines and staffing changes can be put on it, and one staffing
    # decrease on an arrival that finds a free server
    one = ModelSpec(ConstantFn(1.0), ConstantFn(1.0), 1.0,
                    ExponentialPatience(1.0), 4.0, x0=1.0)
    two = ModelSpec(**dict(vars(one), x0=0.5))      # n = 2: one of two busy
    for seed in range(8):
        t1, t2 = _first_departure(seed, 1), _first_departure(seed, 2)
        if t1 > 3.5:
            continue
        a = 0.6 * t1
        cases = {
            # a deadline on the departure is served there; an arrival on
            # it with no patience queues first, then abandons
            "deadline": (one, 1, [a, t1], [t1 - a, 0.0], None),
            # an arrival on a departure that finds a free server enters
            # before the departure
            "arrival": (two, 2, [t1], [1.0], None),
            # with every server busy it queues first and is served there
            "queued": (one, 2, [t2], [1.0], None),
            # a staffing rise on a departure comes first
            "staffing": (one, 1, [a], [5.0], ([t1], [2])),
            # a staffing cut on an arrival that finds a free server comes
            # first: the arrival waits
            "cut": (two, 2, [a], [5.0], ([a], [1])),
            # a staffing cut to 0 on a departure with a server free comes
            # first: the busy one is forced out and never departs
            "free_cut": (two, 2, [3.9], [1.0], ([t1], [0])),
        }
        for label, (spec, n, arr, pat, epochs) in cases.items():
            path, oracle = _pinned(monkeypatch, arr, pat, spec, n, seed, epochs)
            _assert_same_path(path, oracle, (label, seed))
            assert np.all(path.conservation_residual() == 0)
            if label == "deadline":
                after = np.searchsorted(path.t, t1)
                assert path.E[after] == 1 and path.A[after] == 1 and path.D[after] >= 1


def test_ties_on_full_pool_departures(monkeypatch):
    # four servers start busy and queued customers keep them so, each
    # departure at rate 4 taking the queue's head; a staffing epoch put
    # on the 24th departure comes first, and an arrival on the 13th, when
    # the queue has just emptied, is served there
    spec = ModelSpec(ConstantFn(1.0), ConstantFn(1.0), 1.0,
                     ExponentialPatience(1.0), 16.0, x0=1.0)
    for seed in range(4):
        rng_srv = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
        t = [rng_srv.standard_exponential() / 4.0]     # the departures' clock
        for _ in range(23):
            t.append(t[-1] + rng_srv.standard_exponential() / 4.0)
        queued = list(np.linspace(0.0, 0.1, 12))
        cases = {
            "staffing_up": (np.linspace(0.0, 0.5, 60), ([t[23]], [5])),
            "staffing_down": (np.linspace(0.0, 0.5, 60), ([t[23]], [3])),
            "arrival": (np.array(queued + [t[12]]), None),
        }
        for label, (arr, epochs) in cases.items():
            path, oracle = _pinned(monkeypatch, arr, np.full(len(arr), 100.0), spec, 4,
                                   seed, epochs)
            _assert_same_path(path, oracle, (label, seed))
            assert np.all(path.conservation_residual() == 0)
            assert path.forced[-1] == (label == "staffing_down")


def test_no_event_after_the_last_observation(monkeypatch):
    # the grid stops 0.01 before the first departure and 0.1 before the
    # horizon, with a staffing epoch between them: neither it nor the
    # departure is run, so the full pool with no queue has no slot for V
    # at the last observation
    monkeypatch.setattr("tvqueue.sim.gen_arrivals", lambda *args: np.empty(0))
    monkeypatch.setattr("oracles.chunked_arrivals", lambda *args: np.empty(0))
    for seed in range(8):
        t1 = _first_departure(seed, 1)
        if t1 < 0.2:
            continue
        epochs = (np.array([t1 + 0.05]), np.array([2]))
        monkeypatch.setattr("tvqueue.sim.staffing_epochs", lambda *args: epochs)
        spec = ModelSpec(ConstantFn(1.0), ConstantFn(1.0), 1.0,
                         ExponentialPatience(1.0), t1 + 0.1, x0=1.0)
        config = SimConfig(spec, n=1, reps=1, obs_step=t1 - 0.01)
        path = run_replication(config, seed)
        _assert_same_path(path, heap_replication(config, seed), seed)
        assert len(path.t) == 2 and path.D[-1] == 0 and np.isnan(path.V[-1])


@st.composite
def small_models(draw):
    amp = st.floats(0.0, 0.9)       # relative to the mean, so rates stay positive
    freq = st.floats(0.2, 3.0)
    mean = draw(st.floats(0.2, 2.0))
    lam = SinusoidFn(mean, mean * draw(amp), draw(freq))
    base = draw(st.floats(0.3, 1.5))
    s = SinusoidFn(base, base * draw(amp), draw(freq), draw(st.floats(-3.0, 3.0)))
    kind = draw(st.sampled_from(["exponential", "h2", "tabulated"]))
    if kind == "exponential":
        patience = ExponentialPatience(draw(st.floats(0.1, 5.0)))
    elif kind == "h2":
        patience = h2_from_scv(draw(st.floats(0.2, 3.0)), draw(st.floats(1.0, 6.0)))
    else:
        patience = _tabulated()
    spec = ModelSpec(lam, s, draw(st.floats(0.3, 3.0)), patience,
                     draw(st.floats(0.5, 4.0)), x0=draw(st.floats(0.0, 1.5)))
    config = SimConfig(spec, n=draw(st.integers(1, 60)), reps=1,
                       obs_step=draw(st.sampled_from([0.05, 0.3, 0.7])))
    return config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(small_models())
def test_random_models_conserve_and_match_oracle(model):
    config, seed = model
    path = run_replication(config, seed)
    assert np.all(path.conservation_residual() == 0)
    assert np.all(path.Q >= 0) and np.all(path.B <= path.s)
    _assert_same_path(path, heap_replication(config, seed))


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


def test_replication_leaves_no_reference_cycles():
    # a batch's peak memory holds only while each replication's buffers
    # are freed when it returns, not when the garbage collector next runs
    config = SimConfig(_ORACLE_SPECS["sine_h2"], n=50, reps=1)
    run_replication(config, 0)
    gc.collect()
    gc.disable()
    try:
        for seed in range(3):
            run_replication(config, seed)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def _same_moments(a, b):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in ("count", "mean", "M2"))


def test_stacked_moments_equal_one_per_name():
    # a batch keeps one (6, G) Moments, a path's six series stacked as
    # rows; the updates are elementwise, so each row equals the Moments
    # of its series alone, NaNs and integer series included, bit for bit
    rng = np.random.default_rng(4)
    data = rng.normal(size=(40, 6, 9))
    data[:, :3] = rng.integers(0, 50, size=(40, 3, 9))
    data[rng.random(data.shape) < 0.2] = np.nan
    stacked, rows = Moments((6, 9)), [Moments(9) for _ in range(6)]
    for path in data:
        stacked.add(path)
        for i, m in enumerate(rows):
            m.add(path[i])
    for name, m in zip(_TRACKED, rows):
        assert _same_moments(_by_name(stacked)[name], m), name
    # and merging stacked halves equals merging each name's halves
    halves = [Moments((6, 9)), Moments((6, 9))]
    parts = [[Moments(9) for _ in range(6)] for _ in range(2)]
    for k, path in enumerate(data):
        halves[k >= 15].add(path)
        for i in range(6):
            parts[k >= 15][i].add(path[i])
    halves[0].merge(halves[1])
    for i, name in enumerate(_TRACKED):
        parts[0][i].merge(parts[1][i])
        assert _same_moments(_by_name(halves[0])[name], parts[0][i]), name


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


def test_pool_sized_by_chunks(monkeypatch):
    # 2 replications need 2 workers, not 64, and 64 chunks get no more
    # workers than the CPUs; a fake pool records its size and maps in
    # this process, so no worker process is ever started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    spec = _mmn_spec(1.5, 0.5, horizon=0.5)
    for cpus, reps, size in ((8, 2, 2), (2, 64, 2), (None, 64, 1)):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        est = estimate(SimConfig(spec, n=5, reps=reps, parallel=64))
        assert sizes[-1] == size, cpus
        assert np.all(est.moments["X"].count == reps)
    assert len(sizes) == 3


def test_scaled_views():
    est = estimate(SimConfig(_mmn_spec(1.5, 0.5, horizon=2.0), n=10, reps=8))
    assert np.allclose(est.scaled_mean("X"), est.mean("X") / 10.0)
    assert np.allclose(est.scaled_var("X"), est.var("X") / 10.0, equal_nan=True)
    assert np.allclose(est.scaled_var("W"), est.var("W") * 10.0, equal_nan=True)


def test_config_validation():
    with pytest.raises(ValueError, match="reps >= 1"):
        SimConfig(_mmn_spec(1.0, 1.0), n=10, reps=0)
    for step in (0.0, -0.05, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="obs_step"):
            SimConfig(_mmn_spec(1.0, 1.0), n=10, reps=2, obs_step=step)
    for parallel in (0, -3):
        with pytest.raises(ValueError, match="parallel >= 1"):
            SimConfig(_mmn_spec(1.0, 1.0), n=10, reps=2, parallel=parallel)
    with pytest.raises(ValueError, match="base_seed >= 0"):
        SimConfig(_mmn_spec(1.0, 1.0), n=10, reps=2, base_seed=-1)
    for key, value in (("c_lambda", 2.0), ("c_lambda", 0.0), ("var_x0", 0.5)):
        spec = ModelSpec(**{**vars(_mmn_spec(1.0, 1.0)), key: value})
        with pytest.raises(ValueError, match=f"{key} must be"):
            SimConfig(spec, n=10, reps=2)
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
