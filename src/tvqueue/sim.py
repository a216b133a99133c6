"""Exact discrete-event simulation of the many-server system.

Arrivals follow a nonhomogeneous Poisson process of rate n lambda(t)
generated by thinning, patience is drawn i.i.d. from the patience
distribution, and entry to service is FCFS.  Service is exponential(mu),
so the B busy servers finish at total rate mu B whomever they serve:
departures are one exponential clock of that rate, drawn afresh after
each departure and whenever B changes (the next-reaction scheme of
Gibson & Bruck 2000, with one clock for all departures).  A staffing
decrease below B forces busy servers out; which ones does not matter in
law, for the same reason.

Joining the queue and abandoning it change neither B nor the clock, so
neither is an event.  The queue is the arrived customers not yet served,
in arrival order; a server looking for one passes over those whose
deadline has passed.  The integer counters, W and V at each observation
are read from the epochs of the events (staffing changes, arrivals into
a free server, departures) after the loop, so flow conservation holds
exactly and the path is a deterministic function of the seed.

The loop runs in three regimes.  With a free server (B < s) nobody
waits: an arrival enters service at once and a departure frees a
server.  With the pool full (B = s) only departures and staffing epochs
are events, and each departure takes the queue's head until one finds
the queue empty.  Staffing epochs are the third regime.

A batch of replications builds what depends only on the config once:
the thinning envelope, the staffing epochs with the loop's lists of
their times and levels and of the departure rates mu B, the observation
grid and the staffing level there.  Each replication then does only its
own random work, in few calls: thinning draws one Poisson count and one
block of uniforms per chunk of the envelope and sorts all candidates
once, and the departure clock reads one draw at a time from a C-level
iterator over blocks of 1024 exponentials.  It keeps one list per
customer, the arrival epoch until the queue's head passes it and then
the entry epoch or nan, and one array of deadlines, which the read-out
views in place.  A batch keeps one running mean and variance of the six
tracked series stacked as rows, one update per path.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain
from math import floor, inf, nan, nextafter
from types import SimpleNamespace

import numpy as np

from .functions import halve_brackets
from .model import ModelSpec, staffing_level, validate, write_columns

__all__ = [
    "SimConfig",
    "SimPath",
    "SimEstimate",
    "Moments",
    "arrival_envelope",
    "gen_arrivals",
    "staffing_epochs",
    "run_replication",
    "estimate",
    "write_path_csv",
    "write_estimate_csv",
]


class SimConfig:
    def __init__(self, spec: ModelSpec, n: int, reps: int, base_seed: int = 0,
                 obs_step: float = 0.05, parallel: int = 1):
        if n < 1 or reps < 1:
            raise ValueError("need n >= 1 and reps >= 1")
        if not 0 < obs_step < inf:      # also rejects nan
            raise ValueError(f"obs_step must be positive and finite, got {obs_step}")
        if parallel < 1:
            raise ValueError(f"need parallel >= 1, got {parallel}")
        if base_seed < 0:
            raise ValueError(f"need base_seed >= 0, got {base_seed}")
        # the Gaussian layer's keys the simulator has no model for
        if spec.c_lambda != 1.0:
            raise ValueError("the simulator generates Poisson arrivals: c_lambda "
                             f"must be 1, got {spec.c_lambda:g}")
        if spec.var_x0 != 0.0:
            raise ValueError("the simulator starts from the fixed content x0: "
                             f"var_x0 must be 0, got {spec.var_x0:g}")
        self.spec = spec
        self.n = n
        self.reps = reps
        self.base_seed = base_seed
        self.obs_step = obs_step
        self.parallel = parallel

    def obs_grid(self):
        """Multiples of obs_step up to the model horizon; the tolerance
        keeps the last one when the step divides the horizon."""
        steps = self.spec.horizon / self.obs_step
        if not steps < inf:
            raise ValueError(f"horizon {self.spec.horizon:g} is too long for "
                             f"obs_step {self.obs_step:g}")
        m = floor(steps + 1e-9)
        return np.linspace(0.0, m * self.obs_step, m + 1)


class EnvelopeError(RuntimeError):
    """The arrival rate exceeds the thinning envelope's bound."""


def arrival_envelope(spec: ModelSpec, horizon: float):
    """(edges, env): chunk edges of [0, horizon] and a constant bound on
    lambda over each chunk, for thinning (Lewis & Shedler 1979).

    The bound is the largest of 257 samples of lambda plus half a sample
    spacing times the largest sampled |lambda'|.
    """
    edges = np.linspace(0.0, horizon, 65)
    bps = np.asarray(spec.arrival_rate.breakpoints(), dtype=float)
    bps = bps[(bps > 0.0) & (bps < horizon)]
    if len(bps):
        edges = np.union1d(edges, bps)
    # the 257 samples of each chunk as a row, evaluated as one flat array
    ts = np.linspace(edges[:-1], edges[1:], 257, axis=-1)
    lam, slope = (np.broadcast_to(np.asarray(f(ts.ravel()), dtype=float), ts.size)
                  .reshape(ts.shape) for f in (spec.arrival_rate, spec.arrival_rate.deriv))
    env = lam.max(axis=1) + 0.5 * np.diff(edges) / 256.0 * np.abs(slope).max(axis=1) + 1e-12
    return edges, env


def gen_arrivals(spec: ModelSpec, n: int, rng: np.random.Generator,
                 envelope) -> np.ndarray:
    """Arrival epochs of a Poisson process with rate n lambda(t) on the
    span of the envelope's edges, by thinning against its per-chunk
    constant bound e (see `arrival_envelope`).

    Draw order: per chunk [a, b), in time order, one Poisson count c of
    mean n e (b - a), then, if c > 0, one block of 2c uniforms u: the
    first c give the candidates a + (b - a) u, the next c their marks
    u e.  The candidates of all chunks are then sorted at once; the
    chunks are disjoint and in order, so this equals sorting each chunk,
    and the k-th smallest candidate keeps the k-th mark.  A candidate is
    kept when its mark is below lambda there.  Raises EnvelopeError when
    lambda exceeds the bound at a candidate, which would bias the
    thinning.
    """
    edges, env = envelope
    widths = np.diff(edges)
    counts, pos, marks = [], [], []
    for mean in (n * env * widths).tolist():
        c = rng.poisson(mean)
        counts.append(c)
        if c:
            u = rng.random(2 * c)
            pos.append(u[:c])
            marks.append(u[c:])
    if not pos:
        return np.empty(0)
    cand = np.repeat(widths, counts)
    cand *= np.concatenate(pos)
    cand += np.repeat(edges[:-1], counts)
    cand.sort()
    bound = np.repeat(env, counts)
    lam = np.asarray(spec.arrival_rate(cand), dtype=float)
    over = lam > bound
    if over.any():
        i = over.argmax()
        raise EnvelopeError(f"arrival rate {lam[i]} at t = {cand[i]} exceeds "
                            f"its thinning bound {bound[i]}")
    mark = np.concatenate(marks)
    mark *= bound
    return cand[mark < lam]


def staffing_epochs(spec: ModelSpec, n: int, horizon: float):
    """(times, levels) at which ceil(n s(t)) changes, one entry per level
    crossed, in time order.

    An interval of a 20001-point probe whose level moves by d holds d
    crossings; all crossings are located together by halve_brackets on
    the predicate "the level has reached its target".
    """
    probe = np.linspace(0.0, horizon, 20001)
    lv = staffing_level(n, np.asarray(spec.staffing(probe), dtype=float)).astype(int)
    d = np.diff(lv)
    counts = np.abs(d)
    idx = np.repeat(np.arange(len(d)), counts)
    step = np.sign(d)[idx]
    rank = np.arange(1, len(idx) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    target = lv[idx] + step * rank

    def reached(t, step, target):
        here = staffing_level(n, np.asarray(spec.staffing(t), dtype=float))
        return step * (here - target) >= 0

    hi = halve_brackets(reached, probe[idx], probe[idx + 1], step, target)[1]
    order = np.argsort(hi, kind="stable")
    return hi[order], target[order]


class SimPath(SimpleNamespace):
    t: np.ndarray
    X: np.ndarray
    Q: np.ndarray
    B: np.ndarray
    W: np.ndarray
    V: np.ndarray
    s: np.ndarray
    N: np.ndarray
    D: np.ndarray
    A: np.ndarray
    E: np.ndarray
    forced: np.ndarray
    x0: int

    def conservation_residual(self):
        """X - (X(0) + N - D - A - forced); all-zero for a correct run."""
        return self.X - (self.x0 + self.N - self.D - self.A - self.forced)


def _fixed_setup(config: SimConfig):
    """What every replication of a config shares, as it depends on (spec,
    n, horizon, obs_step) alone: the arrival envelope, the staffing epochs
    (times, levels), the observation grid with the staffing at time 0, the
    number of staffing epochs up to each grid point and the staffing level
    there, and the loop's lists: the epoch times clipped to just past the
    last observation, then one such time, their levels and the rates mu B."""
    spec, n, T = config.spec, config.n, config.spec.horizon
    st_t, st_lv = staffing_epochs(spec, n, T)
    grid = config.obs_grid()
    s0 = int(staffing_level(n, float(spec.staffing(0.0))))
    k = np.searchsorted(st_t, grid, side="right")
    S = np.concatenate(([s0], st_lv)).astype(int)[k]
    past = nextafter(float(grid[-1]), inf)
    levels = st_lv.tolist()
    rate = [spec.mu * b for b in range(max([s0] + levels) + 1)]
    return (arrival_envelope(spec, T), (st_t, st_lv), (grid, s0, k, S),
            (np.minimum(st_t, past).tolist() + [past], levels, rate))


def _exponentials(rng: np.random.Generator):
    """Iterator over standard exponentials of rng, drawn in blocks of
    1024; numpy's block and single draws give the same sequence.  Its
    `__next__` is C-level: no generator frame resumes per value."""
    return chain.from_iterable(iter(lambda: rng.standard_exponential(1024).tolist(), None))


def _first_after(x, t):
    """The first element of the sorted x above each t; inf if none."""
    return np.append(x, inf)[np.searchsorted(x, t, side="right")]


def run_replication(config: SimConfig, seed: int, fixed=None) -> SimPath:
    """One exact sample path, observed on the configured grid.

    `fixed` is `_fixed_setup(config)`, built here when not given; a batch
    builds it once for all its replications.  The loop runs the events up
    to the last observation; the counters, W and V there are read from
    the recorded epochs after it (see the module docstring).
    """
    spec, n = config.spec, config.n
    envelope, _, (grid, s0, k_st, S), (st_times, st_levels, rate) = (
        _fixed_setup(config) if fixed is None else fixed)
    t_end = float(grid[-1])
    ss = np.random.SeedSequence(seed)
    rng_arr, rng_srv, rng_pat = [np.random.default_rng(s) for s in ss.spawn(3)]

    arrivals = gen_arrivals(spec, n, rng_arr, envelope)
    # per arrival, with a final inf that ends the queue: the deadline, and
    # the arrival epoch until the head passes it, then the entry epoch or nan
    deadline, arr = array("d"), arrivals.tolist()
    if arr:
        deadline.frombytes((arrivals + spec.patience.sample(rng_pat, len(arr))).tobytes())
    deadline.append(inf)
    arr.append(inf)
    # departures, staffing epochs that left a server idle, and the number
    # forced out of service at each staffing epoch
    deps, idle, cut = [], array("d"), array("q", [0]) * len(st_levels)

    s_now = s0
    x0 = B = min(int(round(n * spec.x0)), s_now)
    head = si = 0   # head: no one before it still waits or is yet to arrive
    draw = _exponentials(rng_srv).__next__
    dep = deps.append
    t_dep = draw() / rate[B] if B else inf
    t_st = st_times[0]      # t < t_st: before the next staffing epoch and the end
    # ties resolve staffing first, then arrival, departure; a customer
    # whose deadline falls on an epoch can still enter service there
    while True:
        if B < s_now:
            # free servers: nobody waits, so an arrival enters service at
            # once and a departure frees a server
            t_arr = arr[head]
            while True:
                if t_arr <= t_dep:
                    if t_arr >= t_st:
                        break
                    head += 1
                    B += 1
                    t_dep = t_arr + draw() / rate[B]
                    if B == s_now:
                        break
                    t_arr = arr[head]
                elif t_dep < t_st:
                    dep(t_dep)
                    B -= 1
                    t_dep = t_dep + draw() / rate[B] if B else inf
                else:
                    break
            if B == s_now:
                continue
        else:
            # full pool: departures at the constant rate mu B, each taking
            # the queue's head, until one finds the queue empty
            r = rate[B]
            while t_dep < t_st:
                d = t_dep
                dep(d)
                while deadline[head] < d:
                    arr[head] = nan
                    head += 1
                if arr[head] > d:   # the queue is empty: a server frees
                    B -= 1
                    t_dep = d + draw() / rate[B] if B else inf
                    break
                arr[head] = d
                head += 1
                t_dep = d + draw() / r
            if B < s_now:
                continue
        # the next event is a staffing epoch, or past the end
        if t_st > t_end:
            break
        now = t_st
        s_now = st_levels[si]
        si += 1
        t_st = st_times[si]
        if B > s_now:
            cut[si - 1] = B - s_now
            B = s_now
            t_dep = now + draw() / rate[B] if B else inf
        elif B < s_now:
            b0 = B
            while B < s_now:
                while deadline[head] < now:
                    arr[head] = nan
                    head += 1
                if arr[head] >= now:    # an arrival at now comes after
                    idle.append(now)
                    break
                arr[head] = now
                head += 1
                B += 1
            if B != b0:
                t_dep = now + draw() / rate[B]

    # an event at an observation epoch comes before the observation; from
    # head on, arr holds the arrival epochs of customers yet to enter
    entry = np.fromiter(arr, float, len(arrivals))
    entry[head:] = nan
    dep_t = np.fromiter(deps, float, len(deps))
    del arr, deps, dep      # the loop's lists; the read-out needs their memory
    deadlines = np.frombuffer(deadline)[:-1]
    waiting = np.isnan(entry)
    entered = entry[~waiting]       # nondecreasing: service is FCFS
    N = np.searchsorted(arrivals, grid, side="right")
    E = np.searchsorted(entered, grid, side="right")
    A = np.searchsorted(np.sort(deadlines[waiting]), grid, side="right")
    D = np.searchsorted(dep_t, grid, side="right")
    F = np.concatenate(([0], np.cumsum(cut)))[k_st]
    Q = N - E - A
    B = x0 + E - D - F
    # queue exit: entry (never after the deadline), else abandonment by
    # the last observation, else inf; the exits' running maximum to i is
    # <= t iff 0..i have left by t
    exit_t = np.fmin(entry, deadlines)
    exit_t[exit_t > t_end] = inf
    gone = np.maximum.accumulate(exit_t)
    oldest = np.append(arrivals, inf)[np.searchsorted(gone, grid, side="right")]
    W = np.where(Q > 0, grid - oldest, 0.0)
    # potential waiting time of a virtual arrival that never abandons: the
    # first service slot (entry, departure or idle server; each list is
    # sorted) strictly after every customer before it has left the
    # queue; NaN if one of them still waits at the horizon or no slot
    # follows
    tau = np.maximum(grid, np.concatenate(([-inf], gone))[N])
    slot = np.minimum(_first_after(entered, tau), _first_after(dep_t, tau))
    slot = np.minimum(slot, _first_after(np.frombuffer(idle), tau))
    V = slot - grid
    V[slot == inf] = nan
    V[(Q == 0) & (B < S)] = 0.0
    return SimPath(t=grid.copy(), X=Q + B, Q=Q, B=B, W=W, V=V, s=S.copy(),
                   N=N, D=D, A=A, E=E, forced=F, x0=x0)


class Moments:
    """Streaming mean/variance per grid point, nan-aware and mergeable.

    Welford updates for single paths; Chan's parallel formula for merge,
    so aggregation order does not change the result beyond roundoff and
    sequential merging reproduces the one-pass scan exactly.
    """

    def __init__(self, size):
        self.count = np.zeros(size)
        self.mean = np.zeros(size)
        self.M2 = np.zeros(size)

    def add(self, x):
        x = np.asarray(x, dtype=float)
        ok = np.isfinite(x)
        c = self.count + ok
        delta = np.where(ok, x - self.mean, 0.0)
        self.mean = self.mean + delta / np.maximum(c, 1.0)
        self.M2 = self.M2 + delta * np.where(ok, x - self.mean, 0.0)
        self.count = c

    def merge(self, other):
        c = self.count + other.count
        safe = np.maximum(c, 1.0)
        delta = other.mean - self.mean
        self.mean = self.mean + delta * other.count / safe
        self.M2 = self.M2 + other.M2 + delta ** 2 * self.count * other.count / safe
        self.count = c

    def variance(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.count > 1, self.M2 / np.maximum(self.count - 1, 1), np.nan)

    def se(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.sqrt(self.variance() / np.maximum(self.count, 1))


_TRACKED = ("X", "Q", "B", "W", "V", "A")     # the rows of a batch's Moments


class SimEstimate(SimpleNamespace):
    """Replication statistics: `moments` holds a row per name of _TRACKED."""
    config: SimConfig
    t: np.ndarray
    moments: Moments

    def count(self, name):
        return self.moments.count[_TRACKED.index(name)].copy()

    def mean(self, name):
        return self.moments.mean[_TRACKED.index(name)].copy()

    def var(self, name):
        return self.moments.variance()[_TRACKED.index(name)]

    def se(self, name):
        return self.moments.se()[_TRACKED.index(name)]

    # scaled views matching the limit quantities
    def scaled_mean(self, name):
        return self.mean(name) / self.config.n

    def scaled_var(self, name):
        n = self.config.n
        if name in ("W", "V"):
            return n * self.var(name)
        return self.var(name) / n


def _replicate_batch(args):
    """Moments of shape (len(_TRACKED), grid) over the paths of the seeds:
    one Welford update per path, on its tracked series stacked as rows."""
    config, seeds = args
    fixed = _fixed_setup(config)
    mm = Moments((len(_TRACKED), len(fixed[2][0])))
    for seed in seeds:
        path = run_replication(config, seed, fixed)
        mm.add(np.stack([getattr(path, name) for name in _TRACKED]))
    return mm


def estimate(config: SimConfig) -> SimEstimate:
    """Replication statistics with seeds base..base+R-1."""
    report = validate(config.spec)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    seeds = [config.base_seed + i for i in range(config.reps)]
    workers = config.parallel
    if workers == 1:
        merged = _replicate_batch((config, seeds))
    else:
        # imported here: a serial run does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunks = [seeds[i::workers] for i in range(workers)]
        chunks = [c for c in chunks if c]
        # the pool starts all its workers at once: no more than the CPUs
        # run the chunks, whose number and order fix the merge
        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as ex:
            results = list(ex.map(_replicate_batch, [(config, c) for c in chunks]))
        # deterministic merge order regardless of completion order
        merged = results[0]
        for mm in results[1:]:
            merged.merge(mm)
    return SimEstimate(config=config, t=config.obs_grid(), moments=merged)


def write_path_csv(path: SimPath, out):
    write_columns(out, {
        "t": path.t, "X": path.X, "Q": path.Q, "B": path.B, "W": path.W,
        "V": path.V, "s": path.s, "N": path.N, "D": path.D, "A": path.A,
        "E": path.E, "forced": path.forced,
    })


def write_estimate_csv(est: SimEstimate, out):
    columns = {"t": est.t}
    for name in _TRACKED:
        columns[f"mean_{name}"] = est.mean(name)
        columns[f"se_{name}"] = est.se(name)
        columns[f"var_{name}"] = est.var(name)
    for name in _TRACKED:
        columns[f"scaled_mean_{name}"] = est.scaled_mean(name)
        columns[f"scaled_var_{name}"] = est.scaled_var(name)
    write_columns(out, columns)
