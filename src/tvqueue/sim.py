"""Exact discrete-event simulation of the many-server system.

Arrivals follow a nonhomogeneous Poisson process of rate n lambda(t)
generated by thinning, patience is drawn i.i.d. from the patience
distribution, and entry to service is FCFS.  Service is exponential(mu),
so the B busy servers finish at total rate mu B whomever they serve:
departures are one exponential clock of that rate, drawn afresh after
each departure and whenever B changes (the next-reaction scheme of
Gibson & Bruck 2000, with one clock for all departures).  A staffing
decrease below B forces busy servers out; which ones does not matter in
law, for the same reason.  Every replication keeps integer counters, so
flow conservation holds exactly, and the whole path is a deterministic
function of the seed.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import floor, inf

import numpy as np

from .model import ModelSpec, staffing_level, validate, write_columns

__all__ = [
    "SimConfig",
    "SimPath",
    "SimEstimate",
    "Moments",
    "gen_arrivals",
    "staffing_epochs",
    "run_replication",
    "estimate",
    "write_path_csv",
    "write_estimate_csv",
]


@dataclass
class SimConfig:
    spec: ModelSpec
    n: int
    reps: int
    base_seed: int = 0
    obs_step: float = 0.05
    parallel: int = 1

    def __post_init__(self):
        if self.n < 1 or self.reps < 1:
            raise ValueError("need n >= 1 and reps >= 1")

    def obs_grid(self):
        """Multiples of obs_step up to the model horizon; the tolerance
        keeps the last one when the step divides the horizon."""
        m = floor(self.spec.horizon / self.obs_step + 1e-9)
        return np.linspace(0.0, m * self.obs_step, m + 1)


def gen_arrivals(spec: ModelSpec, n: int, rng: np.random.Generator,
                 horizon: float) -> np.ndarray:
    """Arrival epochs of a Poisson process with rate n lambda(t) on
    [0, horizon], by thinning against a per-chunk constant envelope."""
    edges = np.linspace(0.0, horizon, 65)
    bps = np.asarray(spec.arrival_rate.breakpoints(), dtype=float)
    bps = bps[(bps > 0.0) & (bps < horizon)]
    if len(bps):
        edges = np.union1d(edges, bps)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        ts = np.linspace(a, b, 257)
        lam = np.asarray(spec.arrival_rate(ts), dtype=float)
        slope = np.max(np.abs(np.asarray(spec.arrival_rate.deriv(ts), dtype=float)))
        env = np.max(lam) + 0.5 * (b - a) / 256.0 * slope + 1e-12
        count = rng.poisson(n * env * (b - a))
        if count == 0:
            continue
        cand = np.sort(rng.uniform(a, b, count))
        accept = rng.uniform(0.0, 1.0, count) * env < np.asarray(
            spec.arrival_rate(cand), dtype=float
        )
        out.append(cand[accept])
    if not out:
        return np.empty(0)
    return np.concatenate(out)


def staffing_epochs(spec: ModelSpec, n: int, horizon: float):
    """(times, levels) at which ceil(n s(t)) changes, one entry per level
    crossed, in time order.

    An interval of a 20001-point probe whose level moves by d holds d
    crossings; all crossings are located together by 60 halvings on the
    predicate "the level has reached its target".
    """
    probe = np.linspace(0.0, horizon, 20001)
    lv = staffing_level(n, np.asarray(spec.staffing(probe), dtype=float)).astype(int)
    d = np.diff(lv)
    counts = np.abs(d)
    idx = np.repeat(np.arange(len(d)), counts)
    step = np.sign(d)[idx]
    rank = np.arange(1, len(idx) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    target = lv[idx] + step * rank
    lo, hi = probe[idx], probe[idx + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        here = staffing_level(n, np.asarray(spec.staffing(mid), dtype=float))
        reached = step * (here - target) >= 0
        lo = np.where(reached, lo, mid)
        hi = np.where(reached, mid, hi)
    order = np.argsort(hi, kind="stable")
    return hi[order], target[order]


@dataclass
class SimPath:
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


def run_replication(config: SimConfig, seed: int) -> SimPath:
    """One exact sample path, observed on the configured grid."""
    spec = config.spec
    n = config.n
    mu = spec.mu
    T = spec.horizon
    ss = np.random.SeedSequence(seed)
    rng_arr, rng_srv, rng_pat = [np.random.default_rng(s) for s in ss.spawn(3)]

    arrivals = gen_arrivals(spec, n, rng_arr, T)
    patience = spec.patience.sample(rng_pat, len(arrivals)) if len(arrivals) else np.empty(0)
    # per arrival: epoch, abandonment deadline and queue exit epoch (entry
    # or abandonment; None while waiting); inf marks "no more arrivals"
    arr = arrivals.tolist() + [inf]
    deadline = (arrivals + patience).tolist()
    left = [None] * len(arrivals)
    st_times, st_levels = staffing_epochs(spec, n, T)
    st_times = st_times.tolist() + [inf]
    st_levels = st_levels.tolist()

    s_now = int(staffing_level(n, float(spec.staffing(0.0))))
    x0 = B = min(int(round(n * spec.x0)), s_now)
    Qlen = head = ai = si = 0   # head: no one before it is still waiting
    cN = cD = cA = cE = cF = 0
    aban = []    # lazy heap of (deadline, arrival index)
    # in time order: service entries, and epochs where a server idled
    # with an empty queue
    slots = []
    rows, waits = [], []

    def clock(now, busy):
        return now + rng_srv.standard_exponential() / (mu * busy) if busy else inf

    def admit_head(now):
        nonlocal head, Qlen, B, cE
        while left[head] is not None:
            head += 1
        left[head] = now
        head += 1
        Qlen -= 1
        B += 1
        cE += 1
        slots.append(now)

    t_dep = clock(0.0, B)
    grid = config.obs_grid()
    obs = iter(grid.tolist())
    t_obs = next(obs)
    while True:
        now = min(st_times[si], arr[ai], t_dep, aban[0][0] if aban else inf)
        if now > t_obs:
            # events at an observation epoch are processed before observing it
            if Qlen:
                while left[head] is not None:
                    head += 1
            waits.append(t_obs - arr[head] if Qlen else 0.0)
            rows.append((Qlen, B, s_now, cN, cD, cA, cE, cF, head, ai))
            t_obs = next(obs, None)
            if t_obs is None:
                break
        # ties resolve staffing first, then arrival, departure, abandonment
        elif now == st_times[si]:
            s_now = st_levels[si]
            si += 1
            b0 = B
            while B < s_now and Qlen:
                admit_head(now)
            if B < s_now:
                slots.append(now)
            elif B > s_now:
                cF += B - s_now     # forced out of service
                B = s_now
            if B != b0:
                t_dep = clock(now, B)
        elif now == arr[ai]:
            i = ai
            ai += 1
            cN += 1
            if B < s_now:   # then nobody waits
                left[i] = now
                slots.append(now)
                B += 1
                cE += 1
                t_dep = clock(now, B)
            else:
                Qlen += 1
                heapq.heappush(aban, (deadline[i], i))
        elif now == t_dep:
            cD += 1
            B -= 1
            if Qlen:
                admit_head(now)
            else:
                slots.append(now)
            t_dep = clock(now, B)
        else:
            i = heapq.heappop(aban)[1]
            if left[i] is None:     # not yet in service
                left[i] = now
                cA += 1
                Qlen -= 1

    Q, B, S, N, D, A, E, F, H, I = np.array(rows, dtype=int).T
    # potential waiting time of a virtual arrival that never abandons: the
    # first service slot strictly after every customer ahead of it has
    # left the queue; NaN if one of them still waits at the horizon or no
    # slot follows
    exit_t = np.array(left, dtype=float)
    tau = np.array([exit_t[h:e].max(initial=t) for t, h, e in zip(grid, H, I)])
    slot = np.array(slots + [np.nan])
    V = slot[np.searchsorted(slot[:-1], tau, side="right")] - grid
    V[(Q == 0) & (B < S)] = 0.0
    return SimPath(t=grid, X=Q + B, Q=Q, B=B, W=np.array(waits), V=V, s=S,
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


_TRACKED = ("X", "Q", "B", "W", "V", "A")


@dataclass
class SimEstimate:
    config: SimConfig
    t: np.ndarray
    moments: dict = field(default_factory=dict)

    def mean(self, name):
        return self.moments[name].mean.copy()

    def var(self, name):
        return self.moments[name].variance()

    def se(self, name):
        return self.moments[name].se()

    # scaled views matching the limit quantities
    def scaled_mean(self, name):
        return self.mean(name) / self.config.n

    def scaled_var(self, name):
        n = self.config.n
        if name in ("W", "V"):
            return n * self.var(name)
        return self.var(name) / n


def _replicate_batch(args):
    config, seeds = args
    mm = {name: Moments(len(config.obs_grid())) for name in _TRACKED}
    for seed in seeds:
        path = run_replication(config, seed)
        for name in _TRACKED:
            mm[name].add(getattr(path, name))
    return mm


def estimate(config: SimConfig) -> SimEstimate:
    """Replication statistics with seeds base..base+R-1."""
    report = validate(config.spec)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    seeds = [config.base_seed + i for i in range(config.reps)]
    workers = max(1, config.parallel)
    if workers == 1:
        merged = _replicate_batch((config, seeds))
    else:
        chunks = [seeds[i::workers] for i in range(workers)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_replicate_batch, [(config, c) for c in chunks]))
        # deterministic merge order regardless of completion order
        merged = results[0]
        for mm in results[1:]:
            for name in _TRACKED:
                merged[name].merge(mm[name])
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
