"""Exact discrete-event simulation of the many-server system.

Arrivals follow a nonhomogeneous Poisson process of rate n lambda(t)
generated by thinning.  Service is exponential(mu), patience is drawn
i.i.d. from the patience distribution, entry to service is FCFS, and a
staffing decrease below the busy-server count forces the most recent
entrants out.  Every replication keeps integer counters, so flow
conservation holds exactly, and the whole path is a deterministic
function of the seed.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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

# event kinds, ordered so ties resolve: staffing first, then arrivals,
# then departures and abandonments in insertion order
_STAFF, _ARRIVAL, _DEPART, _ABANDON = 0, 1, 2, 3

# customer states
_QUEUED, _SERVING, _ABANDONED, _DEPARTED, _REMOVED = 0, 1, 2, 3, 4


@dataclass
class SimConfig:
    spec: ModelSpec
    n: int
    reps: int
    base_seed: int = 0
    obs_step: float = 0.05
    horizon: float = None
    parallel: int = 1

    def __post_init__(self):
        if self.n < 1 or self.reps < 1:
            raise ValueError("need n >= 1 and reps >= 1")
        if self.horizon is None:
            self.horizon = self.spec.horizon
        if self.horizon > self.spec.horizon + 1e-12:
            raise ValueError("observation horizon exceeds the model horizon")

    def obs_grid(self):
        m = int(round(self.horizon / self.obs_step))
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
    """(times, levels) at which ceil(n s(t)) changes, by bisection."""
    probe = np.linspace(0.0, horizon, 20001)
    lv = staffing_level(n, np.asarray(spec.staffing(probe), dtype=float)).astype(int)
    times, levels = [], []
    for i in np.flatnonzero(np.diff(lv)):
        lo, hi = probe[i], probe[i + 1]
        target = lv[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            here = int(staffing_level(n, float(spec.staffing(mid))))
            if here == lv[i]:
                lo = mid
            else:
                hi = mid
        times.append(hi)
        levels.append(target)
    return np.asarray(times), np.asarray(levels, dtype=int)


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
    T = config.horizon
    ss = np.random.SeedSequence(seed)
    rng_arr, rng_srv, rng_pat = [np.random.default_rng(s) for s in ss.spawn(3)]

    arrivals = gen_arrivals(spec, n, rng_arr, T)
    patience = spec.patience.sample(rng_pat, len(arrivals)) if len(arrivals) else np.empty(0)
    srv_buf = rng_srv.exponential(1.0 / mu, max(len(arrivals) + 64, 128))
    srv_i = 0

    def srv_draw():
        nonlocal srv_buf, srv_i
        if srv_i >= len(srv_buf):
            srv_buf = rng_srv.exponential(1.0 / mu, len(srv_buf))
            srv_i = 0
        srv_i += 1
        return srv_buf[srv_i - 1]

    heap = [(t, _ARRIVAL, i, i) for i, t in enumerate(arrivals)]
    st_times, st_levels = staffing_epochs(spec, n, T)
    for j, (t, lvl) in enumerate(zip(st_times, st_levels)):
        heap.append((t, _STAFF, j, lvl))
    heapq.heapify(heap)
    seq = len(heap)

    s_now = int(staffing_level(n, float(spec.staffing(0.0))))
    x0 = min(int(round(n * spec.x0)), s_now)
    state = {}
    arr_time = {}
    next_id = 0
    for _ in range(x0):
        state[next_id] = _SERVING
        heapq.heappush(heap, (srv_draw(), _DEPART, seq, next_id))
        seq += 1
        next_id += 1
    B = x0
    Qlen = 0
    queue = []          # FCFS: (arrival index ids in order); lazy head cleanup
    qhead = 0
    service_order = []  # entry order, for forced removal
    cN = cD = cA = cE = cF = 0
    entry_times = []
    free_times = []     # epochs where a server idled with an empty queue
    leave_time = {}     # queue exit epoch per customer (entry or abandonment)

    grid = config.obs_grid()
    m = len(grid)
    oX = np.zeros(m, dtype=int)
    oQ = np.zeros(m, dtype=int)
    oB = np.zeros(m, dtype=int)
    oW = np.zeros(m)
    oS = np.zeros(m, dtype=int)
    oN = np.zeros(m, dtype=int)
    oD = np.zeros(m, dtype=int)
    oA = np.zeros(m, dtype=int)
    oE = np.zeros(m, dtype=int)
    oF = np.zeros(m, dtype=int)
    obs_i = 0

    def admit(cid, now):
        nonlocal B, cE
        state[cid] = _SERVING
        B += 1
        cE += 1
        entry_times.append(now)
        leave_time[cid] = now
        service_order.append(cid)
        nonlocal seq
        heapq.heappush(heap, (now + srv_draw(), _DEPART, seq, cid))
        seq += 1

    def pop_queue_head():
        """Next still-waiting customer, or None."""
        nonlocal qhead, Qlen
        while qhead < len(queue):
            cid = queue[qhead]
            if state[cid] == _QUEUED:
                qhead += 1
                Qlen -= 1
                return cid
            qhead += 1
        return None

    ahead = [None] * m     # waiting customers at each observation epoch

    def observe(t_obs, k):
        nonlocal qhead
        while qhead < len(queue) and state[queue[qhead]] != _QUEUED:
            qhead += 1
        oQ[k] = Qlen
        oB[k] = B
        oX[k] = B + Qlen
        oW[k] = t_obs - arr_time[queue[qhead]] if Qlen > 0 else 0.0
        oS[k] = s_now
        oN[k], oD[k], oA[k], oE[k], oF[k] = cN, cD, cA, cE, cF
        ahead[k] = [c for c in queue[qhead:] if state[c] == _QUEUED]

    while obs_i < m:
        if not heap or heap[0][0] > grid[obs_i]:
            observe(grid[obs_i], obs_i)
            obs_i += 1
            continue
        now, kind, _, ident = heapq.heappop(heap)
        if kind == _ARRIVAL:
            cid = next_id
            next_id += 1
            arr_time[cid] = now
            cN += 1
            if B < s_now and Qlen == 0:
                admit(cid, now)
            else:
                state[cid] = _QUEUED
                queue.append(cid)
                Qlen += 1
                heapq.heappush(heap, (now + patience[ident], _ABANDON, seq, cid))
                seq += 1
        elif kind == _DEPART:
            if state.get(ident) != _SERVING:
                continue
            state[ident] = _DEPARTED
            cD += 1
            B -= 1
            if B < s_now:
                cid = pop_queue_head()
                if cid is not None:
                    admit(cid, now)
                else:
                    free_times.append(now)
        elif kind == _ABANDON:
            if state.get(ident) != _QUEUED:
                continue
            state[ident] = _ABANDONED
            leave_time[ident] = now
            cA += 1
            Qlen -= 1
        else:  # staffing change
            s_now = ident
            while B < s_now:
                cid = pop_queue_head()
                if cid is None:
                    if B < s_now:
                        free_times.append(now)
                    break
                admit(cid, now)
            while B > s_now:
                # force out the most recent entrant still in service
                while service_order and state[service_order[-1]] != _SERVING:
                    service_order.pop()
                if service_order:
                    state[service_order.pop()] = _REMOVED
                else:
                    # only initial-content customers remain in service
                    victim = max(c for c in range(x0) if state[c] == _SERVING)
                    state[victim] = _REMOVED
                B -= 1
                cF += 1

    # potential waiting time of a virtual arrival that never abandons: the
    # first service slot strictly after every customer ahead of it has
    # left the queue (by entry or abandonment); slots are service-entry
    # epochs plus epochs where a server idled with nobody to take it
    slots = np.sort(np.concatenate([np.asarray(entry_times), np.asarray(free_times)]))
    oV = np.full(m, np.nan)
    for k in range(m):
        if oQ[k] == 0 and oB[k] < oS[k]:
            oV[k] = 0.0
            continue
        lts = [leave_time.get(c) for c in ahead[k]]
        if any(lt is None for lt in lts):
            continue    # still unresolved at the horizon
        tau = max(lts, default=grid[k])
        j = np.searchsorted(slots, tau, side="right")
        if j < len(slots):
            oV[k] = slots[j] - grid[k]

    return SimPath(t=grid, X=oX, Q=oQ, B=oB, W=oW, V=oV, s=oS,
                   N=oN, D=oD, A=oA, E=oE, forced=oF, x0=x0)


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
