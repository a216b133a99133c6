"""Independent evaluation routes the tests check the program against.

Nothing in the program calls these.  `ul_content` solves the underloaded
fluid content by quadrature of the linear ODE, not by the fluid sweep.
The kernel route evaluates the content-deviation variance of an
overloaded interval as squared-kernel integrals, reading only the kernel
grids (t, w, G) and the spec, against the single cumulative quadrature
`propagate` uses.  `heap_replication` simulates a path with every
arrival, abandonment and observation as an event of its own, against the
simulator's loop that reads the counters from event epochs; its arrivals
come from `chunked_arrivals`, which thins chunk by chunk with two uniform
draws and a sort per chunk, against the program's one block per chunk
and one sort.
`dop853_switch_times` re-locates every switch with scipy's DOP853
solver and brentq, and `fluid_reference` re-solves w, X, Q and v at the
grid points with DOP853, quad and Newton's method on L(t) = t - w(t),
against the program's Dormand-Prince 5(4) sweep, its interpolant, its
bisection and its interpolated inverse of L.
`age_integrals_reference` evaluates the queue content, abandonment rate
and Fc^2 integral of an OL point by scipy's adaptive quadrature on the
scalar evaluators, with the kinks of the integrand as its break points,
against the program's Gauss-Legendre panels.
`shift_reference` carries the refined mean shift along an interval by
the linearised fluid ODE with DOP853, against the program's central
difference of two fluid solves.
"""

import heapq
from math import inf
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad, simpson, solve_ivp
from scipy.optimize import brentq

from tvqueue import sim
from tvqueue.gaussian import IntervalKernels
from tvqueue.model import staffing_level

_KERNEL_NODES = 801     # Simpson nodes for the kernel integrals


def ul_content(spec, t, x0, interval_start=0.0):
    """X(t) in a UL interval by quadrature of the linear-ODE solution.

    Gauss-Legendre on the convolution integral, with time measured from
    interval_start.
    """
    mu = spec.mu
    tau = t - interval_start
    if tau < 0:
        raise ValueError("t precedes the interval start")
    if tau == 0:
        return x0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    u = interval_start + 0.5 * tau * (nodes + 1.0)
    integrand = np.exp(-mu * (t - u)) * np.asarray(spec.arrival_rate(u), dtype=float)
    return float(x0 * np.exp(-mu * tau) + 0.5 * tau * np.dot(weights, integrand))


def first_ol_kernels(fluid):
    """Kernel grids of the first overloaded interval of a fluid solution,
    beside its local times t, w, wdot and boundary density qw, the spec and
    the summed noise intensity Isq = I1^2 + I2^2 + I3^2."""
    iv = [v for v in fluid.intervals if v.kind == "OL"][0]
    k = IntervalKernels.build(iv, fluid.spec)
    return SimpleNamespace(**vars(k), spec=fluid.spec, t=iv.t_loc, w=iv.y_loc,
                           wdot=iv.ydot_loc, qw=iv.qw_loc,
                           Isq=k.I1 ** 2 + k.I2 ** 2 + k.I3 ** 2)


def _w_at(k, t):
    return np.interp(t, k.t, k.w)


def _qw_at(k, t):
    """Boundary queue density lambda(t - w(t)) Fc(w(t))."""
    t = np.asarray(t, dtype=float)
    wv = _w_at(k, t)
    return np.asarray(k.spec.arrival_rate(t - wv), dtype=float) * np.asarray(
        k.spec.patience.survival(wv), dtype=float
    )


def H(k, t, u):
    """Propagator of the waiting-time deviation from time u to t."""
    return np.exp(np.interp(t, k.t, k.G) - np.interp(u, k.t, k.G))


def K(k, i, t, u):
    """Content-deviation kernels K_i(t, u), scalar t, vectorized u.

    For the arrival and abandonment sources the kernel is piecewise:
    mass that entered after t - w(t) is still in queue and is weighted
    by its own survival; older mass acts through the waiting-time
    deviation, routed along u -> L^{-1}(u) and propagated by H.
    """
    u = np.asarray(u, dtype=float)
    spec = k.spec
    t = float(t)
    wt = _w_at(k, t)
    qwt = float(_qw_at(k, t))
    lam_u = np.asarray(spec.arrival_rate(u), dtype=float)
    if i == 2:
        sv = np.asarray(spec.staffing(u), dtype=float)
        return -qwt * np.sqrt(spec.mu * sv) / _qw_at(k, u) * H(k, t, u)
    split = t - wt
    age = t - u
    Fc_age = np.asarray(spec.patience.survival(age), dtype=float)
    F_age = np.asarray(spec.patience.cdf(age), dtype=float)
    if i == 1:
        upper = spec.c_lambda * np.sqrt(lam_u) * Fc_age
    else:
        upper = -np.sqrt(lam_u * Fc_age * F_age)
    r = np.interp(u, k.t - k.w, k.t)        # L^{-1}(u), L(t) = t - w(t)
    wr = _w_at(k, r)
    Fcwr = np.asarray(spec.patience.survival(wr), dtype=float)
    qwr = np.asarray(spec.arrival_rate(r - wr), dtype=float) * Fcwr
    Hr = H(k, t, r)
    if i == 1:
        lower = spec.c_lambda * np.sqrt(lam_u) * Fcwr / qwr * qwt * Hr
    else:
        Fwr = np.asarray(spec.patience.cdf(wr), dtype=float)
        lower = -np.sqrt(lam_u * Fcwr * Fwr) / qwr * qwt * Hr
    return np.where(u > split, upper, lower)


def var_X_star_kernel(k, times):
    """Zero-start content-deviation variance at `times` by direct
    quadrature of the squared kernels from the interval start."""
    start = k.t[0]
    out = np.empty(len(np.atleast_1d(times)))
    for j, tt in enumerate(np.atleast_1d(times)):
        tt = float(tt)
        total = 0.0
        split = tt - float(_w_at(k, tt))
        u_hi = np.linspace(split, tt, _KERNEL_NODES)
        vals = K(k, 1, tt, u_hi) ** 2 + K(k, 3, tt, u_hi) ** 2
        total += simpson(vals, x=u_hi)
        if split > start + 1e-12:
            u_lo = np.linspace(start, split, _KERNEL_NODES)
            vals = K(k, 1, tt, u_lo) ** 2 + K(k, 3, tt, u_lo) ** 2
            total += simpson(vals, x=u_lo)
        u_all = np.linspace(start, tt, _KERNEL_NODES)
        total += simpson(K(k, 2, tt, u_all) ** 2, x=u_all)
        out[j] = total
    return out


def chunked_arrivals(spec, n, rng, envelope):
    """Arrival epochs by thinning against the envelope's per-chunk bound,
    one chunk at a time: a Poisson count, the sorted candidates and their
    marks drawn by two uniform calls, then one acceptance test."""
    edges, env = envelope
    cands, draws = [], []
    for a, b, e in zip(edges[:-1].tolist(), edges[1:].tolist(), env.tolist()):
        count = rng.poisson(n * e * (b - a))
        if count == 0:
            continue
        cands.append(np.sort(rng.uniform(a, b, count)))
        draws.append(rng.uniform(0.0, 1.0, count) * e)
    if not cands:
        return np.empty(0)
    cand = np.concatenate(cands)
    accept = np.concatenate(draws) < np.asarray(spec.arrival_rate(cand), dtype=float)
    return cand[accept]


def heap_replication(config, seed, fixed=None):
    """One sample path of `config` at `seed`, event by event.

    Arrivals, abandonments (from a lazy heap of deadlines), staffing
    changes, departures and observations each take a pass through the
    loop; ties resolve staffing, then arrival, departure, abandonment,
    and an observation follows every event at its epoch.  It draws what
    `sim.run_replication` draws, in the same order, so both give the same
    path for the same seed.  Only the patience sampler and the batch set-up
    are shared with the program.
    """
    spec = config.spec
    n = config.n
    mu = spec.mu
    envelope, (st_times, st_levels) = (sim._fixed_setup(config) if fixed is None else fixed)[:2]
    ss = np.random.SeedSequence(seed)
    rng_arr, rng_srv, rng_pat = [np.random.default_rng(s) for s in ss.spawn(3)]

    arrivals = chunked_arrivals(spec, n, rng_arr, envelope)
    patience = spec.patience.sample(rng_pat, len(arrivals)) if len(arrivals) else np.empty(0)
    # per arrival: epoch, abandonment deadline and queue exit epoch (entry
    # or abandonment; None while waiting); inf marks "no more arrivals"
    arr = arrivals.tolist() + [inf]
    deadline = (arrivals + patience).tolist()
    left = [None] * len(arrivals)
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
        # numpy's single draws continue the sequence of its block draws
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
    return sim.SimPath(t=grid, X=Q + B, Q=Q, B=B, W=np.array(waits), V=V, s=S,
                       N=N, D=D, A=A, E=E, forced=F, x0=x0)


def age_integrals_reference(rate, patience, t, w, n=3):
    """(Q, alpha, Q2) at the points (t[i], w[i]): the integrals over ages
    x in [0, w[i]] of rate(t[i] - x) times Fc(x), f(x) and Fc(x)^2, each by
    scipy's quad (epsrel 1e-13, no absolute floor) on the scalar
    evaluators, with the ages t[i] - b of the rate's breakpoints b and the
    patience breakpoints inside (0, w[i]) as its break points; only the
    first n of the three."""
    rate_bps = np.asarray(rate.breakpoints(), dtype=float)
    pat_bps = np.asarray(patience.breakpoints(), dtype=float)
    fc = patience.survival_scalar
    out = np.zeros((n, len(t)))
    for i, (ti, wi) in enumerate(zip(t, w)):
        if wi <= 0.0:
            continue
        kinks = np.concatenate([ti - rate_bps, pat_bps])
        kinks = np.sort(kinks[(kinks > 0.0) & (kinks < wi)])

        def lam(x):
            return rate.scalar(ti - x)

        for k, g in enumerate((lambda x: lam(x) * fc(x),
                               lambda x: lam(x) * float(patience.pdf(x)),
                               lambda x: lam(x) * fc(x) ** 2)[:n]):
            out[k, i] = quad(g, 0.0, wi, points=kinks if len(kinks) else None,
                             epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return out


def _dop853(rhs, t0, y0, t1, **kw):
    """scipy's DOP853 from (t0, y0), y0 a scalar or a vector, to t1 at
    rtol 1e-13, atol 1e-16, with dense output.  Steps of at most 0.1 keep
    the 7th-order interpolant's error below the step tolerance: unbounded
    steps on the smooth UL stretch of the piecewise/tabulated model left
    it 7.7e-12 off the closed form at t = 11.281, against 1.3e-14 for the
    solution."""
    return solve_ivp(rhs, (t0, t1), np.atleast_1d(y0), method="DOP853", rtol=1e-13,
                     atol=1e-16, dense_output=True, max_step=0.1, **kw)


def _rhs(spec):
    """The right-hand sides X' = lambda - mu X (UL) and the HWT ODE (OL)
    for solve_ivp."""
    lam, s, mu = spec.arrival_rate.scalar, spec.staffing.scalar, spec.mu

    def ul(t, x):
        return [lam(t) - mu * x[0]]

    def ol(t, w):
        b = s(t) * mu + spec.staffing.scalar_deriv(t)
        return [1.0 - b / (lam(t - w[0]) * float(spec.patience.survival(w[0])))]

    return ul, ol


def dop853_switch_times(fluid, reach=1e-2):
    """Each switch time of `fluid` re-located independently: the interval
    that ends in it is solved by DOP853 (_dop853) from the
    program's interval start, X = x0 at t = 0 or s(start) in UL and w = 0
    in OL, and its end found by brentq on the dense output within `reach`
    of the program's switch: X = s(t) in UL, w = 0 in OL."""
    spec = fluid.spec
    s = spec.staffing.scalar
    ul, ol = _rhs(spec)
    out = []
    for iv, tau in zip(fluid.intervals, fluid.switch_times):
        if iv.kind == "UL":
            rhs, y0, edge = ul, spec.x0 if iv.start == 0.0 else s(iv.start), s
        else:
            rhs, y0, edge = ol, 0.0, lambda t: 0.0
        sol = _dop853(rhs, iv.start, y0, tau + reach)
        out.append(brentq(lambda t: sol.sol(t)[0] - edge(t), tau - reach, tau + reach,
                          xtol=1e-15, rtol=4 * np.finfo(float).eps))
    return np.array(out)


def fluid_reference(fluid, stride=29):
    """(idx, w, X, Q, v): the grid indices 0, stride, 2 stride, ... and the
    fluid solution there, re-solved independently.  Each interval of
    `fluid` is solved by DOP853 (rtol 1e-13, atol 1e-16, dense output)
    from the program's interval start and start state, X = x0 at t = 0 or
    s(start) in UL and w = 0 in OL; an OL interval that reaches the
    horizon T runs on until t - w(t) = T.  In OL, Q is `quad` of
    lambda(t - x) Fc(x) over [0, w] with the kinks as break points,
    X = s + Q, and v = L^{-1}(t) - t, L(t) = t - w(t), by Newton's method
    on the dense w; w, Q and v are 0 in UL."""
    spec = fluid.spec
    s = spec.staffing.scalar
    ul, ol = _rhs(spec)
    T = fluid.grid[-1]

    def covers(t, w):
        return t - w[0] - T
    covers.terminal, covers.direction = True, 1.0

    idx = np.arange(0, len(fluid.grid), stride)
    w, X, Q, v = (np.zeros(len(idx)) for _ in range(4))
    for iv in fluid.intervals:
        sel = (idx >= iv.i0) & (idx <= iv.i1)
        t = fluid.grid[idx[sel]]
        if not len(t):
            continue
        if iv.kind == "UL":
            y0 = spec.x0 if iv.start == 0.0 else s(iv.start)
            X[sel] = _dop853(ul, iv.start, y0, iv.end).sol(t)[0]
            continue
        if iv.end < T:
            sol = _dop853(ol, iv.start, 0.0, iv.end)
        else:
            sol = _dop853(ol, iv.start, 0.0, T + 1000.0, events=covers)
        dense = sol.sol
        w[sel] = ws = dense(t)[0]
        Q[sel] = age_integrals_reference(spec.arrival_rate, spec.patience, t, ws, n=1)[0]
        X[sel] = np.asarray(spec.staffing(t), dtype=float) + Q[sel]
        # Newton on L(r) = t from r = t + w(t), the slope 1 - w' by a
        # central difference of the dense w
        r = t + ws
        for _ in range(8):
            slope = 1.0 - (dense(r + 1e-6)[0] - dense(r - 1e-6)[0]) / 2e-6
            r = r - (r - dense(r)[0] - t) / slope
        v[sel] = r - t
    return idx, w, X, Q, v


def shift_reference(spec, kind, ta, w_a, shift_a, t):
    """(W_g, X_g) at the sorted times t in (ta, T] of one interval of
    regime `kind`: the mean shift along (spec.arrival_rate_g,
    spec.staffing_g) carried from the program's values at ta by the
    linearised fluid ODE, solved by DOP853 (_dop853), against the
    program's difference of two fluid solves.

    UL: shift_a = X_g(ta), X_g' = lambda_g - mu X_g, and W_g = 0.
    OL: w_a = w(ta), shift_a = W_g(ta); the pair (w, W_g) solves
        w' = 1 - b0 / q,  q = lambda(t - w) Fc(w),  b0 = s mu + s',
        W_g' = h W_g + (1 - w') lambda_g(t - w) / lambda(t - w)
               - (s_g mu + s_g') / q,
    with h = (1 - w') (-lambda'(t - w) / lambda(t - w) - f(w) / Fc(w)),
    the derivative of w' along the refinement; and
    X_g = s_g + int_0^w lambda_g(t - x) Fc(x) dx + q W_g, the integral by
    `quad` (age_integrals_reference)."""
    mu = spec.mu
    lam, lam_d = spec.arrival_rate.scalar, spec.arrival_rate.scalar_deriv
    lam_g = spec.arrival_rate_g.scalar
    s, s_d = spec.staffing.scalar, spec.staffing.scalar_deriv
    s_g, s_gd = spec.staffing_g.scalar, spec.staffing_g.scalar_deriv
    fc = spec.patience.survival_scalar
    t = np.asarray(t, dtype=float)
    if kind == "UL":
        sol = _dop853(lambda u, x: [lam_g(u) - mu * x[0]], ta, shift_a, t[-1])
        return np.zeros(len(t)), sol.sol(t)[0]

    def rhs(u, y):
        w, W_g = y
        lam_tw, Fc_w = lam(u - w), fc(w)
        q = lam_tw * Fc_w
        wdot = 1.0 - (s(u) * mu + s_d(u)) / q
        h = (1.0 - wdot) * (-lam_d(u - w) / lam_tw - float(spec.patience.pdf(w)) / Fc_w)
        return [wdot, h * W_g + (1.0 - wdot) * lam_g(u - w) / lam_tw
                - (s_g(u) * mu + s_gd(u)) / q]

    w, W_g = _dop853(rhs, ta, [w_a, shift_a], t[-1]).sol(t)
    q = np.array([lam(u - x) * fc(x) for u, x in zip(t, w)])
    Q_g = age_integrals_reference(spec.arrival_rate_g, spec.patience, t, w, n=1)[0]
    return W_g, np.array([s_g(u) for u in t]) + Q_g + q * W_g
