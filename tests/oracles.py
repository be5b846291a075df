"""Independent oracles for the test suite.

Each oracle recomputes a target quantity by a route disjoint from the
library implementation: high-precision closed forms (mpmath), refined
trapezoid quadrature, LP transport plans (scipy HiGHS), shrinking-cover
limits, and bisection CDF inversion.  Library code is only called where an
oracle needs raw measure evaluations that are themselves exact.  Frozen
copies of earlier library routines (the plan-by-plan battery, the circle
cut's objective helpers, the tripod's per-side half densities) pin
rewrites that must keep every bit.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.optimize import linprog

mp.mp.dps = 50


# -- high-precision closed forms ---------------------------------------------

def sigma_hp(t, K, N, theta):
    """Distortion coefficient via 50-digit arithmetic."""
    t, K, N, theta = map(mp.mpf, (t, K, N, theta))
    s = K * theta ** 2
    if s >= N * mp.pi ** 2:
        return mp.inf
    if s == 0:
        return t
    if s > 0:
        x = mp.sqrt(s / N)
        return mp.sin(t * x) / mp.sin(x)
    x = mp.sqrt(-s / N)
    return mp.sinh(t * x) / mp.sinh(x)


def s_vol_hp(K, N, t):
    K, N, t = map(mp.mpf, (K, N, t))
    if K == 0:
        return t
    if K > 0:
        c = mp.sqrt(K / (N - 1))
        return mp.sin(t * c) / c
    c = mp.sqrt(-K / (N - 1))
    return mp.sinh(t * c) / c


def f_vol_hp(K, N, r):
    """Integral of s_vol**(N-1) over [0, r] at 40 digits (r capped at the
    conjugate radius for K > 0).

    The integrand is scaled by its peak, and [0, r] is cut at r (1 - 2^-k),
    k = 1..8, so that a sharp rise towards r (large N, or K < 0 with a large
    r) falls on short pieces; an unscaled, uncut mp.quad judged convergence
    by an absolute error and was off by 1e-7 at r = 2.6e-5, N = 11.8."""
    with mp.workdps(40):
        K, N, r = mp.mpf(K), mp.mpf(N), mp.mpf(r)
        p, R = N - 1, mp.inf
        if K == 0:
            def s(x):
                return x
        elif K > 0:
            c = mp.sqrt(K / p)
            R = mp.pi / c
            r = min(r, R)

            def s(x):  # >= 0 on [0, R]; abs drops a sign that rounding adds at R
                return abs(mp.sin(c * x)) / c
        else:
            c = mp.sqrt(-K / p)

            def s(x):
                return mp.sinh(c * x) / c
        peak = s(min(r, R / 2))
        cuts = [mp.mpf(0)] + [1 - mp.mpf(2) ** -k for k in range(1, 9)] + [mp.mpf(1)]
        return r * peak ** p * mp.quad(lambda u: (s(r * u) / peak) ** p, cuts)


# -- quadrature refinement oracle --------------------------------------------

def trapezoid_refined(fn, a, b, n0=64, levels=8):
    """Richardson-extrapolated trapezoid value (Romberg first column)."""
    if b <= a:
        return 0.0
    rows = []
    n = n0
    for _ in range(levels):
        xs = np.linspace(a, b, n + 1)
        ys = np.array([fn(x) for x in xs])
        rows.append(np.trapezoid(ys, xs))
        n *= 2
    rows = list(rows)
    # Romberg extrapolation
    table = [rows]
    for k in range(1, len(rows)):
        prev = table[-1]
        table.append([(4 ** k * prev[i + 1] - prev[i]) / (4 ** k - 1)
                      for i in range(len(prev) - 1)])
    return float(table[-1][0])


# -- LP transport oracle -------------------------------------------------------

def lp_transport_cost(x, a, y, b, dist=None):
    """Exact optimal transport cost (squared) between atomic measures.

    Solves the full LP with HiGHS; dist(xi, yj) defaults to |xi - yj|.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n, m = len(x), len(y)
    if dist is None:
        cost = (x[:, None] - y[None, :]) ** 2
    else:
        cost = np.array([[dist(xi, yj) ** 2 for yj in y] for xi in x])
    A_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        A_eq.append(row)
        b_eq.append(a[i])
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        A_eq.append(row)
        b_eq.append(b[j])
    res = linprog(cost.ravel(), A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    return float(res.fun)


# -- shrinking-cover boundary-measure oracle -----------------------------------

def cover_boundary_mass(space, points, deltas=(1e-2, 1e-3, 1e-4),
                        n_radii=24, n_offsets=33):
    """Covering-definition value of the codimension-1 mass of a finite set.

    For each delta the points are far apart relative to delta, so the cover
    infimum decouples: per point, minimize m(B_r(c))/r over radii r <= delta
    and admissible centers c with the point inside the ball.  The delta
    values are then Richardson-extrapolated linearly to delta -> 0.
    """
    from curvlab1d.space1d import measure_ball, WindowError

    vals = []
    for delta in deltas:
        total = 0.0
        for y in points:
            best = math.inf
            for r in np.linspace(delta / n_radii, delta, n_radii):
                for off in np.linspace(-r * 0.999, r * 0.999, n_offsets):
                    c = y + off
                    if not space.contains(c):
                        continue
                    try:
                        val = measure_ball(space, c, r) / r
                    except WindowError:
                        continue
                    if val < best:
                        best = val
            total += best
        vals.append(total)
    # linear Richardson using the two smallest deltas
    d1, d2 = deltas[-2], deltas[-1]
    v1, v2 = vals[-2], vals[-1]
    return v2 + (v2 - v1) * d2 / (d1 - d2), vals


# -- CDF inversion oracle -------------------------------------------------------

def bisect_quantile(cdf, u, lo, hi, tol=1e-12):
    """Q(u) = inf{x : cdf(x) >= u} by bisection."""
    a, b = lo, hi
    for _ in range(200):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if cdf(mid) >= u:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


# -- brute-force convexity scan --------------------------------------------------

def brute_force_triple_scan(f, space, K, N, n_grid=120, t_steps=16):
    """Worst (K,N)-convexity margin over a dense grid of line triples,
    computed with 50-digit sigma values.
    """
    lo, hi = space.domain()
    xs = np.linspace(lo + 1e-9, hi - 1e-9, n_grid)
    worst = -math.inf
    arg = None
    for i in range(n_grid):
        for j in range(i + 1, n_grid):
            x0, x1 = float(xs[i]), float(xs[j])
            d = abs(x1 - x0)
            for k in range(1, t_steps):
                t = k / t_steps
                s0 = sigma_hp(1 - t, K, N, d)
                s1 = sigma_hp(t, K, N, d)
                if mp.isinf(s0) or mp.isinf(s1):
                    continue
                xt = (1 - t) * x0 + t * x1
                m = float(s0 * mp.e ** (-mp.mpf(f(x0)) / N)
                          + s1 * mp.e ** (-mp.mpf(f(x1)) / N)
                          - mp.e ** (-mp.mpf(f(xt)) / N))
                if m > worst:
                    worst, arg = m, (x0, x1, t)
    return worst, arg


# -- plan-by-plan default battery -------------------------------------------------

def loop_triple_battery(space, seed=0, coarse=64, n_random=256,
                        t_grid=tuple(k / 8.0 for k in range(1, 8))):
    """The default (K,N)-convexity battery as (x0, x1, t_grid, arc) tuples,
    built one plan at a time: every grid pair i < j in double-loop order
    (a circle pair of antipodes followed by its major arc), then seeded
    random single-time plans from one rng.random(2) / rng.random() loop."""
    lo, hi = space.domain()
    circle = space.topology.kind == "circle"
    if circle:
        pts = np.linspace(lo, hi, coarse, endpoint=False)
    else:
        pad = 1e-9 * (hi - lo)
        pts = np.linspace(lo + pad, hi - pad, coarse)
    plans = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            x0, x1 = float(pts[i]), float(pts[j])
            plans.append((x0, x1, tuple(t_grid), "minor"))
            if circle and abs(space.distance(x0, x1) - space.topology.circumference / 2.0) < 1e-9:
                plans.append((x0, x1, tuple(t_grid), "major"))
    rng = np.random.default_rng(seed)
    made = 0
    while made < n_random:
        x0, x1 = lo + (hi - lo) * rng.random(2)
        if abs(x1 - x0) < 1e-6 * (hi - lo):
            continue
        plans.append((float(x0), float(x1), (0.05 + 0.9 * rng.random(),), "minor"))
        made += 1
    return plans


# -- stratified tripod ensemble ----------------------------------------------------

class TripodEnsemble:
    """Discrete plan of a branching scenario: a side x side stratified
    lattice over (source s, crossing time tau), one geodesic per node, going
    to u = s (1 - tau)/tau on edge 1 ("u") or edge 2 ("d").  Its histogram
    is the oracle for the closed-form half density of the library.
    """

    def __init__(self, scenario, side=64):
        self.beta = scenario.beta
        s_lo, s_hi = scenario.s_window
        tau_lo, tau_hi = scenario.tau_window
        self.s_nodes = s_lo + (np.arange(side) + 0.5) * (s_hi - s_lo) / side
        self.tau_nodes = tau_lo + (np.arange(side) + 0.5) * (tau_hi - tau_lo) / side

    def geodesic_count(self):
        return len(self.s_nodes) * len(self.tau_nodes)

    def geodesics(self, which):
        """Yield (start, end, mass) triples of the ensemble."""
        from curvlab1d.branching import TripodPoint

        edge = 1 if which == "u" else 2
        m = self.beta / self.geodesic_count()
        for s in self.s_nodes:
            for tau in self.tau_nodes:
                u = s * (1.0 - tau) / tau
                yield TripodPoint(0, float(s)), TripodPoint(edge, float(u)), m

    def positions(self, which, t):
        """(edge, coordinate) arrays of all ensemble geodesics at time t."""
        s = self.s_nodes[:, None]
        tau = self.tau_nodes[None, :]
        xi = s * (1.0 - t / tau)  # >0 stem, <0 target
        edges = np.where(xi >= 0.0, 0, 1 if which == "u" else 2)
        return edges.ravel(), np.abs(xi).ravel()


# -- frozen tripod half density -----------------------------------------------------

# Copies of the `branching._HalfDensity` routines as they were while each
# side of the center had its own formula, taking the half density `hd` in
# place of self.  The one signed formula keeps every float operation, so
# the library must reproduce these values with ==.

def frozen_stem_arr(hd, v):
    t = hd.t
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    if t >= hd.tau_hi:
        return out
    if t <= 0.0:
        ok = (v >= hd.s_lo) & (v <= hd.s_hi)
        out[ok] = hd.rho0 * (hd.tau_hi - hd.tau_lo)
        return out
    ok = (v >= 0.0) & (v < hd.s_hi * (1.0 - t / hd.tau_hi))
    if not np.any(ok):
        return out
    vv = v[ok]
    lo_off = np.maximum(hd.tau_lo - t, t * vv / (hd.s_hi - vv))
    hi_off = np.where(
        vv < hd.s_lo,
        np.minimum(hd.tau_hi - t, t * vv / np.maximum(hd.s_lo - vv, 1e-300)),
        hd.tau_hi - t,
    )
    width = hi_off - lo_off
    pos = (width > 0.0) & (lo_off > 0.0)
    res = np.zeros_like(vv)
    res[pos] = width[pos] + t * (np.log(hi_off[pos]) - np.log(lo_off[pos]))
    out[ok] = hd.rho0 * res
    return out


def frozen_target_arr(hd, u):
    t = hd.t
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    if t <= hd.tau_lo:
        return out
    ok = u > 0.0
    if not np.any(ok):
        return out
    uu = u[ok]
    t_minus_lo = np.minimum(t - hd.tau_lo, t * uu / (uu + hd.s_lo))
    t_minus_hi = np.maximum(t - hd.tau_hi, t * uu / (uu + hd.s_hi))
    width = t_minus_lo - t_minus_hi
    pos = (width > 0.0) & (t_minus_hi > 0.0)
    res = np.zeros_like(uu)
    res[pos] = -width[pos] + t * (np.log(t_minus_lo[pos]) - np.log(t_minus_hi[pos]))
    out[ok] = hd.rho0 * res
    return out


def frozen_stem_support(hd):
    t = hd.t
    if t >= hd.tau_hi:
        return 0.0, 0.0
    lo = max(0.0, hd.s_lo * (1.0 - t / hd.tau_lo))
    hi = hd.s_hi * (1.0 - t / hd.tau_hi)
    return lo, max(lo, hi)


def frozen_target_support(hd):
    t = hd.t
    if t <= hd.tau_lo:
        return 0.0, 0.0
    lo = max(0.0, hd.s_lo * (t - hd.tau_hi) / hd.tau_hi)
    hi = hd.s_hi * (t - hd.tau_lo) / hd.tau_lo
    return lo, max(lo, hi)


def frozen_breaks(hd, side):
    s_lo, s_hi, t = hd.s_lo, hd.s_hi, hd.t
    if side == "stem":
        lo, hi = frozen_stem_support(hd)
        cands = [s_lo * (1.0 - t / hd.tau_lo), s_lo * (1.0 - t / hd.tau_hi),
                 s_hi * (1.0 - t / hd.tau_lo), s_hi * (1.0 - t / hd.tau_hi), s_lo]
    else:
        lo, hi = frozen_target_support(hd)
        cands = [s * (t - tau) / tau for s in (s_lo, s_hi)
                 for tau in (hd.tau_lo, hd.tau_hi)]
    return sorted({lo, hi, *[c for c in cands if lo < c < hi]})


# -- frozen circle-cut helpers -------------------------------------------------------

# Copies of the transport1d objective helpers as they were before the
# small-array rewrite (np.unique merge, np.clip index, boolean window mask,
# two quantile routines).  The rewrite keeps every float operation and its
# order, so the library must reproduce these values with ==, not within a
# tolerance.

def frozen_eval_quantile(U, X, q):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.empty_like(q)
    idx = np.searchsorted(U, q, side="left")
    exact = (idx < len(U)) & (U[np.minimum(idx, len(U) - 1)] == q)
    out[exact] = X[np.minimum(idx[exact], len(X) - 1)]
    inner = ~exact
    k = np.clip(idx[inner] - 1, 0, len(U) - 2)
    du = U[k + 1] - U[k]
    frac = np.where(du > 0, (q[inner] - U[k]) / np.where(du > 0, du, 1.0), 0.0)
    out[inner] = X[k] + frac * (X[k + 1] - X[k])
    return out


def _frozen_affine_ends(U, X, ua, ub):
    k = np.searchsorted(U, ua, side="right") - 1
    k = np.clip(k, 0, len(U) - 2)
    du = U[k + 1] - U[k]
    slope = (X[k + 1] - X[k]) / du
    return X[k] + slope * (ua - U[k]), X[k] + slope * (ub - U[k])


def frozen_merged_pieces(bp0, bp1):
    U0, X0 = bp0
    U1, X1 = bp1
    mu = np.unique(np.concatenate([U0, U1]))
    ua, ub = mu[:-1], mu[1:]
    keep = ub > ua
    ua, ub = ua[keep], ub[keep]
    a0, b0 = _frozen_affine_ends(U0, X0, ua, ub)
    a1, b1 = _frozen_affine_ends(U1, X1, ua, ub)
    return ub - ua, a0, b0, a1, b1


def frozen_w2sq_line_bp(bp0, bp1):
    du, a0, b0, a1, b1 = frozen_merged_pieces(bp0, bp1)
    da, db = a0 - a1, b0 - b1
    dm = 0.5 * (da + db)
    return float(np.sum(du / 6.0 * (da * da + 4.0 * dm * dm + db * db)))


def _frozen_eval_quantile_right(U, X, q):
    idx = int(np.searchsorted(U, q, side="right"))
    k = min(max(idx - 1, 0), len(U) - 2)
    du = U[k + 1] - U[k]
    if du <= 0.0:
        return float(X[k + 1])
    return float(X[k] + (q - U[k]) / du * (X[k + 1] - X[k]))


def frozen_shifted_bp(ext, alpha):
    Ue, Xe = ext
    if abs(alpha) < 1e-300:  # a subnormal shift is 0
        alpha = 0.0
    lo, hi = alpha, alpha + 1.0
    mask = (Ue > lo) & (Ue < hi)
    U = np.concatenate([[0.0], Ue[mask] - alpha, [1.0]])
    x_lo = _frozen_eval_quantile_right(Ue, Xe, lo)
    x_hi = float(frozen_eval_quantile(Ue, Xe, np.array([hi]))[0])
    X = np.concatenate([[x_lo], Xe[mask], [x_hi]])
    x_scale = max(abs(X[0]), abs(X[-1]), 1.0)
    keep = [0]
    for i in range(1, len(U)):
        if (U[i] - U[keep[-1]] > 1e-14
                or abs(X[i] - X[keep[-1]]) > 1e-12 * x_scale):
            keep.append(i)
    if keep[-1] != len(U) - 1:
        keep.append(len(U) - 1)
    return U[keep], X[keep]


_FROZEN_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _frozen_golden_min(fn, a, b, iters=80):
    x1 = b - _FROZEN_GOLDEN * (b - a)
    x2 = a + _FROZEN_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _FROZEN_GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _FROZEN_GOLDEN * (b - a)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def frozen_circle_cut(bp0, ext1, n_cuts=256):
    """(W2^2, shift) of the circle cut from the source graph and the
    target's extended graph (`_breakpoints`, `_extended_bp`)."""
    def obj(alpha):
        return frozen_w2sq_line_bp(bp0, frozen_shifted_bp(ext1, alpha))

    shifts = np.linspace(-1.0, 1.0, 2 * n_cuts, endpoint=False)
    vals = {}

    def grid_val(i):
        if i not in vals:
            vals[i] = obj(shifts[i])
        return vals[i]

    lo, hi = 0, len(shifts) - 1
    while lo < hi:
        m = (lo + hi) // 2
        if grid_val(m) <= grid_val(m + 1):
            hi = m
        else:
            lo = m + 1
    k = lo
    step = 1.0 / n_cuts
    a_best, v_best = _frozen_golden_min(obj, max(shifts[k] - step, -1.0),
                                        min(shifts[k] + step, 1.0 - 1e-12))
    if grid_val(k) < v_best:
        a_best, v_best = shifts[k], vals[k]
    return v_best, a_best


# -- frozen circle obstruction -------------------------------------------------------

def frozen_circle_obstruction(space, params, shrink=0.8, min_steps=40):
    """`curvature.circle_obstruction` as it was before it became one battery:
    one triple at a time, shrinking d until the first positive margin.  The
    battery keeps every float operation of each row, so its report must
    equal this one in repr."""
    from curvlab1d.curvature import CurvatureReport, default_tolerance, triple_margin

    w = space.weight
    circ = space.topology.circumference
    xbar = float(w.coords[int(np.argmax(w.values))])
    d = 0.95 * min(circ / 2.0, math.pi * math.sqrt(params.N / params.K))
    best, best_w, steps = -math.inf, {}, 0
    while d > 4.0 * space.grid_step or steps < min_steps:
        if d <= 16.0 * np.finfo(float).eps * circ:
            break
        x0 = (xbar - d / 2.0) % circ
        x1 = (xbar + d / 2.0) % circ
        m = triple_margin(space, params, x0, x1, 0.5, arc="minor")
        if m > 0.0:
            gN = math.exp(-w(xbar) / params.N)
            if gN == 0.0:
                raise ValueError(f"exp(-f/N) is not representable at xbar = {xbar!r}: "
                                 f"f = {w(xbar)!r}, N = {params.N!r}")
            s_sum = m + gN
            analytic = 1.0 / math.cos(0.5 * d * math.sqrt(params.K / params.N))
            return CurvatureReport(
                kind="circle-obstruction", K=params.K, N=params.N, max_violation=m,
                witness={"x0": x0, "xbar": xbar, "x1": x1, "t": 0.5, "d": d,
                         "margin": m, "violation_factor": s_sum / gN,
                         "analytic_factor": analytic},
                tolerance=default_tolerance(space.grid_step), extra={"anomaly": False})
        if m > best:
            best, best_w = m, {"x0": x0, "x1": x1, "d": d, "margin": m}
        d *= shrink
        steps += 1
    return CurvatureReport(
        kind="circle-obstruction", K=params.K, N=params.N, max_violation=best,
        witness=best_w, tolerance=default_tolerance(space.grid_step), extra={"anomaly": True})
