"""Curvature-dimension verification core.

Every check reports a signed worst-case margin instead of a bare boolean:
positive margin = the inequality is violated at the witness, negative =
it holds with that much room.  PASS means worst margin <= tolerance, so
discretization error stays auditable.  Default tolerances scale like
c1*h + c2*h^2 in the grid step h (c1 = 0.05, c2 = 50.0, calibrated on the
model-space batteries).

Conjugate-point regime: whenever a distortion coefficient evaluates to
infinity the affected plan is skipped and flagged, never folded into a
margin.  Conjugacy is decided by K d^2 >= N pi^2 alone: a margin that
overflows to inf outside that regime is a violation too large to
represent, and it fails the check with its witness.

A (K,N)-convexity battery is a ``TripleBattery`` of arrays (plans and
their (plan, t) rows; a list of (x0, x1) pairs is packed into one, and a
lone triple is a one-row battery) scored in one batched pass: numpy
geodesic points, sigma's rule (conjugate test, branch, denominator) once
per distinct plan length, and one vectorised weight lookup of the
distinct points.  Only sin or sinh of t x and exp(-f/N) are scalar math,
each called once per distinct argument and gathered back to its rows,
since numpy's exp, sin and sinh differ from math's by an ulp on some
inputs and margins are reproducible bits; the products and quotients
around them are numpy's correctly rounded float operations, so every
margin equals scalar sigma's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coefficients import (CONJUGATE, FAR, SEAM, SIN, SINH, CurvatureParams, _sigma_branch,
                           _sigma_value, sigma)
from .space1d import Space1D, WeightFn
from .transport1d import entropies_along

__all__ = [
    "CurvatureReport",
    "TripleBattery",
    "default_tolerance",
    "default_triple_battery",
    "triple_margin",
    "check_kn_convex",
    "differential_criterion",
    "verify_cde",
    "verify_cd_infty",
    "circle_obstruction",
]

_DEFAULT_T_GRID = tuple(k / 8.0 for k in range(1, 8))
_BATTERY_COARSE = 64     # default_triple_battery: grid points, all pairs i < j
_BATTERY_RANDOM = 256    # default_triple_battery: seeded random plans


def default_tolerance(grid_step: float) -> float:
    """PASS threshold c1*h + c2*h^2 used when the caller gives none."""
    return 0.05 * grid_step + 50.0 * grid_step * grid_step


@dataclass
class CurvatureReport:
    """Structured verdict of an inequality scan."""

    kind: str
    K: float
    N: float
    max_violation: float
    witness: dict
    tolerance: float
    conjugate_flags: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.tolerance):  # an inf tol passes anything, a NaN fails it
            raise ValueError(f"tol must be finite, got {self.tolerance!r}")

    @property
    def passed(self) -> bool:
        return bool(self.max_violation <= self.tolerance)

    def to_dict(self) -> dict:
        """The report body: each fact once, the margin as `margin`."""
        d = {
            "check_id": self.kind,
            # CD(K, infinity) has no dimension bound
            "params": {"K": self.K} if math.isinf(self.N) else {"K": self.K, "N": self.N},
            "margin": self.max_violation,
            "witness": self.witness,
            "tol": self.tolerance,
            "passed": self.passed,
        }
        if self.conjugate_flags:
            d["conjugate_flags"] = self.conjugate_flags
        d.update(self.extra)
        return d


@dataclass(frozen=True, eq=False)
class TripleBattery:
    """Geodesic triples as arrays: plan i runs from x0[i] to x1[i], along
    the major arc where major[i], and row r scores plan plan_of[r] at the
    interior time t[r].  A plan may have no row."""

    x0: np.ndarray
    x1: np.ndarray
    major: np.ndarray
    t: np.ndarray
    plan_of: np.ndarray

    def __post_init__(self):
        for name, dtype in (("x0", float), ("x1", float), ("major", bool), ("t", float),
                            ("plan_of", np.intp)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.x0)
        if not len(self.x1) == len(self.major) == n or len(self.plan_of) != len(self.t):
            raise ValueError("battery arrays disagree in length")
        if not (np.all(np.isfinite(self.x0)) and np.all(np.isfinite(self.x1))):
            raise ValueError("triple endpoints must be finite")
        if np.any(self.x0 == self.x1):
            raise ValueError("triple needs distinct endpoints")
        if not np.all((0.0 < self.t) & (self.t < 1.0)):
            raise ValueError("interior times must lie in (0,1)")
        if len(self.t) and not (0 <= self.plan_of.min() and self.plan_of.max() < n):
            raise ValueError("battery rows must name one of its plans")


def _geodesic_points(space: Space1D, x0: np.ndarray, x1: np.ndarray, major: np.ndarray,
                     t: np.ndarray, plan_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_t per row (plan_of, t) and geodesic length per plan (x0, x1), along
    the major arc where `major`."""
    if space.topology.kind != "circle":
        return (1.0 - t) * x0[plan_of] + t * x1[plan_of], np.abs(x1 - x0)
    c = space.topology.circumference
    fwd = (x1 - x0) % c
    if np.any(major & (np.abs(fwd - c / 2.0) > 1e-9)):
        raise ValueError("major arc is only a geodesic between antipodes")
    # minor arc: the signed short way round
    delta = np.where(major | (fwd > c - fwd), fwd - c, fwd)
    return (x0[plan_of] + t * delta[plan_of]) % c, np.abs(delta)


def _scalar_map(fn, first: np.ndarray, *rest) -> np.ndarray:
    """fn(a, b, ...) elementwise on Python floats, streamed without lists."""
    args = [memoryview(a) if isinstance(a, np.ndarray) else a for a in (first, *rest)]
    return np.fromiter(map(fn, *args), dtype=float, count=len(first))


def _battery_sigmas(params: CurvatureParams, d: np.ndarray, t: np.ndarray,
                    plan_of: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(live, s0, s1): per plan of length d whether it is out of the
    conjugate regime, and per row (plan_of, t) of a live plan
    sigma^(1-t)(d) and sigma^(t)(d), bit for bit what scalar sigma returns.

    sigma's rule runs once per distinct plan length.  The rows of sin or
    sinh plans map that function once per distinct argument (1-t) x, then
    once per distinct t x (grid rows share most of them), and divide by
    their plan's denominator, as sigma does; a row of a linear plan is t.
    Seam and far-sinh rows, rare, take sigma's value from the rule."""
    dist, plan_at = np.unique(d, return_inverse=True)  # grid plans share lengths
    rule = np.array([_sigma_branch(params, v) for v in dist.tolist()], dtype=float)
    branch, x, den = rule.reshape(-1, 3)[plan_at].T
    live = branch != CONJUGATE
    rows = live[plan_of]
    at = plan_of[rows]
    branch, x, den, tl = branch[at], x[at], den[at], t[rows]
    mapped = [(fn, branch == code) for code, fn in ((SIN, math.sin), (SINH, math.sinh))]
    series = (branch == SEAM) | (branch == FAR)
    coefs = []
    for tt in (1.0 - tl, tl):
        c = tt.copy()  # the linear branch
        for fn, sel in mapped:
            if sel.any():
                args, arg_at = np.unique(tt[sel] * x[sel], return_inverse=True)
                c[sel] = _scalar_map(fn, args)[arg_at] / den[sel]
        if series.any():
            c[series] = _scalar_map(_sigma_value, tt[series], branch[series], x[series],
                                    den[series])
        coefs.append(c)
    return live, coefs[0], coefs[1]


def _battery_margins(space: Space1D, params: CurvatureParams, x0: np.ndarray, x1: np.ndarray,
                     major: np.ndarray, t: np.ndarray,
                     plan_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(margins, live): the (K,N)-convexity margin of each row (plan_of, t)
    of the plans (x0, x1, major), and per plan whether it is out of the
    conjugate regime.  The endpoints of the live plans and the points x_t
    of their rows are looked up in one call on their distinct values (a
    grid battery's points repeat about nine times over), exp(-f/N) is
    taken once per distinct point, and both are gathered back to the rows;
    rows of conjugate plans, never looked up, read math.inf."""
    xt, d = _geodesic_points(space, x0, x1, major, t, plan_of)
    N = params.N
    live, s0, s1 = _battery_sigmas(params, d, t, plan_of)
    rows = live[plan_of]
    n = int(np.count_nonzero(live))
    pts = np.concatenate([x0[live], x1[live], xt[rows]])
    vals, pt_at = np.unique(pts, return_inverse=True)
    fv = space.weight(vals)
    try:
        g = _scalar_map(math.exp, -fv / N)[pt_at]
    except OverflowError:
        fv = fv[pt_at]
        k = int(np.argmin(fv))
        raise ValueError(f"exp(-f/N) is not representable at x = {float(pts[k])!r} "
                         f"(f = {float(fv[k])!r}, N = {N!r})") from None
    at = (np.cumsum(live) - 1)[plan_of[rows]]  # plan among the live
    m = np.full(len(t), math.inf)
    with np.errstate(over="ignore"):  # overflow is inf, as in float arithmetic
        m[rows] = s0 * g[at] + s1 * g[n + at] - g[2 * n:]
    return m, live


def triple_margin(space: Space1D, params: CurvatureParams, x0: float, x1: float, t: float,
                  arc: str = "minor") -> float:
    """sigma^{(1-t)}(d) g(x0) + sigma^{(t)}(d) g(x1) - g(x_t), g = exp(-f/N),
    f the space's weight.

    Positive = the (K,N)-convexity inequality fails at this triple.
    Returns math.inf if the triple is in the conjugate regime, and also
    when the margin overflows outside it; raises ValueError when
    exp(-f/N) itself overflows at one of the three points.
    """
    if arc not in ("minor", "major"):
        raise ValueError(f"unknown arc {arc!r}")
    row, _ = _battery_margins(space, params, np.array([x0], dtype=float),
                              np.array([x1], dtype=float), np.array([arc != "minor"]),
                              np.array([t], dtype=float), np.zeros(1, dtype=np.intp))
    return float(row[0])


def _random_plans(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """The (x0, x1, t) rows of count random plans, as a loop draws them:
    x0, x1 = lo + (hi - lo) * rng.random(2), drawn again while closer than
    1e-6 (hi - lo), then t = 0.05 + 0.9 * rng.random().  The stream is read
    in blocks, each taken up to its first close pair, whose two draws are
    skipped."""
    taken, u = [], np.empty(0)
    while (need := count - sum(len(b) for b in taken)) > 0:
        u = np.concatenate([u, rng.random(3 * need)])
        x = lo + (hi - lo) * u
        close = np.abs(x[1:3 * need:3] - x[0:3 * need:3]) < 1e-6 * (hi - lo)
        m = int(np.argmax(close)) if close.any() else need
        taken.append(np.column_stack([x[0:3 * m:3], x[1:3 * m:3],
                                      0.05 + 0.9 * u[2:3 * m:3]]))
        u = u[3 * m + 2:]
    return np.concatenate(taken) if taken else np.empty((0, 3))


def default_triple_battery(space: Space1D, seed: int = 0) -> TripleBattery:
    """All pairs i < j of a 64-point grid, each at every time of
    _DEFAULT_T_GRID, then 256 seeded random plans of one random time each.

    A circle pair of antipodes is followed by its major arc.  Built as
    arrays; deterministic for a fixed seed.
    """
    lo, hi = space.domain()
    circle = space.topology.kind == "circle"
    if circle:
        pts = np.linspace(lo, hi, _BATTERY_COARSE, endpoint=False)
    else:
        pad = 1e-9 * (hi - lo)
        pts = np.linspace(lo + pad, hi - pad, _BATTERY_COARSE)
    i, j = np.triu_indices(len(pts), k=1)  # the order of a double loop over i < j
    if circle:
        c = space.topology.circumference
        gap = np.abs(pts[i] - pts[j]) % c
        antipodal = np.abs(np.minimum(gap, c - gap) - c / 2.0) < 1e-9
        pair = np.repeat(np.arange(len(i)), 1 + antipodal)  # antipodes twice
        i, j = i[pair], j[pair]
        major = np.zeros(len(pair), dtype=bool)
        major[1:] = pair[1:] == pair[:-1]
    else:
        major = np.zeros(len(i), dtype=bool)
    rand = _random_plans(np.random.default_rng(seed), lo, hi, _BATTERY_RANDOM)
    n_grid = len(i)
    return TripleBattery(
        np.concatenate([pts[i], rand[:, 0]]), np.concatenate([pts[j], rand[:, 1]]),
        np.concatenate([major, np.zeros(len(rand), dtype=bool)]),
        np.concatenate([np.tile(_DEFAULT_T_GRID, n_grid), rand[:, 2]]),
        np.concatenate([np.repeat(np.arange(n_grid), len(_DEFAULT_T_GRID)),
                        np.arange(n_grid, n_grid + len(rand))]))


def check_kn_convex(space: Space1D, params: CurvatureParams,
                    plan_battery: TripleBattery | Sequence[tuple[float, float]],
                    tol: float | None = None) -> CurvatureReport:
    """Worst (K,N)-convexity margin of the space's weight over the plan battery:
    a TripleBattery, or (x0, x1) pairs, each at every t = k/8 on its minor arc.

    One batched pass over all (plan, t) rows; the witness is the first row
    of largest margin.  A conjugate plan (K d^2 >= N pi^2, whatever t) is
    flagged once and never looked up; a plan without times is neither.
    Any other plan is scored on every row: a margin that overflows to inf
    is the worst violation there is.
    """
    if tol is None:
        tol = default_tolerance(space.grid_step)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    bat = plan_battery
    if not isinstance(bat, TripleBattery):
        try:
            x0, x1 = np.array([(float(a), float(b)) for a, b in bat]).reshape(-1, 2).T
        except (TypeError, ValueError):
            raise ValueError("a plan list holds (x0, x1) pairs of numbers") from None
        n = len(x0)
        bat = TripleBattery(x0, x1, np.zeros(n, dtype=bool), np.tile(_DEFAULT_T_GRID, n),
                            np.repeat(np.arange(n), len(_DEFAULT_T_GRID)))
    n_plans = len(bat.x0)
    has_rows = np.bincount(bat.plan_of, minlength=n_plans) > 0
    rowed = np.flatnonzero(has_rows)
    plan_of = (np.cumsum(has_rows) - 1)[bat.plan_of]  # among the plans with rows
    margins, live = _battery_margins(space, params, bat.x0[rowed], bat.x1[rowed],
                                     bat.major[rowed], bat.t, plan_of)
    if not np.any(live):
        raise ValueError("no finite-margin plan in the battery: every plan is conjugate")
    k = int(np.argmax(np.where(live[plan_of], margins, -math.inf)))
    j = int(rowed[plan_of[k]])
    witness = {"x0": float(bat.x0[j]), "x1": float(bat.x1[j]), "t": float(bat.t[k]),
               "arc": "major" if bat.major[j] else "minor", "margin": float(margins[k])}
    conj = rowed[~live]
    flags = [{"plan": j, "x0": x0, "x1": x1, "regime": "conjugate-point"}
             for j, x0, x1 in zip(conj.tolist(), bat.x0[conj].tolist(), bat.x1[conj].tolist())]
    return CurvatureReport(
        kind="kn-convexity", K=params.K, N=params.N, max_violation=float(margins[k]),
        witness=witness, tolerance=tol, conjugate_flags=flags, extra={"n_plans": n_plans},
    )


def differential_criterion(f: WeightFn, params: CurvatureParams,
                           tol: float | None = None) -> CurvatureReport:
    """Pointwise form of (K,N)-convexity: V'' >= K + (V')^2 / N.

    Checked at interior sample nodes by central differences (the form that
    exp(-V/N) solving u'' <= -(K/N) u forces).  Margin at a node is
    K + (V')^2/N - V''; positive = violated there.
    """
    xs = np.asarray(f.coords, dtype=float)
    vs = np.asarray(f.values, dtype=float)
    if len(xs) < 5:
        raise ValueError("need at least 5 weight samples for second differences")
    if tol is None:
        tol = default_tolerance(float(np.min(np.diff(xs))))
    hl = xs[1:-1] - xs[:-2]
    hr = xs[2:] - xs[1:-1]
    d1 = (vs[2:] - vs[:-2]) / (hl + hr)
    d2 = 2.0 * ((vs[2:] - vs[1:-1]) / hr - (vs[1:-1] - vs[:-2]) / hl) / (hl + hr)
    margins = params.K + d1 * d1 / params.N - d2
    k = int(np.argmax(margins))
    return CurvatureReport(
        kind="kn-differential", K=params.K, N=params.N,
        max_violation=float(margins[k]),
        witness={"x": float(xs[k + 1]), "margin": float(margins[k])},
        tolerance=tol,
        extra={"node_margins": [float(v) for v in margins],
               "node_coords": [float(v) for v in xs[1:-1]]},
    )


def _entropy_pairs(space: Space1D, pair_battery):
    """(idx, W2, Ent0, Ent1, [Ent_t per time of _DEFAULT_T_GRID]) per pair, each
    pair coupled once; raises ValueError for a pair on another space or a diverging entropy."""
    for idx, (mu0, mu1) in enumerate(pair_battery):
        if mu0.space is not space and mu0.space != space:
            raise ValueError(f"pair {idx}: its measures live on another space than the check's")
        dist, ents = entropies_along(mu0, mu1, [0.0, 1.0, *_DEFAULT_T_GRID])
        if not (math.isfinite(ents[0]) and math.isfinite(ents[1])):
            raise ValueError(f"pair {idx}: endpoint entropy diverges")
        for t, et in zip(_DEFAULT_T_GRID, ents[2:]):
            if not math.isfinite(et):
                raise ValueError(f"pair {idx}: entropy diverges at t={t}")
        yield idx, dist, ents[0], ents[1], ents[2:]


def verify_cde(space: Space1D, params: CurvatureParams, pair_battery,
               tol: float = 5e-4) -> CurvatureReport:
    """Entropic curvature-dimension check along displacement interpolation.

    Margin per (pair, t = k/8, k = 1..7): sigma^{(1-t)}(W2) exp(-Ent0/N) +
    sigma^{(t)}(W2) exp(-Ent1/N) - exp(-Ent_t/N); positive = violated.
    """
    N = params.N
    worst = -math.inf
    witness = {}
    flags = []
    for idx, dist, e0, e1, ents in _entropy_pairs(space, pair_battery):
        for t, et in zip(_DEFAULT_T_GRID, ents):
            s0 = sigma(1.0 - t, params, dist)
            s1 = sigma(t, params, dist)
            if math.isinf(s0) or math.isinf(s1):
                flags.append({"pair": idx, "w2": dist, "regime": "conjugate-point"})
                break
            try:
                m = (s0 * math.exp(-e0 / N) + s1 * math.exp(-e1 / N)
                     - math.exp(-et / N))
            except OverflowError:
                ents_t = ", ".join(repr(float(e)) for e in (e0, e1, et))
                raise ValueError(f"pair {idx}: exp(-Ent/N) is not representable at t={t} "
                                 f"(Ent0, Ent1, Ent_t = {ents_t}; N = {N!r})") from None
            if m > worst:
                worst = m
                witness = {"pair": idx, "t": t, "w2": dist, "ent0": e0,
                           "ent1": e1, "ent_t": et, "margin": m}
    if worst == -math.inf:
        raise ValueError("no finite-margin pair in the battery")
    return CurvatureReport(kind="cde-entropic", K=params.K, N=params.N, max_violation=worst,
                           witness=witness, tolerance=tol, conjugate_flags=flags,
                           extra={"n_pairs": len(pair_battery)})


def verify_cd_infty(space: Space1D, K: float, pair_battery,
                    tol: float = 5e-4) -> CurvatureReport:
    """K-convexity of the entropy at t = k/8: Ent_t <= (1-t)Ent0 + tEnt1 - K/2 t(1-t) W2^2."""
    worst = -math.inf
    witness = {}
    for idx, dist, e0, e1, ents in _entropy_pairs(space, pair_battery):
        for t, et in zip(_DEFAULT_T_GRID, ents):
            bound = (1.0 - t) * e0 + t * e1 - 0.5 * K * t * (1.0 - t) * dist * dist
            m = et - bound
            if m > worst:
                worst = m
                witness = {"pair": idx, "t": t, "w2": dist, "ent_t": et,
                           "bound": bound, "margin": m}
    if worst == -math.inf:
        raise ValueError("no finite-margin pair in the battery")
    return CurvatureReport(kind="cd-infinity", K=K, N=math.inf, max_violation=worst,
                           witness=witness, tolerance=tol, extra={"n_pairs": len(pair_battery)})


def circle_obstruction(space: Space1D, params: CurvatureParams) -> CurvatureReport:
    """Find a (K,N)-convexity violation on a circle for K > 0.

    Scores the triples (xbar -+ d/2, t = 1/2), xbar = argmax V, in one
    battery: d from 0.95 min(c/2, pi sqrt(N/K)), below the conjugate length,
    times 0.8 while d > 16 eps c, and while d > 4 grid_step or fewer than 40
    are scored.  The first positive margin is the violation, which must
    exist for every weight and K > 0; none is an anomaly (a bug), reported
    at the first largest margin.  A K so large that no d is scored raises."""
    if space.topology.kind != "circle":
        raise ValueError("circle_obstruction needs a circle space")
    if not params.K > 0.0:
        raise ValueError("circle_obstruction needs K > 0")
    w = space.weight
    circ = space.topology.circumference
    xbar = float(w.coords[int(np.argmax(w.values))])
    ds, d = [], 0.95 * min(circ / 2.0, math.pi * math.sqrt(params.N / params.K))
    while (d > 4.0 * space.grid_step or len(ds) < 40) and d > 16.0 * np.finfo(float).eps * circ:
        ds.append(d)
        d *= 0.8
    if not ds:
        raise ValueError(f"nothing to score: at K = {params.K!r}, N = {params.N!r} the first "
                         f"d, {d!r}, is not above 16 eps c")
    x0, x1 = [(xbar - d / 2.0) % circ for d in ds], [(xbar + d / 2.0) % circ for d in ds]
    n = len(ds)
    margins, _ = _battery_margins(space, params, np.array(x0), np.array(x1),
                                  np.zeros(n, dtype=bool), np.full(n, 0.5), np.arange(n))
    positive = margins > 0.0
    found = bool(positive.any())
    k = int(np.argmax(positive if found else margins))
    d, m = ds[k], float(margins[k])
    witness = {"x0": x0[k], "x1": x1[k], "d": d, "margin": m}
    if found:
        # xbar maximises f, so gN cannot overflow once the margins were
        # computed, but it can underflow
        gN = math.exp(-w(xbar) / params.N)
        if gN == 0.0:
            raise ValueError(f"exp(-f/N) is not representable at xbar = {xbar!r}: "
                             f"f = {w(xbar)!r}, N = {params.N!r}")
        witness = {"x0": x0[k], "xbar": xbar, "x1": x1[k], "t": 0.5, "d": d, "margin": m,
                   "violation_factor": (m + gN) / gN,
                   "analytic_factor": 1.0 / math.cos(0.5 * d * math.sqrt(params.K / params.N))}
    return CurvatureReport(
        kind="circle-obstruction", K=params.K, N=params.N, max_violation=m, witness=witness,
        tolerance=default_tolerance(space.grid_step), extra={"anomaly": not found})
