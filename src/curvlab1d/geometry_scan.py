"""Ball-growth instrumentation: Bishop-Gromov scans, boundary-measure
bounds, linear growth constants, density-ratio traces, the Lipschitz
modulus of x -> m(B_r(x))/r, and model classification.

All scans report signed worst-case margins (see curvature.CurvatureReport)
so grid effects stay auditable.  A liminf over radii cannot be computed
from finitely many samples, so the density-ratio classifier reports the
whole trace plus a thresholded flag, with the threshold in the metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import CurvatureParams, _beyond_conjugate_radius, conjugate_radius, f_vol, s_vol
from .space1d import Space1D, WindowError, _ball_masses, boundary_measure, measure_ball
from .curvature import (CurvatureReport, check_kn_convex, circle_obstruction,
                        default_triple_battery, default_tolerance)
from .branching import Tripod, TripodPoint

__all__ = [
    "DensityRatioTrace",
    "bg_ratio_scan",
    "bg_boundary_check",
    "linear_growth_constant",
    "density_ratio_trace",
    "lipschitz_modulus",
    "classify",
]

_THRESHOLD_FACTOR = 0.1  # density_ratio_trace's in_mk threshold, a share of the largest ratio


@dataclass(frozen=True)
class DensityRatioTrace:
    """Trace of m(B_r(x))/r^k on a decreasing radius grid, one ratio per radius."""

    ratios: tuple[float, ...]

    @property
    def in_mk(self) -> bool:
        # liminf proxy: the ratio at the smallest sampled radius (a plain min
        # would misflag traces that diverge as r shrinks)
        return self.ratios[-1] < _THRESHOLD_FACTOR * max(self.ratios)


def bg_ratio_scan(space: Space1D, x0: float, params: CurvatureParams,
                  r_grid: Sequence[float], tol: float = 1e-9) -> CurvatureReport:
    """Monotonicity of r -> m(B_r(x0)) / F(r); margin = worst increase."""
    rs = [float(r) for r in r_grid]
    if len(rs) < 2:
        raise ValueError("r_grid needs at least two radii")
    if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ValueError("r_grid must be increasing")
    if not rs[0] > 0.0:  # m(B_0)/F(0) is 0/0
        raise ValueError(f"radius must be > 0, got {rs[0]!r}")
    if _beyond_conjugate_radius(params, rs[-1]):
        raise ValueError(f"radius {rs[-1]} beyond the conjugate radius {conjugate_radius(params)}")
    ratios = [measure_ball(space, x0, r) / f_vol(params, r) for r in rs]
    worst = -math.inf
    witness = {}
    for i in range(len(rs) - 1):
        inc = ratios[i + 1] - ratios[i]
        if inc > worst:
            worst = inc
            witness = {"r_lo": rs[i], "r_hi": rs[i + 1],
                       "ratio_lo": ratios[i], "ratio_hi": ratios[i + 1]}
    return CurvatureReport(
        kind="bg-ratio-monotonicity", K=params.K, N=params.N,
        max_violation=worst, witness=witness, tolerance=tol,
        extra={"x0": x0, "r_grid": rs, "ratios": ratios},
    )


def bg_boundary_check(space: Space1D, x0: float, params: CurvatureParams,
                      t_grid: Sequence[float], tol: float = 0.0) -> CurvatureReport:
    """Boundary-measure bound: m_{-1}(dB_t) <= 2*5^(N-1)*m(B_t)*S(t)^(N-1)/F(t),
    with the balls B_t(x0) in one sweep (space1d._ball_masses)."""
    if len(t_grid) == 0:
        raise ValueError("t_grid is empty: no radius to check")
    N = params.N
    ts = [float(t) for t in t_grid]
    lhss = [boundary_measure(space, x0, t) for t in ts]  # raises for t <= 0, or past the window
    balls = [space._ball_interval(x0, t) for t in ts]
    mass = _ball_masses(space, balls)
    worst = -math.inf
    witness = {}
    for t, lhs, ball in zip(ts, lhss, balls):
        rhs = (2.0 * 5.0 ** (N - 1.0) * mass(*ball)
               * s_vol(params, t) ** (N - 1.0) / f_vol(params, t))
        m = lhs - rhs
        if m > worst:
            worst = m
            witness = {"t": t, "lhs": lhs, "rhs": rhs, "margin": m}
    return CurvatureReport(
        kind="bg-boundary-measure", K=params.K, N=params.N, max_violation=worst,
        witness=witness, tolerance=tol, extra={"x0": x0, "t_grid": ts},
    )


def linear_growth_constant(space: Space1D, y: float, R: float,
                           s_grid: Sequence[float], params: CurvatureParams,
                           n_centers: int = 200) -> tuple[float, CurvatureReport]:
    """Empirical sup of m(B_s(x))/s over x in B_R(y), plus the growth envelope
    2*5^(N-1) * sup_t F'(t) m(B_t(y)) / F(t) over 50 radii t; the empirical
    value must stay below the envelope.

    The centres run over B_R(y), unwrapped over y +- min(R, c/2) on a
    circle, and all balls share one sweep (space1d._ball_masses).  Pairs
    whose ball leaves the window are counted in `skipped_pairs`; the
    envelope stops at its first ball that leaves the window and counts the
    radii before it in `envelope_radii`.  Raises ValueError when every
    pair, or every envelope ball, leaves the window.
    """
    if not 0.0 < R < math.inf:  # an infinite R leaves the envelope radii unbounded
        raise ValueError(f"R must be finite and > 0, got {R!r}")
    ss = [float(s) for s in s_grid]
    if any(not 0.0 < s <= 1.0 for s in ss):
        raise ValueError("s_grid must lie in (0, 1]")
    lo, hi = space.domain()
    if space.topology.kind == "circle":  # unwrapped, and once round at most
        lo, hi = y - min(R, hi / 2.0), y + min(R, hi / 2.0)
    xs = np.linspace(max(lo, y - R), min(hi, y + R), n_centers)
    balls = []  # (centre, s, ball), less the balls that leave the window
    for x in map(float, xs):
        for s in ss:
            try:
                balls.append((x, s, space._ball_interval(x, s)))
            except WindowError:
                pass
    skipped = len(xs) * len(ss) - len(balls)
    if not balls:
        raise ValueError(f"nothing checked: all {skipped} (centre, s) pairs have "
                         f"B_s(x) outside the window")
    conj = conjugate_radius(params)
    t_hi = min(R, 0.95 * conj)
    envelope_balls = []
    for t in np.linspace(t_hi / 50.0, t_hi, 50):
        try:
            envelope_balls.append((float(t), space._ball_interval(y, float(t))))
        except WindowError:
            break
    if not envelope_balls:
        raise ValueError(f"nothing checked: every envelope ball B_t({y}), "
                         f"t <= {t_hi}, leaves the window")
    mass = _ball_masses(space, [b for *_, b in balls + envelope_balls])
    emp, x, s = max(((mass(*ball) / s, x, s) for x, s, ball in balls), key=lambda v: v[0])
    env = max(s_vol(params, t) ** (params.N - 1.0) * mass(*ball) / f_vol(params, t)
              for t, ball in envelope_balls)
    envelope = 2.0 * 5.0 ** (params.N - 1.0) * env
    report = CurvatureReport(
        kind="linear-growth", K=params.K, N=params.N, max_violation=emp - envelope,
        witness={"x": x, "s": s, "value": emp}, tolerance=0.0,
        extra={"envelope": envelope, "y": y, "R": R,
               "skipped_pairs": skipped, "envelope_radii": len(envelope_balls)},
    )
    return emp, report


def density_ratio_trace(space, x, k: int, r_grid: Sequence[float]) -> DensityRatioTrace:
    """Ratios m(B_r(x))/r^k on a decreasing r_grid (Space1D or Tripod).

    On a Space1D the balls share one sweep (space1d._ball_masses), and a
    largest ball that leaves the window raises measure_ball's WindowError.
    in_mk flags a smallest-radius ratio < _THRESHOLD_FACTOR * max ratio; a
    finite trace can only approximate the liminf, so the threshold is reported.
    """
    rs = [float(r) for r in r_grid]
    if not rs:
        raise ValueError("r_grid is empty: nothing checked")
    if any(r2 >= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ValueError("r_grid must be decreasing")
    if not rs[-1] > 0.0:  # m(B_0)/0^k is 0/0
        raise ValueError(f"radius must be > 0, got {rs[-1]!r}")
    if isinstance(space, Tripod):
        if not isinstance(x, TripodPoint):
            raise ValueError("tripod traces need a TripodPoint")
        return DensityRatioTrace(tuple(space.measure_ball(x, r) / r ** k for r in rs))
    if rs[-1] < 10.0 * space.grid_step * (1.0 - 1e-12):
        raise ValueError("radii must stay >= 10 * grid_step")
    balls = [space._ball_interval(x, r) for r in rs]
    mass = _ball_masses(space, balls)
    return DensityRatioTrace(tuple(mass(*ball) / r ** k for r, ball in zip(rs, balls)))


def lipschitz_modulus(space: Space1D, params: CurvatureParams, r: float,
                      pair_battery: Sequence[tuple[float, float]]
                      ) -> tuple[float, float, CurvatureReport]:
    """Empirical |m(B_r(x)) - m(B_r(y))| / (r d(x,y)) against the comparison
    bound (1/r) F'(r - d/2)/F(r + d/2) (m(B_r(x)) + m(B_r(y))) per pair.

    All balls share one sweep (space1d._ball_masses).  On a circle y's arc
    is shifted next to x's, and a pair's difference comes from the two
    balls' end pieces alone, so their overlap cancels exactly.  A ball that
    leaves the window raises WindowError.
    """
    if len(pair_battery) == 0:
        raise ValueError("pair_battery is empty: nothing checked")
    if not r > 2.0 * space.grid_step:
        raise ValueError("need r > 2 * grid_step")
    balls = []  # x's ball, then y's, per pair
    for x, y in pair_battery:
        if not 0.0 < space.distance(x, y) < r / 2.0:
            raise ValueError(f"pair ({x}, {y}) must be within distance r/2")
        (ax, bx), (ay, by) = space._ball_interval(x, r), space._ball_interval(y, r)
        shift = 0.0
        if space.topology.kind == "circle":  # the multiple of c that brings y's arc nearest x's
            c = space.topology.circumference
            shift = c * round((ax + bx - ay - by) / (2.0 * c))
        balls += [(ax, bx), (ay + shift, by + shift)]
    mass = _ball_masses(space, balls)
    emp_best = -math.inf
    theory_at_best = math.inf
    worst = -math.inf
    witness = {}
    for (x, y), (ax, bx), (ay, by) in zip(pair_battery, balls[::2], balls[1::2]):
        d = space.distance(x, y)
        mx, my = mass(ax, bx), mass(ay, by)
        lo, hi = max(ax, ay), min(bx, by)  # the overlap, which cancels exactly
        diff = (mass(ax, lo) + mass(hi, bx)) - (mass(ay, lo) + mass(hi, by)) if lo < hi else mx - my
        emp = abs(diff) / (r * d)
        theory = (s_vol(params, r - d / 2.0) ** (params.N - 1.0)
                  / f_vol(params, r + d / 2.0)) * (mx + my) / r
        if emp > emp_best:
            emp_best, theory_at_best = emp, theory
        m = emp - theory
        if m > worst:
            worst = m
            witness = {"x": x, "y": y, "empirical": emp, "theoretical": theory}
    report = CurvatureReport(
        kind="lipschitz-modulus", K=params.K, N=params.N, max_violation=worst,
        witness=witness, tolerance=0.0,
        extra={"r": r, "empirical_sup": emp_best,
               "theory_at_sup": theory_at_best, "n_pairs": len(pair_battery)},
    )
    return emp_best, theory_at_best, report


def classify(space: Space1D, search_params: Sequence[CurvatureParams],
             seed: int = 0, tol: float | None = None) -> CurvatureReport | None:
    """The convexity report of the first candidate (ordered by K, then N)
    whose weight passes the battery, built once from seed; its K and N are
    that candidate.  Circle candidates with K > 0 additionally face the
    targeted obstruction search, which defeats any battery that missed a
    violation.  Returns None (not an exception) when every candidate fails,
    and raises when no candidate is given.
    """
    if not search_params:
        raise ValueError("no candidate (K, N) given: nothing to classify")
    if tol is None:
        tol = default_tolerance(space.grid_step)
    battery = default_triple_battery(space, seed=seed)
    for params in sorted(search_params, key=lambda p: (p.K, p.N)):
        if space.topology.kind == "circle" and params.K > 0.0:
            obs = circle_obstruction(space, params)
            if not obs.extra.get("anomaly", False) and obs.max_violation > tol:
                continue
        report = check_kn_convex(space, params, battery, tol=tol)
        if report.passed:
            return report
    return None
