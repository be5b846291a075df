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

from .coefficients import CurvatureParams, conjugate_radius, f_vol, s_vol
from .space1d import Space1D, WeightFn, WindowError, measure_ball, boundary_measure
from .curvature import (CurvatureReport, check_kn_convex, circle_obstruction,
                        default_triple_battery, default_tolerance)
from .branching import Tripod, TripodPoint

__all__ = [
    "DensityRatioTrace",
    "ClassificationVerdict",
    "bg_ratio_scan",
    "bg_boundary_check",
    "linear_growth_constant",
    "density_ratio_trace",
    "lipschitz_modulus",
    "classify",
]


@dataclass(frozen=True)
class DensityRatioTrace:
    """Trace of m(B_r(x))/r^k on a decreasing radius grid."""

    x: object             # coordinate or TripodPoint
    k: int
    r_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    threshold_factor: float
    in_mk: bool

    def rows(self):
        return list(zip(self.r_grid, self.ratios))


@dataclass(frozen=True)
class ClassificationVerdict:
    """Model identification plus the weight's verifying parameters."""

    model: object         # Topology1D
    weight: WeightFn
    kn_params: CurvatureParams | None
    admissible: bool
    report: CurvatureReport | None = None


def bg_ratio_scan(space: Space1D, x0: float, params: CurvatureParams,
                  r_grid: Sequence[float], tol: float = 1e-9) -> CurvatureReport:
    """Monotonicity of r -> m(B_r(x0)) / F(r); margin = worst increase."""
    rs = [float(r) for r in r_grid]
    if len(rs) < 2:
        raise ValueError("r_grid needs at least two radii")
    if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ValueError("r_grid must be increasing")
    conj = conjugate_radius(params)
    if rs[-1] > conj * (1.0 + 1e-12):
        raise ValueError(f"radius {rs[-1]} beyond the conjugate radius {conj}")
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
        grid_step=space.grid_step,
        extra={"x0": x0, "r_grid": rs, "ratios": ratios},
    )


def bg_boundary_check(space: Space1D, x0: float, params: CurvatureParams,
                      t_grid: Sequence[float], tol: float = 0.0) -> CurvatureReport:
    """Boundary-measure bound: m_{-1}(dB_t) <= 2*5^(N-1)*m(B_t)*S(t)^(N-1)/F(t)."""
    if len(t_grid) == 0:
        raise ValueError("t_grid is empty: no radius to check")
    N = params.N
    worst = -math.inf
    witness = {}
    slacks = []
    for t in t_grid:
        t = float(t)
        lhs = boundary_measure(space, x0, t)
        rhs = (2.0 * 5.0 ** (N - 1.0) * measure_ball(space, x0, t)
               * s_vol(params, t) ** (N - 1.0) / f_vol(params, t))
        slacks.append(rhs - lhs)
        m = lhs - rhs
        if m > worst:
            worst = m
            witness = {"t": t, "lhs": lhs, "rhs": rhs, "margin": m}
    return CurvatureReport(
        kind="bg-boundary-measure", K=params.K, N=params.N, max_violation=worst,
        witness=witness, tolerance=tol, grid_step=space.grid_step,
        extra={"x0": x0, "t_grid": [float(t) for t in t_grid],
               "min_slack": min(slacks)},
    )


def linear_growth_constant(space: Space1D, y: float, R: float,
                           s_grid: Sequence[float], params: CurvatureParams,
                           n_centers: int = 200) -> tuple[float, CurvatureReport]:
    """Empirical sup of m(B_s(x))/s over x in B_R(y), plus the growth envelope
    2*5^(N-1) * sup_t F'(t) m(B_t(y)) / F(t); the empirical value must stay
    below the envelope.
    """
    if not R > 0.0:
        raise ValueError("R must be > 0")
    ss = [float(s) for s in s_grid]
    if any(not 0.0 < s <= 1.0 for s in ss):
        raise ValueError("s_grid must lie in (0, 1]")
    lo, hi = space.domain()
    xs = np.linspace(max(lo, y - R), min(hi, y + R), n_centers)
    emp = -math.inf
    emp_w = {}
    skipped = 0
    for x in xs:
        for s in ss:
            try:
                val = measure_ball(space, float(x), s) / s
            except WindowError:
                skipped += 1
                continue
            if val > emp:
                emp = val
                emp_w = {"x": float(x), "s": s, "value": val}
    if skipped == len(xs) * len(ss):
        raise ValueError(f"nothing checked: all {skipped} (centre, s) pairs have "
                         f"B_s(x) outside the window")
    conj = conjugate_radius(params)
    t_hi = min(R, 0.95 * conj)
    t_grid = np.linspace(t_hi / 50.0, t_hi, 50)
    env = 0.0
    for t in t_grid:
        try:
            mb = measure_ball(space, y, float(t))
        except WindowError:
            break
        env = max(env, s_vol(params, float(t)) ** (params.N - 1.0) * mb / f_vol(params, float(t)))
    envelope = 2.0 * 5.0 ** (params.N - 1.0) * env
    report = CurvatureReport(
        kind="linear-growth", K=params.K, N=params.N,
        max_violation=emp - envelope, witness=emp_w, tolerance=0.0,
        grid_step=space.grid_step,
        extra={"empirical_C": emp, "envelope": envelope, "y": y, "R": R,
               "skipped_pairs": skipped},
    )
    return emp, report


def density_ratio_trace(space, x, k: int, r_grid: Sequence[float],
                        threshold_factor: float = 0.1) -> DensityRatioTrace:
    """Ratios m(B_r(x))/r^k on a decreasing r_grid (Space1D or Tripod).

    in_mk flags min ratio < threshold_factor * max ratio; a finite trace
    can only approximate the liminf, so the threshold is reported.
    """
    rs = [float(r) for r in r_grid]
    if any(r2 >= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ValueError("r_grid must be decreasing")
    if isinstance(space, Tripod):
        if not isinstance(x, TripodPoint):
            raise ValueError("tripod traces need a TripodPoint")
        ratios = [space.measure_ball(x, r) / r ** k for r in rs]
        xdesc = {"edge": x.edge, "s": x.s}
    else:
        if rs[-1] < 10.0 * space.grid_step * (1.0 - 1e-12):
            raise ValueError("radii must stay >= 10 * grid_step")
        ratios = [measure_ball(space, x, r) / r ** k for r in rs]
        xdesc = x
    # liminf proxy: the ratio at the smallest sampled radius (a plain min
    # would misflag traces that diverge as r shrinks)
    return DensityRatioTrace(
        x=xdesc, k=k, r_grid=tuple(rs), ratios=tuple(ratios),
        threshold_factor=threshold_factor,
        in_mk=ratios[-1] < threshold_factor * max(ratios),
    )


def lipschitz_modulus(space: Space1D, params: CurvatureParams, r: float,
                      pair_battery: Sequence[tuple[float, float]]
                      ) -> tuple[float, float, CurvatureReport]:
    """Empirical |m(B_r(x)) - m(B_r(y))| / (r d(x,y)) against the comparison
    bound (1/r) F'(r - d/2)/F(r + d/2) (m(B_r(x)) + m(B_r(y))) per pair.
    """
    if not r > 2.0 * space.grid_step:
        raise ValueError("need r > 2 * grid_step")
    emp_best = -math.inf
    theory_at_best = math.inf
    worst = -math.inf
    witness = {}
    for x, y in pair_battery:
        d = space.distance(x, y)
        if not 0.0 < d < r / 2.0:
            raise ValueError(f"pair ({x}, {y}) must be within distance r/2")
        mx = measure_ball(space, x, r)
        my = measure_ball(space, y, r)
        emp = abs(mx - my) / (r * d)
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
        witness=witness, tolerance=0.0, grid_step=space.grid_step,
        extra={"r": r, "empirical_sup": emp_best,
               "theory_at_sup": theory_at_best, "n_pairs": len(pair_battery)},
    )
    return emp_best, theory_at_best, report


def classify(space: Space1D, search_params: Sequence[CurvatureParams],
             seed: int = 0, tol: float | None = None) -> ClassificationVerdict:
    """Identify the model (exact for our descriptors) and the first
    candidate (ordered by K, then N) whose weight passes the convexity
    battery.  Circle candidates with K > 0 additionally face the targeted
    obstruction search, which defeats any battery that missed a violation.
    Returns a non-admissible verdict (not an exception) when every
    candidate fails.
    """
    if tol is None:
        tol = default_tolerance(space.grid_step)
    battery = default_triple_battery(space, seed=seed)
    ordered = sorted(search_params, key=lambda p: (p.K, p.N))
    for params in ordered:
        if space.topology.kind == "circle" and params.K > 0.0:
            obs = circle_obstruction(space, params)
            if not obs.extra.get("anomaly", False) and obs.max_violation > tol:
                continue
        report = check_kn_convex(space.weight, space, params, battery, tol=tol, seed=seed)
        if report.passed:
            return ClassificationVerdict(
                model=space.topology, weight=space.weight, kn_params=params,
                admissible=True, report=report,
            )
    return ClassificationVerdict(
        model=space.topology, weight=space.weight, kn_params=None,
        admissible=False, report=None,
    )
