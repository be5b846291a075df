"""Exact one-dimensional optimal transport on Space1D.

Measures are histograms: strictly increasing cell edges with a constant
H^1-density per cell.  Their quantile functions are piecewise affine with
explicit breakpoints (`quantile` returns exactly that graph), so W2,
displacement interpolation and the entropy functionals evaluate by exact
piecewise formulas (Simpson on each affine piece is exact for the
quadratic integrand); no sampling error enters the curvature margins
downstream.

This module alone decides how a pair is coupled: `_coupling` builds the
monotone coupling once, as two quantile graphs, and `w2`,
`displacement_interpolate` and `entropies_along` all read it, so a
curvature check solves each pair once.

Circle transport minimizes the line formula over the cumulative-mass
shift of the target quantile (periodically extended in both windings).
The unrolled cost dominates the arc cost, the optimal plan leaves some
point uncrossed, and the shift objective is convex for the squared cost
(Delon, Salomon & Sobolevski 2010), so the first minimum over a grid of
>= 256 shifts per winding is found by derivative-sign bisection (about
18 objective evaluations) and then refined by golden section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .space1d import Space1D

__all__ = [
    "ProbMeasure1D",
    "QuantileFn",
    "quantile",
    "w2",
    "displacement_interpolate",
    "entropy",
    "renyi",
    "entropies_along",
    "uniform_measure",
    "measure_from_density",
    "measure_from_atoms",
]

_CIRCLE_CUTS = 256
_ATOM_WIDTH = 1e-4


@dataclass(frozen=True)
class ProbMeasure1D:
    """Probability density w.r.t. H^1 on a Space1D, as a cell histogram."""

    space: Space1D
    edges: np.ndarray    # (n+1,) strictly increasing coordinates
    density: np.ndarray  # (n,) H^1-density per cell, >= 0

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "density", dens)
        if edges.ndim != 1 or dens.ndim != 1 or len(edges) != len(dens) + 1:
            raise ValueError("edges must be one longer than density")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        mass = float(np.sum(dens * np.diff(edges)))
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"total mass must be 1 within 1e-9, got {mass}")

    @property
    def support_window(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    def cell_masses(self) -> np.ndarray:
        return self.density * np.diff(self.edges)

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start, end, mass) arrays of the positive-density cells."""
        masses = self.cell_masses()
        keep = masses > 0.0
        return self.edges[:-1][keep], self.edges[1:][keep], masses[keep]


def uniform_measure(space: Space1D, lo: float, hi: float) -> ProbMeasure1D:
    if not hi > lo:
        raise ValueError("uniform measure needs hi > lo")
    return ProbMeasure1D(space, np.array([lo, hi]), np.array([1.0 / (hi - lo)]))


def measure_from_density(space: Space1D, fn: Callable[[np.ndarray], np.ndarray],
                         lo: float, hi: float, n_cells: int | None = None) -> ProbMeasure1D:
    """Histogram a callable density on [lo, hi] by midpoint cell averages."""
    if n_cells is None:
        n_cells = max(8, int(math.ceil((hi - lo) / space.grid_step)))
    edges = np.linspace(lo, hi, n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dens = np.maximum(np.asarray(fn(mids), dtype=float), 0.0)
    mass = float(np.sum(dens * np.diff(edges)))
    if mass <= 0:
        raise ValueError("density integrates to zero")
    return ProbMeasure1D(space, edges, dens / mass)


def measure_from_atoms(space: Space1D, locations: Sequence[float],
                       masses: Sequence[float], width: float = _ATOM_WIDTH) -> ProbMeasure1D:
    """Atoms mollified to uniform bumps of the given width (default 1e-4)."""
    locs = np.asarray(locations, dtype=float)
    ms = np.asarray(masses, dtype=float)
    if np.any(ms <= 0):
        raise ValueError("atom masses must be positive")
    ms = ms / ms.sum()
    order = np.argsort(locs)
    locs, ms = locs[order], ms[order]
    edges = [locs[0] - width / 2.0]
    dens = []
    for i, (x, m) in enumerate(zip(locs, ms)):
        a, b = x - width / 2.0, x + width / 2.0
        if a < edges[-1] - 1e-15:
            raise ValueError("atoms closer than the mollification width")
        if a > edges[-1] + 1e-15:
            edges.append(a)
            dens.append(0.0)
        edges.append(b)
        dens.append(m / width)
    return ProbMeasure1D(space, np.array(edges), np.array(dens))


# -- quantile machinery ------------------------------------------------------

def _breakpoints(mu: ProbMeasure1D) -> tuple[np.ndarray, np.ndarray]:
    """(U, X) anchors of the piecewise-affine quantile graph.

    Repeated U values with distinct X encode jumps across zero-density
    cells; they carry no u-mass.
    """
    masses = mu.cell_masses()
    U = np.concatenate([[0.0], np.cumsum(masses)])
    U[-1] = 1.0  # pin the top against float drift
    return U, mu.edges.copy()


def _eval_quantile(U: np.ndarray, X: np.ndarray, q) -> np.ndarray:
    """Q(u) = inf{x : CDF(x) >= u}, vectorized over q in [0, 1]."""
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


@dataclass(frozen=True)
class QuantileFn:
    """Monotone u -> coordinate map (inverse CDF) on its breakpoint graph."""

    u: np.ndarray
    x: np.ndarray

    def __call__(self, q):
        res = _eval_quantile(self.u, self.x, q)
        return float(res[0]) if np.ndim(q) == 0 else res


def quantile(mu: ProbMeasure1D) -> QuantileFn:
    """Exact quantile function of mu: its piecewise-affine breakpoint graph."""
    return QuantileFn(*_breakpoints(mu))


def _affine_ends(U, X, ua, ub):
    """Values at (ua, ub) of the affine quantile piece covering (ua, ub).

    The piece is located by its left end: the midpoint of a piece one ulp
    wide below 1 rounds to 1 and would select a zero-width piece between
    repeated anchors there.
    """
    k = np.searchsorted(U, ua, side="right") - 1
    k = np.clip(k, 0, len(U) - 2)
    du = U[k + 1] - U[k]
    slope = (X[k + 1] - X[k]) / du
    return X[k] + slope * (ua - U[k]), X[k] + slope * (ub - U[k])


def _merged_pieces(bp0, bp1):
    """(du, a0, b0, a1, b1) on the merged u-grid of two quantile graphs.

    Both quantiles are affine on each piece (ua, ub) of the merged grid:
    du = ub - ua, and a*, b* are their values at ua and ub.
    """
    U0, X0 = bp0
    U1, X1 = bp1
    mu = np.unique(np.concatenate([U0, U1]))
    ua, ub = mu[:-1], mu[1:]
    keep = ub > ua
    ua, ub = ua[keep], ub[keep]
    a0, b0 = _affine_ends(U0, X0, ua, ub)
    a1, b1 = _affine_ends(U1, X1, ua, ub)
    return ub - ua, a0, b0, a1, b1


def _w2sq_line_bp(bp0, bp1) -> float:
    """Exact integral of (Q0 - Q1)^2 du from the two breakpoint graphs."""
    du, a0, b0, a1, b1 = _merged_pieces(bp0, bp1)
    da, db = a0 - a1, b0 - b1
    dm = 0.5 * (da + db)
    return float(np.sum(du / 6.0 * (da * da + 4.0 * dm * dm + db * db)))


def _extended_bp(mu: ProbMeasure1D) -> tuple[np.ndarray, np.ndarray]:
    """Quantile anchors over u in [-1, 2]: Q(u +- 1) = Q(u) +- circumference.

    Both windings are needed because the optimal shift may route mass
    backward through the cut; jump anchors at the integers carry the graph
    across the uncovered arc of each period.
    """
    U, X = _breakpoints(mu)
    circ = mu.space.topology.circumference
    return (np.concatenate([U - 1.0, [0.0], U[1:], [1.0], U[1:] + 1.0]),
            np.concatenate([X - circ, [X[0]], X[1:], [X[0] + circ], X[1:] + circ]))


def _eval_quantile_right(U: np.ndarray, X: np.ndarray, q: float) -> float:
    """Right-limit of the quantile graph at q (start of the next segment)."""
    idx = int(np.searchsorted(U, q, side="right"))
    k = min(max(idx - 1, 0), len(U) - 2)
    du = U[k + 1] - U[k]
    if du <= 0.0:
        return float(X[k + 1])
    return float(X[k] + (q - U[k]) / du * (X[k + 1] - X[k]))


def _shifted_bp(ext: tuple[np.ndarray, np.ndarray],
                alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Anchors of u -> Q_ext(u + alpha) over u in [0, 1], from `_extended_bp`.

    The optimal shift generically lands on a mass breakpoint (the
    objective kinks there), so boundary anchors can coincide with real
    anchors up to float noise.  Anchors degenerate in BOTH coordinates
    are collapsed; jump anchors (du = 0 but dx > 0) are always kept.
    """
    Ue, Xe = ext
    lo, hi = alpha, alpha + 1.0
    mask = (Ue > lo) & (Ue < hi)
    U = np.concatenate([[0.0], Ue[mask] - alpha, [1.0]])
    x_lo = _eval_quantile_right(Ue, Xe, lo)
    x_hi = float(_eval_quantile(Ue, Xe, np.array([hi]))[0])
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


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, a: float, b: float, iters: int = 80) -> tuple[float, float]:
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _circle_cut(space: Space1D, mu0: ProbMeasure1D, mu1: ProbMeasure1D,
                n_cuts: int = _CIRCLE_CUTS) -> tuple[float, float]:
    """(W2^2, best shift) minimizing over the cumulative-mass shift alpha.

    The shifted-quantile objective J(alpha) = int (Q0(u) - Q1_ext(u+alpha))^2
    is convex in alpha for the squared cost, so bisection on the sign of
    its forward difference over 2 * n_cuts grid shifts finds the first grid
    minimum (the one a full scan's argmin picks, ties included) in about
    2 log2(2 n_cuts) evaluations, and golden section refines it within one
    grid step (a spatial cut scan can strand in the wrong basin for
    multimodal atom layouts).
    """
    bp0 = _breakpoints(mu0)
    ext1 = _extended_bp(mu1)

    def obj(alpha: float) -> float:
        return _w2sq_line_bp(bp0, _shifted_bp(ext1, alpha))

    shifts = np.linspace(-1.0, 1.0, 2 * n_cuts, endpoint=False)
    vals = {}

    def grid_val(i: int) -> float:
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
    a_best, v_best = _golden_min(obj, max(shifts[k] - step, -1.0),
                                 min(shifts[k] + step, 1.0 - 1e-12))
    if grid_val(k) < v_best:
        a_best, v_best = shifts[k], vals[k]
    return v_best, a_best


def _check_same_space(mu0: ProbMeasure1D, mu1: ProbMeasure1D):
    if mu0.space is not mu1.space and mu0.space != mu1.space:
        raise ValueError("measures live on different spaces")


def _coupling(space: Space1D, mu0: ProbMeasure1D, mu1: ProbMeasure1D):
    """(W2, bp0, bp1): the monotone coupling of a pair as two quantile graphs.

    On a circle one cut picks the mass shift alpha and bp1 is the target
    graph shifted by it; W2 is the cost of exactly this coupling.
    """
    _check_same_space(mu0, mu1)
    bp0 = _breakpoints(mu0)
    if space.topology.kind == "circle":
        v, alpha = _circle_cut(space, mu0, mu1)
        bp1 = _shifted_bp(_extended_bp(mu1), alpha)
    else:
        bp1 = _breakpoints(mu1)
        v = _w2sq_line_bp(bp0, bp1)
    return math.sqrt(max(v, 0.0)), bp0, bp1


def w2(space: Space1D, mu0: ProbMeasure1D, mu1: ProbMeasure1D) -> float:
    """L^2-Wasserstein distance via monotone (quantile) coupling."""
    return _coupling(space, mu0, mu1)[0]


# -- displacement interpolation ----------------------------------------------

def _interpolant_segments(bp0, bp1, t: float):
    """Uniform segments (start, end, mass) of the time-t displacement measure."""
    du, a0, b0, a1, b1 = _merged_pieces(bp0, bp1)
    return (1.0 - t) * a0 + t * a1, (1.0 - t) * b0 + t * b1, du


def _bin_segments(xs, xe, masses, lo, hi, step):
    """Mass-conservative histogram of uniform segments onto an aligned grid."""
    lo_al = math.floor(lo / step) * step
    hi_al = math.ceil(hi / step) * step
    n = max(1, int(round((hi_al - lo_al) / step)))
    edges = lo_al + step * np.arange(n + 1)
    out = np.zeros(n)
    for s, e, m in zip(xs, xe, masses):
        if m <= 0.0:
            continue
        if e - s <= 1e-300:
            k = min(max(int((0.5 * (s + e) - lo_al) / step), 0), n - 1)
            out[k] += m
            continue
        rho = m / (e - s)
        k0 = min(max(int((s - lo_al) / step), 0), n - 1)
        k1 = min(max(int((e - lo_al) / step), 0), n - 1)
        if k0 == k1:
            out[k0] += m
            continue
        out[k0] += rho * (edges[k0 + 1] - s)
        out[k1] += rho * (e - edges[k1])
        if k1 > k0 + 1:
            out[k0 + 1:k1] += rho * step
    return edges, out


def displacement_interpolate(space: Space1D, mu0: ProbMeasure1D, mu1: ProbMeasure1D,
                             t: float) -> ProbMeasure1D:
    """Pushforward of u -> (1-t) Q0(u) + t Q1(u), re-binned onto the space grid."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0,1], got {t}")
    _, bp0, bp1 = _coupling(space, mu0, mu1)
    xs, xe, masses = _interpolant_segments(bp0, bp1, t)
    if space.topology.kind == "circle":
        # wrap segments back onto [0, circ), splitting mass by piece length
        xs_w, xe_w, ms_w = [], [], []
        for s, e, m in zip(xs, xe, masses):
            pieces = _circle_split(space, s, e)
            width = sum(b - a for a, b in pieces)
            for a, b in pieces:
                xs_w.append(a), xe_w.append(b)
                ms_w.append(m if len(pieces) == 1 else m * (b - a) / width)
        edges, hist = _bin_segments(np.array(xs_w), np.array(xe_w), np.array(ms_w),
                                    0.0, space.topology.circumference, space.grid_step)
    else:
        edges, hist = _bin_segments(xs, xe, masses, float(np.min(xs)), float(np.max(xe)),
                                    space.grid_step)
    total = float(np.sum(hist))
    if abs(total - 1.0) > 1e-8:
        raise AssertionError(f"interpolant lost mass: total {total}")
    dens = hist / (np.diff(edges) * total)
    return ProbMeasure1D(space, edges, dens)


# -- entropy functionals ------------------------------------------------------

def _circle_split(space: Space1D, lo: float, hi: float):
    """Split an unwrapped circle interval into in-range pieces."""
    circ = space.topology.circumference
    lo_m = lo % circ
    shift = lo_m - lo
    hi_m = hi + shift
    if hi_m <= circ + 1e-12:
        return [(lo_m, min(hi_m, circ))]
    return [(lo_m, circ), (0.0, hi_m - circ)]


def _segment_pieces(space: Space1D, s: float, e: float):
    if space.topology.kind == "circle":
        return _circle_split(space, s, e)
    return [(s, e)]


def entropy_of_segments(space: Space1D, xs, xe, masses) -> float:
    """Ent(mu | m) for a disjoint union of uniform segments (exact).

    Sliver segments with negligible mass (float-noise artifacts of merged
    breakpoint grids) contribute nothing in the limit and are skipped; a
    zero-width segment carrying real mass is a genuine atom and gives inf.
    """
    total = 0.0
    w = space.weight
    for s, e, m in zip(xs, xe, masses):
        if m <= 1e-12:
            continue
        width = e - s
        if width <= 1e-300:
            return math.inf
        rho = m / width
        total += m * math.log(rho)
        for a, b in _segment_pieces(space, s, e):
            pts = w.knots_in(a, b)
            vals = np.array([w(p) for p in pts])
            total += rho * float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(pts)))
    return total


def entropy(mu: ProbMeasure1D, space: Space1D) -> float:
    """Relative entropy of mu against m = exp(-f) H^1 (0 log 0 = 0)."""
    xs, xe, masses = mu.segments()
    return entropy_of_segments(space, xs, xe, masses)


def entropies_along(space: Space1D, mu0: ProbMeasure1D, mu1: ProbMeasure1D,
                    ts: Sequence[float]) -> tuple[float, list[float]]:
    """(W2, entropies of the displacement interpolants at the times ts).

    Evaluated on the exact interpolant segments (not the re-binned grid) so
    no histogramming bias enters; endpoints go through the same formula at
    t = 0, 1.  The pair is coupled once for the distance and every time.
    """
    dist, bp0, bp1 = _coupling(space, mu0, mu1)
    return dist, [entropy_of_segments(space, *_interpolant_segments(bp0, bp1, t))
                  for t in ts]


def renyi_of_segments(space: Space1D, xs, xe, masses, N: float) -> float:
    if N <= 1.0:
        raise ValueError("N must be > 1")
    acc = 0.0
    w = space.weight
    for s, e, m in zip(xs, xe, masses):
        if m <= 1e-12:
            continue
        rho = m / (e - s)
        pw = rho ** (1.0 - 1.0 / N)
        for a, b in _segment_pieces(space, s, e):
            acc += pw * w.integrate_density(a, b, scale=1.0 / N)
    return N - N * acc


def renyi(mu: ProbMeasure1D, space: Space1D, N: float) -> float:
    """Dimensional entropy N + int U_N(rho_m) dm with U_N(r) = -N r^(1-1/N)."""
    xs, xe, masses = mu.segments()
    return renyi_of_segments(space, xs, xe, masses, N)
