"""Branching transport on the tripod and the failure of entropy K-convexity.

The tripod is the letter-"Y" graph: three segments glued at a single
branch point, with a constant density per edge.  Geodesics from the stem
(edge 0) to the two outer edges branch at the center at parameter-dependent
times, which is exactly what breaks K-convexity of the entropy.

Plan construction.  A scenario (a, b, eps, eta, beta, N) is realized by the
two-parameter family of constant-speed geodesics indexed by

    source s ~ U[eta/4, eta/2]   (distance from the center on the stem)
    crossing time tau ~ U[a + eps/4, a + 3 eps/4]   (independent of s)

going to target coordinate u = s (1 - tau)/tau on edge 1 (the "up" plan)
or edge 2 (the "down" plan).  Both plans share the same (s, tau) law, so
their time-t pushforwards agree exactly for t <= a and land on disjoint
edges for t >= a + eps.  The pushforward density at any time integrates in
closed form over tau (a log antiderivative), so entropies and the
dimensional functionals evaluate to quadrature accuracy, and the density
certificate is read at the density's breakpoints, with no ensemble binning
noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coefficients import _DE_W, _DE_X  # tanh-sinh: x log x at piece edges is fine
from .space1d import Space1D, Topology1D
from . import transport1d as tr

__all__ = [
    "InfeasibleScenarioError",
    "Tripod",
    "TripodPoint",
    "BranchingScenario",
    "PlanPair",
    "build_branching_plans",
    "entropy_along",
    "renyi_raw",
    "entropy_chain_inequality",
    "renyi_contradiction",
    "mixture_w2_correction",
]

_RENYI_TOL = 5e-3       # renyi_contradiction: the ratio reaches 2^(1/N) within this share
_MIXTURE_CELLS = 2048   # mixture_w2_correction: histogram cells per mixture law

class InfeasibleScenarioError(ValueError):
    """The tripod geometry cannot host the requested branching scenario."""


@dataclass(frozen=True)
class TripodPoint:
    """Point on a tripod: edge index and distance s from the center."""

    edge: int
    s: float

    def __post_init__(self):
        if self.edge not in (0, 1, 2):
            raise ValueError("edge must be 0, 1 or 2")
        if self.s < 0.0:
            raise ValueError("s must be >= 0")
        if self.s == 0.0 and self.edge != 0:
            object.__setattr__(self, "edge", 0)  # center aliases to edge 0


@dataclass(frozen=True)
class Tripod:
    """Three segments of given lengths glued at one branch point."""

    edge_lengths: tuple[float, float, float]
    densities: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.edge_lengths) != 3 or any(l <= 0 for l in self.edge_lengths):
            raise ValueError("need three positive edge lengths")
        if len(self.densities) != 3 or any(c <= 0 for c in self.densities):
            raise ValueError("need three positive edge densities")

    def check_point(self, p: TripodPoint):
        if p.s > self.edge_lengths[p.edge] + 1e-12:
            raise ValueError(f"point {p} beyond edge length")

    def distance(self, p: TripodPoint, q: TripodPoint) -> float:
        """Path metric of the tripod (through the center across edges)."""
        self.check_point(p)
        self.check_point(q)
        if p.edge == q.edge:
            return abs(p.s - q.s)
        return p.s + q.s

    def measure_ball(self, p: TripodPoint, r: float) -> float:
        """Mass of the metric ball of radius r around p."""
        if not r >= 0:  # a NaN radius too
            raise ValueError(f"radius must be >= 0, got {r!r}")
        self.check_point(p)
        total = 0.0
        for e in range(3):
            L, c = self.edge_lengths[e], self.densities[e]
            if e == p.edge:
                total += c * (min(L, p.s + r) - max(0.0, p.s - r))
            else:
                reach = r - p.s
                if reach > 0.0:
                    total += c * min(L, reach)
        return total

    @property
    def center(self) -> TripodPoint:
        return TripodPoint(0, 0.0)


@dataclass(frozen=True)
class BranchingScenario:
    """Timing/scale parameters of one branching experiment."""

    a: float      # common prefix fraction
    b: float      # early probe time, 0 < b < a
    eps: float    # branch window width, a + eps < 1
    eta: float    # spatial scale of the construction
    beta: float = 1.0
    N: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.b < self.a < self.a + self.eps < 1.0):
            raise ValueError("need 0 < b < a < a + eps < 1")
        if not self.eta > 0.0:
            raise ValueError("eta must be > 0")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not self.N > 1.0:
            raise ValueError("N must be > 1")

    def replace_eps(self, eps: float) -> "BranchingScenario":
        return BranchingScenario(self.a, self.b, eps, self.eta, self.beta, self.N)

    # derived construction windows
    @property
    def s_window(self) -> tuple[float, float]:
        return self.eta / 4.0, self.eta / 2.0

    @property
    def tau_window(self) -> tuple[float, float]:
        return self.a + self.eps / 4.0, self.a + 3.0 * self.eps / 4.0


class _HalfDensity:
    """Closed-form pushforward density of one plan half at time t.

    Mass beta distributed over (s, tau) ~ U[s_lo,s_hi] x U[tau_lo,tau_hi];
    a geodesic sits at y = s (tau - t)/tau: on the stem at v = y before it
    crosses, on its target edge at u = -y after.  Integrating the Jacobian
    over the tau-window, in the offset a = |tau - t|, gives the length
    density rho0 (a + t log a) on the stem and rho0 (t log a - a) on the
    target, taken between the window's offsets.  A side is a scalar sign
    (y = sign * its own coordinate) and an ordered pair of window ends.
    """

    def __init__(self, scenario: BranchingScenario, t: float):
        self.t = float(t)
        self.s_lo, self.s_hi = scenario.s_window
        self.tau_lo, self.tau_hi = scenario.tau_window
        self.rho0 = scenario.beta / ((self.s_hi - self.s_lo) * (self.tau_hi - self.tau_lo))

    def _side(self, side: str) -> tuple[float, float, float]:
        """(sign, near, far): the side's sign and the tau-window ends at the
        smaller and the larger offset |tau - t|."""
        if side == "stem":
            return 1.0, self.tau_lo, self.tau_hi
        if side == "target":
            return -1.0, self.tau_hi, self.tau_lo
        raise ValueError(f"side must be 'stem' or 'target', got {side!r}")

    def _at(self, side: str, s: float, tau: float) -> float:
        """Where the geodesic (s, tau) sits at time t, in the side's coordinate."""
        t = self.t
        return s * (1.0 - t / tau) if side == "stem" else s * (t - tau) / tau

    def side_density(self, side: str, x) -> np.ndarray:
        """Length density at the side's coordinates x (v on the stem, u on
        the target edge)."""
        t = self.t
        sign, near, far = self._side(side)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        # the tau-window as offsets from t, kept stable so that the log
        # arguments never cancel near the center
        lo_w, hi_w = sign * (near - t), sign * (far - t)
        if hi_w <= 0.0:
            return out
        if t <= 0.0:  # only the stem is left here: at rest, the source law itself
            ok = (x >= self.s_lo) & (x <= self.s_hi)
            out[ok] = self.rho0 * (self.tau_hi - self.tau_lo)
            return out
        ok = x > 0.0
        if side == "stem":  # past its support the stem divides by s_hi - v <= 0
            ok &= x < self.support(side)[1]
        xx = x[ok]
        y = sign * xx
        # the offsets a at which s = s_hi and s = s_lo reach x, clipped to
        # the window; s_lo reaches no stem point past itself
        small = np.maximum(lo_w, t * xx / (self.s_hi - y))
        big = np.where(y < self.s_lo,
                       np.minimum(hi_w, t * xx / np.maximum(self.s_lo - y, 1e-300)), hi_w)
        width = big - small
        pos = (width > 0.0) & (small > 0.0)
        res = np.zeros_like(xx)
        res[pos] = sign * width[pos] + t * (np.log(big[pos]) - np.log(small[pos]))
        out[ok] = self.rho0 * res
        return out

    def support(self, side: str) -> tuple[float, float]:
        sign, near, far = self._side(side)
        if sign * (far - self.t) <= 0.0:
            return 0.0, 0.0
        lo = max(0.0, self._at(side, self.s_lo, near))
        return lo, max(lo, self._at(side, self.s_hi, far))

    def _breaks(self, side: str) -> list[float]:
        lo, hi = self.support(side)
        # the corners of the (s, tau) window, and on the stem v = s_lo, where
        # the s_lo bound switches on
        cands = [self._at(side, s, tau) for s in (self.s_lo, self.s_hi)
                 for tau in (self.tau_lo, self.tau_hi)]
        if side == "stem":
            cands.append(self.s_lo)
        return sorted({lo, hi, *[c for c in cands if lo < c < hi]})

    def integrate(self, side: str, g: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of g(rho_length(y)) dy over the side's support.

        g must map arrays elementwise; double-exponential quadrature per
        smooth piece between breakpoints.  All pieces of the side are
        evaluated in one (pieces, nodes) array pass, each row summed on its
        own and the pieces accumulated in order, so the value is bit for bit
        that of one pass per piece.
        """
        pts = np.array(self._breaks(side))
        aa, bb = pts[:-1], pts[1:]
        keep = bb - aa > 1e-15
        if not keep.any():
            return 0.0
        aa, bb = aa[keep], bb[keep]
        mid = 0.5 * (aa + bb)
        half = 0.5 * (bb - aa)
        ys = mid[:, None] + half[:, None] * _DE_X
        sums = np.sum(_DE_W * g(self.side_density(side, ys)), axis=1)
        total = 0.0
        for h, s in zip(half.tolist(), sums.tolist()):
            total += h * s
        return total

    def sup_density(self, side: str) -> float:
        """Sup of the side's length density, read at its breakpoints: there
        it peaks, except on the target side while the geodesics still cross
        (tau_lo < t <= tau_hi; at tau_hi the sup is a limit at u -> 0+),
        which raises."""
        if side == "target" and self.tau_lo < self.t <= self.tau_hi:
            raise ValueError(f"the target density at t = {self.t!r}, in the crossing "
                             f"window, peaks between its breakpoints")
        return float(np.max(self.side_density(side, self._breaks(side))))


@dataclass(frozen=True)
class PlanPair:
    """Mirrored branching plans pi^u (edge 1) and pi^d (edge 2).

    Both halves carry the scenario's (source, crossing time) law; densities
    and entropies are evaluated from its closed-form pushforward.  A pair
    exists only where the tripod hosts the scenario (InfeasibleScenarioError
    otherwise), and it measures its own density certificate: the sups of
    d(e_b)# pi^d / dm and d(e_1)# pi^{u,d} / dm, and their max C.
    """

    tripod: Tripod
    scenario: BranchingScenario
    certificate: dict = field(init=False)

    def __post_init__(self):
        sc, (stem, up, down) = self.scenario, self.tripod.edge_lengths
        if sc.eps >= 1.0 - sc.a:
            raise InfeasibleScenarioError("branch window eps must be < 1 - a")
        s_hi = sc.s_window[1]
        tau_lo, tau_hi = sc.tau_window
        if not (0.0 < sc.a < tau_lo < tau_hi < sc.a + sc.eps):
            raise InfeasibleScenarioError("branch window does not straddle the center crossings")
        if s_hi > stem + 1e-12:
            raise InfeasibleScenarioError(f"source arc reaches {s_hi}, beyond stem length {stem}")
        u_reach = s_hi * (1.0 - tau_lo) / tau_lo
        if u_reach > min(up, down) + 1e-12:
            raise InfeasibleScenarioError(
                f"target arcs reach {u_reach}, beyond the outer edge lengths")
        # the two halves share one target length density at t = 1, so its
        # sup is read once and divided by each outer edge's density
        c_stem, c_up, c_dn = self.tripod.densities
        sup_b = self.half_density(sc.b).sup_density("stem") / c_stem
        sup_1 = self.half_density(1.0).sup_density("target")
        sup_1u, sup_1d = sup_1 / c_up, sup_1 / c_dn
        object.__setattr__(self, "certificate", {
            "sup_density_at_b": sup_b, "sup_density_up_at_1": sup_1u,
            "sup_density_down_at_1": sup_1d, "C": max(sup_b, sup_1u, sup_1d)})

    def half_density(self, t: float) -> _HalfDensity:
        return _HalfDensity(self.scenario, t)

    def support_gap_at(self, t: float) -> float:
        """Distance between the two target supports at time t (via center)."""
        hd = self.half_density(t)
        lo, hi = hd.support("target")
        return 2.0 * lo if hi > lo else math.inf


def build_branching_plans(tripod: Tripod, scenario: BranchingScenario) -> PlanPair:
    """Construct the mirrored plan pair; validates the geometry fits."""
    return PlanPair(tripod, scenario)


def _pieces_integral(pair: PlanPair, t: float, pieces,
                     integrand: Callable[[float, np.ndarray], np.ndarray]) -> float:
    """Sum over (side, edge, scale) pieces of int integrand(c_e, rho_hat) dy,
    rho_hat = scale * rho_len / c_e, with the integrand 0 where rho_hat is 0."""
    hd = pair.half_density(t)
    total = 0.0
    for side, edge, scale in pieces:
        c = pair.tripod.densities[edge]

        def g(rho_len: np.ndarray) -> np.ndarray:
            rh = scale * rho_len / c
            out = np.zeros_like(rh)
            pos = rh > 0.0
            out[pos] = integrand(c, rh[pos])
            return out

        total += hd.integrate(side, g)
    return total


def entropy_along(pair: PlanPair, t: float, which: str = "mixed") -> float:
    """Entropy of the normalized pushforward at time t against the tripod measure.

    which = "u" | "d": (e_t)# pi^{u,d} / beta.  which = "mixed": the
    half-half mixture; at disjoint-support times it satisfies
    Ent(mixed) = (Ent(u) + Ent(d))/2 - log 2 exactly.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0,1]")
    beta = pair.scenario.beta
    if which in ("u", "d"):
        pieces = [("stem", 0, 1.0 / beta), ("target", 1 if which == "u" else 2, 1.0 / beta)]
    elif which == "mixed":
        # stem parts of the two halves coincide: mixture density = rho_len/beta there
        pieces = [("stem", 0, 1.0 / beta), ("target", 1, 0.5 / beta), ("target", 2, 0.5 / beta)]
    else:
        raise ValueError("which must be 'u', 'd' or 'mixed'")
    return _pieces_integral(pair, t, pieces, lambda c, rh: c * rh * np.log(rh))


def renyi_raw(pair: PlanPair, t: float, which: str, N: float) -> float:
    """int rho^(1-1/N) dm of the unnormalized pushforward (mass beta)."""
    if not N > 1.0:
        raise ValueError("N must be > 1")
    expo = 1.0 - 1.0 / N
    if which in ("u", "d"):
        pieces = [("stem", 0, 1.0), ("target", 1 if which == "u" else 2, 1.0)]
    elif which == "mixed_sum":
        # int (rho_u + rho_d)^(1-1/N) dm; stem parts add, targets are disjoint
        pieces = [("stem", 0, 2.0), ("target", 1, 1.0), ("target", 2, 1.0)]
    else:
        raise ValueError("which must be 'u', 'd' or 'mixed_sum'")
    return _pieces_integral(pair, t, pieces, lambda c, rh: c * rh ** expo)


def entropy_chain_inequality(pair: PlanPair) -> dict:
    """Both sides of the branching entropy chain

        eps (log(eps / (10 m(B(x, eta/2)))) - log C)
            <= -(1 - a - eps) log 2 ((a-b)/(1-b) - a (a+eps-b)/3)

    with C the measured density certificate and m(B(x, eta/2)) the tripod
    ball mass at the branch point.  The right side is a fixed negative
    number while the left tends to 0 as eps -> 0, so for small eps the
    chain fails: that failure is the sought contradiction with entropy
    K-convexity under branching.
    """
    sc, tripod = pair.scenario, pair.tripod
    C = pair.certificate["C"]
    mball = tripod.measure_ball(tripod.center, sc.eta / 2.0)
    lhs = sc.eps * (math.log(sc.eps / (10.0 * mball)) - math.log(C))
    rhs = (-(1.0 - sc.a - sc.eps) * math.log(2.0)
           * ((sc.a - sc.b) / (1.0 - sc.b) - sc.a * (sc.a + sc.eps - sc.b) / 3.0))
    return {
        "eps": sc.eps,
        "lhs": lhs,
        "rhs": rhs,
        "C": C,
        "ball_mass": mball,
        "rhs_negative": rhs < 0.0,
        "chain_holds": lhs <= rhs,
        "contradiction": (lhs > rhs) and (rhs < 0.0),
    }


def renyi_contradiction(pair: PlanPair, N: float | None = None) -> dict:
    """Measured value of the dimensional-entropy chain at the scenario's eps.

    ratio = [eps/(eps+a-b) R_b + 2^(1/N-1) (a-b)/(a+eps-b) R_mix(a+eps)] / R_a
    tends to 2^(1/N) as eps -> 0; concavity of the dimensional functionals
    would force ratio <= 1, so reaching the threshold within _RENYI_TOL
    reproduces the contradiction.
    """
    sc = pair.scenario
    if N is None:
        N = sc.N
    gap = pair.support_gap_at(sc.a + sc.eps)
    if not gap > 0.0:
        raise AssertionError("target supports must be disjoint at a + eps")
    R_a = renyi_raw(pair, sc.a, "d", N)
    R_b = renyi_raw(pair, sc.b, "d", N)
    R_mix = renyi_raw(pair, sc.a + sc.eps, "mixed_sum", N)
    ratio = ((sc.eps / (sc.eps + sc.a - sc.b)) * R_b
             + 2.0 ** (1.0 / N - 1.0) * (sc.a - sc.b) / (sc.a + sc.eps - sc.b) * R_mix) / R_a
    threshold = 2.0 ** (1.0 / N)
    return {
        "eps": sc.eps,
        "N": N,
        "ratio": ratio,
        "threshold": threshold,
        "R_a": R_a,
        "R_b": R_b,
        "R_mix": R_mix,
        "contradiction": ratio >= threshold * (1.0 - _RENYI_TOL),
        "tol": _RENYI_TOL,
    }


def mixture_w2_correction(pair: PlanPair, K: float) -> dict:
    """|K|/2 * eps(a-b)/(a+eps-b)^2 * W2^2 between the time-b and time-(a+eps)
    mixtures, the curvature correction of the K != 0 chain.

    The two relevant edges unroll isometrically onto a line through the
    center (stem coordinates positive, target coordinates negative; both
    target edges see identical costs, so collapsing them is exact), and the
    distance is computed by the quantile transport path.
    """
    sc = pair.scenario
    hd_b = pair.half_density(sc.b)
    hd_e = pair.half_density(sc.a + sc.eps)
    v_lo, v_hi = hd_b.support("stem")
    u_lo, u_hi = hd_e.support("target")
    pad = 0.05 * max(v_hi, u_hi, 1e-6)
    lo, hi = -u_hi - pad, v_hi + pad
    line = Space1D(Topology1D("line"), grid_step=(hi - lo) / _MIXTURE_CELLS, window=(lo, hi))

    def sample(hd, side, a, b):  # (edges, density) of the side's law on [a, b], mass 1
        edges = np.linspace(a, b, _MIXTURE_CELLS + 1)
        dens = hd.side_density(side, 0.5 * (edges[:-1] + edges[1:]))
        return edges, dens / float(np.sum(dens * np.diff(edges)))

    nu_b = tr.ProbMeasure1D(line, *sample(hd_b, "stem", max(v_lo, 0.0), v_hi))
    e_e, d_e = sample(hd_e, "target", max(u_lo, 0.0), u_hi)
    # unroll targets to negative coordinates (mirror, reversed order)
    nu_e = tr.ProbMeasure1D(line, -e_e[::-1], d_e[::-1])
    dist = tr.w2(nu_b, nu_e)
    corr = abs(K) / 2.0 * sc.eps * (sc.a - sc.b) / (sc.a + sc.eps - sc.b) ** 2 * dist * dist
    envelope = abs(K) / 2.0 * sc.eps * (sc.a - sc.b) * sc.eta ** 2
    return {"w2": dist, "correction": corr, "envelope": envelope}
