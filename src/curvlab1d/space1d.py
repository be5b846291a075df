"""One-dimensional weighted metric measure spaces.

A space is a topology (line, half-line, interval of length l, circle of
radius r) carrying the measure m = exp(-f) * H^1 for a sampled weight f.
The weight is interpolated piecewise-linearly in f (log-linear in density),
which keeps the density positive and makes every ball measure an exact sum
of closed-form exponential-segment integrals: no quadrature error enters
the ball/annulus bookkeeping.

Unbounded topologies (line, half-line) carry a declared working window;
any operation that would leave the window raises WindowError instead of
extrapolating, because silent extrapolation would corrupt the growth scans
downstream.

Coordinates: half-line and interval use [0, L] / [0, l]; the circle uses
arc length in [0, 2*pi*r) with the arc metric.  Circle arcs stay unwrapped
(a ball around x is the one interval (x - r, x + r)); only `WeightFn`
wraps a coordinate, in `__call__` and `knots_in`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "WindowError",
    "Topology1D",
    "WeightFn",
    "Space1D",
    "RescaledSpace",
    "measure_ball",
    "boundary_measure",
    "rescale",
    "load_space",
    "space_to_dict",
]

_ENDPOINT_TOL = 1e-12


class WindowError(ValueError):
    """An operation tried to leave the declared working window."""


@dataclass(frozen=True)
class Topology1D:
    """One of line | halfline | interval(l) | circle(r)."""

    kind: str
    param: float | None = None  # interval length or circle radius

    def __post_init__(self):
        if self.kind not in ("line", "halfline", "interval", "circle"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.kind in ("interval", "circle"):
            if self.param is None or not 0.0 < self.param < math.inf:
                raise ValueError(f"{self.kind} needs a positive finite param, got {self.param}")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no param")

    @property
    def circumference(self) -> float:
        if self.kind != "circle":
            raise ValueError("circumference only defined for circles")
        return 2.0 * math.pi * self.param


def _seg_exp_integral(f0: float, f1: float, h: float) -> float:
    """Exact integral of exp(-f) over a segment of length h, f linear f0->f1."""
    if h <= 0.0:
        return 0.0
    df = f1 - f0
    if -1e-12 < df < 1e-12:
        return h * math.exp(-0.5 * (f0 + f1))
    if df > 0.0:  # from the lower end, by expm1: exp(-f0) - exp(-f1) cancels
        return h * math.exp(-f0) * -math.expm1(-df) / df
    return h * math.exp(-f1) * math.expm1(df) / df


@dataclass(frozen=True)
class WeightFn:
    """Sampled weight f, interpolated piecewise-linearly between samples.

    For circle spaces the samples are periodic: the segment from the last
    coordinate back to the first (plus the circumference) closes the loop.
    """

    coords: np.ndarray
    values: np.ndarray
    period: float | None = None  # circumference when periodic

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)
        if coords.ndim != 1 or coords.shape != values.shape or coords.size < 1:
            raise ValueError("coords and f values must be matching 1D arrays")
        if not np.all(np.isfinite(coords)):  # an infinite end flattens its segment's f
            raise ValueError("weight coords must be finite")
        if coords.size > 1 and not np.all(np.diff(coords) > 0):
            raise ValueError("weight coordinates must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("weight values must be finite")
        if self.period is not None:
            if coords[-1] - coords[0] >= self.period:
                raise ValueError("periodic samples must span less than one period")

    def __eq__(self, other):  # by the samples' values: == on numpy arrays is elementwise
        return (isinstance(other, WeightFn) and np.array_equal(self.coords, other.coords)
                and np.array_equal(self.values, other.values) and self.period == other.period)

    @staticmethod
    def from_callable(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                      step: float, period: float | None = None) -> "WeightFn":
        n = max(2, int(math.ceil((hi - lo) / step)) + 1)
        xs = np.linspace(lo, hi, n)
        return WeightFn(xs, np.asarray(fn(xs), dtype=float), period)

    def _extended(self) -> tuple[np.ndarray, np.ndarray]:
        if self.period is None:
            return self.coords, self.values
        xs = np.concatenate([self.coords, [self.coords[0] + self.period]])
        vs = np.concatenate([self.values, [self.values[0]]])
        return xs, vs

    def __call__(self, x):
        xs, vs = self._extended()
        if self.period is not None:
            x = np.mod(np.asarray(x, dtype=float) - xs[0], self.period) + xs[0]
        else:
            xq = np.asarray(x, dtype=float)
            if np.any(xq < xs[0] - _ENDPOINT_TOL) or np.any(xq > xs[-1] + _ENDPOINT_TOL):
                raise WindowError(
                    f"weight evaluated outside sampled range [{xs[0]}, {xs[-1]}]"
                )
        out = np.interp(x, xs, vs)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def knots_in(self, lo: float, hi: float) -> np.ndarray:
        """Sorted breakpoints of the interpolant inside (lo, hi), plus ends."""
        xs, _ = self._extended()
        if self.period is not None:
            base = xs[0]
            per = self.period
            k0 = math.floor((lo - base) / per)
            k1 = math.ceil((hi - base) / per) + 1
            cand = (xs[:-1][None, :] + per * np.arange(k0, k1)[:, None]).ravel()
        else:
            cand = xs
        inner = cand[(cand > lo + _ENDPOINT_TOL) & (cand < hi - _ENDPOINT_TOL)]
        return np.concatenate([[lo], np.sort(inner), [hi]])

    def integrate_density(self, lo: float, hi: float, scale: float = 1.0) -> float:
        """Exact integral of exp(-scale*f) over [lo, hi] (unwrapped coords)."""
        if hi <= lo:
            return 0.0
        pts = self.knots_in(lo, hi)
        vals = np.array([self(p) for p in pts]) * scale
        total = 0.0
        for i in range(len(pts) - 1):
            total += _seg_exp_integral(vals[i], vals[i + 1], pts[i + 1] - pts[i])
        return total

    def integrate_weighted(self, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
        """Exact integral of g*exp(-f) over [lo, hi] (unwrapped coords), g affine
        from g_lo to g_hi: h exp(-f0) (g0 A + g1 B) on each segment, taken from
        its end f0 = min f, with d = |df|, A = (expm1(-d) + d) / d^2 and
        B = (-expm1(-d) - d exp(-d)) / d^2, or their Taylor series where d < 1e-2."""
        if hi <= lo:
            return 0.0
        pts = self.knots_in(lo, hi)
        f = self(pts)
        g = g_lo + (g_hi - g_lo) * ((pts - lo) / (hi - lo))
        g0, g1 = np.where(f[1:] >= f[:-1], (g[:-1], g[1:]), (g[1:], g[:-1]))
        f0, d = np.minimum(f[:-1], f[1:]), np.abs(np.diff(f))
        ds, dl = np.minimum(d, 1e-2), np.maximum(d, 1e-2)  # the closed forms cancel below
        A = np.where(d < 1e-2, np.polyval([-1/5040, 1/720, -1/120, 1/24, -1/6, 1/2], ds),
                     (np.expm1(-dl) + dl) / (dl * dl))
        B = np.where(d < 1e-2, np.polyval([-1/840, 1/144, -1/30, 1/8, -1/3, 1/2], ds),
                     (-np.expm1(-dl) - dl * np.exp(-dl)) / (dl * dl))
        peak = math.exp(-f0.min())  # OverflowError where the density does, as in measure_ball
        return peak * float(np.sum(np.diff(pts) * np.exp(f0.min() - f0) * (g0 * A + g1 * B)))


@dataclass(frozen=True)
class Space1D:
    """Topology + weight + working resolution; measure m = exp(-f) H^1.  A
    weight of None is f = 0 over the window, or else over domain()."""

    topology: Topology1D
    weight: WeightFn | None = None
    grid_step: float = 1e-3
    window: tuple[float, float] | None = None  # line / halfline only

    def __post_init__(self):
        if not 0.0 < self.grid_step < math.inf:
            raise ValueError(f"grid_step must be positive and finite, got {self.grid_step}")
        kind = self.topology.kind
        if kind in ("line", "halfline"):
            if self.window is None:
                raise ValueError(f"{kind} spaces need a working window")
            if not -math.inf < self.window[0] < self.window[1] < math.inf:
                raise ValueError(f"window must be a finite nonempty interval, got {self.window}")
            if kind == "halfline" and abs(self.window[0]) > _ENDPOINT_TOL:
                raise ValueError("halfline window must start at 0")
        elif self.window is not None:
            raise ValueError(f"{kind} spaces take no window")
        lo, hi = self.window or self.domain()
        period = hi if kind == "circle" else None  # the circumference
        if self.weight is None:  # f = 0, on a circle one part in 1e9 short of a turn
            object.__setattr__(self, "weight", WeightFn(
                np.array([lo, hi * (1 - 1e-9) if period else hi]), np.zeros(2), period))
        if self.weight.period != period:
            raise ValueError(f"a {kind} weight's period must be {period}, got {self.weight.period}")
        cw = self.weight.coords  # samples cover a space with ends
        if not period and (cw[0] > lo + _ENDPOINT_TOL or cw[-1] < hi - _ENDPOINT_TOL):
            raise ValueError("weight samples must cover the "
                             + ("working window" if self.window else f"interval [{lo}, {hi}]"))

    # -- geometry ----------------------------------------------------------

    def domain(self) -> tuple[float, float]:
        """Coordinate range of the space (window for unbounded topologies)."""
        kind = self.topology.kind
        if kind == "line":
            return self.window
        if kind == "halfline":
            return (0.0, self.window[1])
        if kind == "interval":
            return (0.0, self.topology.param)
        return (0.0, self.topology.circumference)

    def contains(self, x: float) -> bool:
        lo, hi = self.domain()
        if self.topology.kind == "circle":
            return math.isfinite(x)  # coordinates wrap
        return lo - _ENDPOINT_TOL <= x <= hi + _ENDPOINT_TOL

    def distance(self, x: float, y: float) -> float:
        if self.topology.kind == "circle":
            c = self.topology.circumference
            d = abs(x - y) % c
            return min(d, c - d)
        return abs(x - y)

    def _own_ends(self) -> tuple[bool, bool]:
        """Whether the space itself stops at the low and the high end of
        domain(): both ends of an interval and 0 on a half-line.  The working
        window cuts a line at both ends and a half-line at its far end; a
        circle has no ends."""
        kind = self.topology.kind
        return kind in ("halfline", "interval"), kind == "interval"

    def is_domain_endpoint(self, y: float) -> bool:
        """Whether y is an end where the space itself stops (a window end is not)."""
        (lo, hi), (own_lo, own_hi) = self.domain(), self._own_ends()
        return ((own_lo and abs(y - lo) <= _ENDPOINT_TOL)
                or (own_hi and abs(y - hi) <= _ENDPOINT_TOL))

    def _ball_interval(self, x: float, r: float) -> tuple[float, float]:
        """Ball B_r(x) as one coordinate interval (unwrapped on a circle), cut
        at the space's own ends; a ball past a window end is a WindowError, a
        NaN or negative radius, or a centre outside the domain, a ValueError."""
        if not r >= 0.0:
            raise ValueError(f"radius must be >= 0, got {r}")
        if not self.contains(x):
            raise ValueError(f"center {x} outside the domain {self.domain()}")
        if self.topology.kind == "circle":
            c = self.topology.circumference
            if 2.0 * r >= c:
                return 0.0, c
            x = x % c
            return x - r, x + r
        (lo, hi), (own_lo, own_hi) = self.domain(), self._own_ends()
        a, b = x - r, x + r
        if (not own_lo and a < lo - _ENDPOINT_TOL) or (not own_hi and b > hi + _ENDPOINT_TOL):
            raise WindowError(f"ball B_{r}({x}) leaves the working window [{lo}, {hi}]")
        return (max(lo, a) if own_lo else a), (min(hi, b) if own_hi else b)

    def sphere_coords(self, x: float, r: float) -> list[float]:
        """The points at distance r from x, sorted: the ball's ends, less an
        end where the space itself stopped the ball short of r, so the ball's
        radius, centre and window checks hold here too.  At r = 0 and at a
        circle's antipode both directions reach one point."""
        lo, hi = self._ball_interval(x, r)
        if r == 0.0:
            return [lo]
        if self.topology.kind == "circle":
            c = self.topology.circumference
            if r > c / 2.0 + _ENDPOINT_TOL:
                return []
            if r >= c / 2.0 - _ENDPOINT_TOL:
                return [(x + r) % c]
            return sorted(((x - r) % c, (x + r) % c))
        (dlo, dhi), (own_lo, own_hi) = self.domain(), self._own_ends()
        cut_lo = own_lo and x - r < dlo - _ENDPOINT_TOL
        cut_hi = own_hi and x + r > dhi + _ENDPOINT_TOL
        return [y for y, cut in ((lo, cut_lo), (hi, cut_hi)) if not cut]

    def total_mass(self) -> float:
        lo, hi = self.domain()
        return self.weight.integrate_density(lo, hi)


@dataclass(frozen=True)
class RescaledSpace:
    """Pointed rescaling (d/scale) with the standard normalizing constant."""

    base: Space1D
    center: float
    scale: float
    normalization: float

    def ball(self, s: float) -> float:
        """Measure of the rescaled-metric ball of radius s around the center."""
        return measure_ball(self.base, self.center, self.scale * s) / self.normalization


# -- operations -------------------------------------------------------------

def measure_ball(space: Space1D, x: float, r: float) -> float:
    """m(B_r(x)): exact piecewise-exponential integral of the density."""
    return space.weight.integrate_density(*space._ball_interval(x, r))


def _ball_masses(space: Space1D, balls) -> Callable[[float, float], float]:
    """Mass between any two ends a <= b of the balls, `_ball_interval` pairs
    (lo, hi) unwrapped on a circle: their union is cut at every ball end, each
    piece is integrated once (gaps are skipped), and a ball or stretch is the
    sum of its pieces, never a difference of running totals (those cancel)."""
    ends, at = np.unique(np.asarray(balls, dtype=float), return_inverse=True)
    lo, hi = at.reshape(-1, 2).T  # where each ball opens and closes in `ends`
    depth = np.cumsum(np.bincount(lo, minlength=ends.size) - np.bincount(hi, minlength=ends.size))
    pieces = np.array([space.weight.integrate_density(a, b) if inside else 0.0
                       for a, b, inside in zip(ends[:-1], ends[1:], depth[:-1] > 0)])

    def mass(a: float, b: float) -> float:
        return float(np.sum(pieces[np.searchsorted(ends, a):np.searchsorted(ends, b)]))

    return mass


def boundary_measure(space: Space1D, x0: float, t: float) -> float:
    """Codimension-1 mass of the sphere of radius t around x0.

    Each interior sphere point y carries 2*exp(-f(y)); a domain endpoint
    carries exp(-f(y)).  This closed form is the shrinking-cover limit of
    the covering definition; the test suite pins it against that limit
    numerically before anything else relies on it.
    """
    if not (t > 0.0):
        raise ValueError(f"t must be > 0, got {t}")
    pts = space.sphere_coords(x0, t)
    if not pts:
        raise ValueError(f"sphere of radius {t} around {x0} is empty")
    total = 0.0
    for y in pts:
        w = math.exp(-space.weight(y))
        total += w if space.is_domain_endpoint(y) else 2.0 * w
    return total


def rescale(space: Space1D, x: float, r: float) -> RescaledSpace:
    """Pointed rescaled space with normalization int_{B_r(x)} (1 - d/r) dm,
    the exact integral of the tent over [x - a, x] and [x, x + b]: on a circle
    a = b = min(r, c/2), else (x - a, x + b) is the ball's one interval."""
    if not (r > 0.0):
        raise ValueError(f"scale must be > 0, got {r}")
    if not space.contains(x):
        raise ValueError(f"center {x} outside the domain {space.domain()}")
    if space.topology.kind == "circle":
        a = b = min(r, space.topology.circumference / 2.0)
    else:
        lo, hi = space._ball_interval(x, r)
        a, b = x - lo, hi - x
    total = (space.weight.integrate_weighted(x - a, x, 1.0 - a / r, 1.0)
             + space.weight.integrate_weighted(x, x + b, 1.0, 1.0 - b / r))
    if total <= 0.0:
        raise ValueError("normalization underflowed; weight support violated")
    return RescaledSpace(base=space, center=x, scale=r, normalization=total)


# -- JSON space description --------------------------------------------------

def space_to_dict(space: Space1D) -> dict:
    d = {
        "topology": space.topology.kind,
        "param": space.topology.param,
        "weight": {
            "coords": [float(v) for v in space.weight.coords],
            "f": [float(v) for v in space.weight.values],
        },
        "grid_step": space.grid_step,
    }
    if space.window is not None:
        d["window"] = [space.window[0], space.window[1]]
    return d


def _number(value, where: str) -> float:
    """float(value), or a schema error naming where the value came from."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the float range
        raise ValueError(f"{where} must be a number, got {value!r}") from None


def _known_fields(data: dict, fields: tuple[str, ...], where: str) -> None:
    """A schema error naming the first field of data that is not in fields."""
    if unknown := [name for name in data if name not in fields]:
        raise ValueError(f"{where}: unknown field {unknown[0]!r}")


def load_space(data: dict) -> Space1D:
    """Build a Space1D from a parsed JSON description.

    Schema: {"topology": "line"|"halfline"|"interval"|"circle",
             "param": l-or-r (interval/circle),
             "window": [a, b] (line/halfline),
             "weight": {"coords": [...], "f": [...]} (optional; default f = 0),
             "grid_step": h (optional; default 1e-3)}
    Only the JSON is read here: fields, value types and shapes ("param":
    null passes on a line).  Topology1D, Space1D and WeightFn judge the rest.
    """
    if not isinstance(data, dict):
        raise ValueError(f"cannot load a space from {type(data)!r}")
    _known_fields(data, ("topology", "param", "window", "weight", "grid_step"), "space description")

    if "topology" not in data:
        raise ValueError("space description: missing field 'topology'")
    param = data.get("param")
    if not isinstance(param, (int, float, type(None))):
        raise ValueError(f"space description: field 'param' must be a number, got {param!r}")
    topo = Topology1D(data["topology"], param if param is None else _number(param, "param"))
    window = data.get("window")
    if "window" in data:
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ValueError("space description: field 'window' must be [a, b]")
        window = tuple(_number(v, "space description: window entry") for v in window)

    grid_step = _number(data.get("grid_step", 1e-3), "space description: field 'grid_step'")

    weight = data.get("weight")
    if weight is not None:
        if not isinstance(weight, dict) or "coords" not in weight or "f" not in weight:
            raise ValueError("space description: field 'weight' must have 'coords' and 'f'")
        _known_fields(weight, ("coords", "f"), "space description: weight")
        try:
            coords = np.asarray(weight["coords"], dtype=float)
            fvals = np.asarray(weight["f"], dtype=float)
        except (TypeError, ValueError):
            raise ValueError("space description: weight 'coords' and 'f' must be number "
                             "lists") from None
        weight = WeightFn(coords, fvals, topo.circumference if topo.kind == "circle" else None)
    return Space1D(topology=topo, weight=weight, grid_step=grid_step, window=window)
