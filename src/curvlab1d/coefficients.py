"""Model coefficients for curvature-dimension comparisons.

Three closed-form families drive every inequality in the toolkit:

* ``sigma(t, params, theta)`` -- the distortion coefficient with sin /
  linear / sinh branches.  It returns ``math.inf`` in the conjugate-point
  regime ``K*theta**2 >= N*pi**2``; callers treat that as a flag, never as
  a number to combine.  Values are never NaN: a non-finite theta raises.
* ``s_vol(params, t)`` -- the model volume density (sin / linear / sinh in
  the radius, built from N-1 rather than N).
* ``f_vol(params, r)`` -- the antiderivative of ``s_vol**(N-1)``, computed
  by one 241-node tanh-sinh rule to about 1e-14 relative error.

s_vol and f_vol raise ValueError naming K, N and the radius where it is
not finite and >= 0 or their value overflows (never OverflowError or a hang).

sigma's rule for one theta -- the conjugate test, the branch and the
t-free denominator -- is ``_sigma_branch``, and its value at t is
``_sigma_value``; sigma is the two in a row, and the module keeps no
state.  The batched (K,N)-convexity battery in ``curvature`` takes the rule
once per plan length, then sigma's float operations once per distinct
argument (``_sigma_value`` itself on its rare seam and far-sinh rows).

Near the K = 0 seam the sin/sinh ratios cancel catastrophically, so for
``|K| * theta**2 / N < 1e-8`` sigma switches to the shared Taylor series of
both branches (the series is analytic in the signed argument).  Where
``sinh(x)`` overflows (x past about 710.48) the sinh ratio is taken as
``exp(-(1-t) x) * expm1(-2 t x) / expm1(-2 x)``, which is finite there.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from math import exp as _exp, expm1 as _expm1, inf as _INF, pi as _PI, sin as _sin
from math import sinh as _sinh, sqrt as _sqrt

import numpy as np

__all__ = ["CurvatureParams", "sigma", "s_vol", "f_vol", "conjugate_radius"]

# seam threshold for |K| theta^2 / N below which the series expansion is used
_SEAM = 1e-8

# sigma's branches, as _sigma_branch names them
CONJUGATE, LINEAR, SEAM, SIN, SINH, FAR = range(6)

# tanh-sinh rule on (-1, 1) (Takahashi & Mori 1974) for f_vol and branching;
# _DE_LEFT = (1 + x)/2 = 1/(1 + exp(-pi sinh t)) keeps its digits where x rounds to 1
_DE_H = 7.0 / 240.0
_DE_T = np.arange(-120, 121) * _DE_H
_DE_X = np.tanh(0.5 * math.pi * np.sinh(_DE_T))
_DE_W = _DE_H * 0.5 * math.pi * np.cosh(_DE_T) / np.cosh(0.5 * math.pi * np.sinh(_DE_T)) ** 2
_DE_LEFT = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(_DE_T)))


@dataclass(frozen=True)
class CurvatureParams:
    """Curvature bound K (1/length^2) and dimension bound N > 1."""

    K: float
    N: float

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError(f"K must be finite, got {self.K}")
        if not (math.isfinite(self.N) and self.N > 1.0):
            raise ValueError(f"N must be a finite number > 1, got {self.N}")


def _sigma_branch(params: CurvatureParams, theta: float) -> tuple[int, float, float]:
    """sigma's rule at theta, which no t enters: (branch, x, den).

    * CONJUGATE (K theta^2 >= N pi^2): sigma is inf.
    * LINEAR (K theta^2 == 0): sigma is t.
    * SEAM (|s| < 1e-8, s = K theta^2 / N): x is s itself, den the series
      denominator 1 - s/6 + s^2/120.
    * SIN, SINH: x = sqrt(|s|), den = sin(x) or sinh(x); sigma is
      sin(t x) / den or sinh(t x) / den.
    * FAR: sinh(x) overflows; den = expm1(-2 x) and sigma is
      exp(-(1-t) x) expm1(-2 t x) / den.
    """
    if theta < 0.0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    K, N = params.K, params.N
    kt2 = K * theta * theta
    if kt2 >= N * _PI * _PI:
        if theta == _INF:
            raise ValueError(f"theta must be finite, got {theta}")
        return CONJUGATE, _INF, _INF
    s = kt2 / N  # signed squared argument
    if s == 0.0:
        return LINEAR, 0.0, 1.0
    if abs(s) < _SEAM:
        # sin(t x)/sin(x) and sinh(t x)/sinh(x) share one series in s = +-x^2
        return SEAM, s, 1.0 - s / 6.0 + s * s / 120.0
    if s > 0.0:
        x = _sqrt(s)
        return SIN, x, _sin(x)
    x = _sqrt(-s)  # NaN for a NaN theta, and for K = 0 with theta = inf
    if not x < _INF:
        if not theta < _INF:
            raise ValueError(f"theta must be finite, got {theta}")
        raise ValueError(f"K theta^2 overflows (K = {K}, theta = {theta})")
    try:
        return SINH, x, _sinh(x)
    except OverflowError:
        return FAR, x, _expm1(-2.0 * x)


def _sigma_value(t: float, branch: int, x: float, den: float) -> float:
    """sigma^(t) from the rule (branch, x, den) that _sigma_branch gives."""
    if branch == SIN:
        return _sin(t * x) / den
    if branch == SINH:
        return _sinh(t * x) / den
    if branch == LINEAR:
        return t
    if branch == CONJUGATE:
        return _INF
    if branch == SEAM:
        return t * (1.0 - t * t * x / 6.0 + (t ** 4) * x * x / 120.0) / den
    return _exp(-((1.0 - t) * x)) * _expm1(-2.0 * t * x) / den


def sigma(t: float, params: CurvatureParams, theta: float) -> float:
    """Distortion coefficient sigma^(t)_{K,N}(theta).

    Returns math.inf iff K*theta^2 >= N*pi^2 (conjugate-point regime).
    Exactly t when K*theta^2 == 0.  Continuous in K across K = 0.  Raises
    ValueError unless 0 <= t <= 1 and theta is finite and >= 0.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0,1], got {t}")
    return _sigma_value(t, *_sigma_branch(params, theta))


def _s_vol(params: CurvatureParams, t: float) -> float:
    """s_vol without its checks: raises OverflowError where sinh overflows."""
    K, N = params.K, params.N
    if K == 0.0:
        return t
    if K > 0.0:
        c = math.sqrt(K / (N - 1.0))
        return math.sin(t * c) / c
    c = math.sqrt(-K / (N - 1.0))
    return math.sinh(t * c) / c


def s_vol(params: CurvatureParams, t: float) -> float:
    """Model volume density S_{K,N}(t); S(0) = 0 and S'(0) = 1.

    Raises ValueError, naming K, N and t, unless t and the value are finite."""
    if not 0.0 <= t < _INF:  # nan fails too
        raise ValueError(f"s_vol at t = {t!r} for K = {params.K!r}, N = {params.N!r}: "
                         "t must be finite and >= 0")
    with contextlib.suppress(OverflowError, ValueError):  # sinh overflowed; sin(inf)
        value = _s_vol(params, t)
        if value < _INF:
            return value
    raise ValueError(f"s_vol overflows at t = {t!r} for K = {params.K!r}, N = {params.N!r}")


def conjugate_radius(params: CurvatureParams) -> float:
    """First zero of s_vol for K > 0 (pi*sqrt((N-1)/K)), inf otherwise."""
    if params.K <= 0.0:
        return math.inf
    return math.pi * math.sqrt((params.N - 1.0) / params.K)


def _beyond_conjugate_radius(params: CurvatureParams, r: float) -> bool:
    """Whether r lies past the conjugate radius (by more than 1e-12 of it),
    where f_vol is undefined."""
    return r > conjugate_radius(params) * (1.0 + 1e-12)


def f_vol(params: CurvatureParams, r: float) -> float:
    """Integral of s_vol**(N-1) over [0, r], to about 1e-14 relative error.

    For K > 0, r must not pass the conjugate radius R = pi*sqrt((N-1)/K).
    Raises ValueError, naming K, N and r, unless r and the integral are finite.
    One tanh-sinh rule on panels [a, b] where s_vol rises to b: [0, r], or past
    R/2 [0, R/2] and [R - r, R/2].  For K < 0 near the top of the float range,
    rounding sqrt(-K/(N-1)) r costs up to |log F| * 3e-16.
    """
    if not 0.0 <= r < _INF:  # nan fails too
        raise ValueError(f"f_vol at r = {r!r} for K = {params.K!r}, N = {params.N!r}: "
                         "r must be finite and >= 0")
    if _beyond_conjugate_radius(params, r):
        raise ValueError(f"r={r} exceeds the conjugate radius {conjugate_radius(params)} "
                         f"for K={params.K}, N={params.N}")
    if r == 0.0:
        return 0.0
    p, b, widths = params.N - 1.0, r, r
    # s_vol(x)**p = x**p (1 + O(K x^2)): below 1e-16, K moves F by less than 1e-17
    K = params.K if abs(params.K) * r * r >= 1e-16 else 0.0
    # top = log s_vol(b); rel = log(s_vol / s_vol(b)) at each panel's nodes
    if K == 0.0:
        top, rel = math.log(r), np.log(_DE_LEFT)
    elif K < 0.0:
        c = math.sqrt(-K / p)
        z, em = c * r, math.expm1(-2.0 * c * r)  # log sinh z = z + log(-em / 2)
        top = z + math.log(-em) - math.log(2.0 * c)
        rel = np.log(np.expm1(-2.0 * z * _DE_LEFT) / em) - z * _DE_LEFT[::-1]
    else:
        c, half = math.sqrt(K / p), 0.5 * conjugate_radius(params)
        b, a = min(r, half), np.array([0.0, max(0.0, 2.0 * half - r)] if r > half else [0.0])
        widths, top = b - a, math.log(math.sin(c * b) / c)
        rel = np.log(np.sin(c * (a[:, None] + widths[:, None] * _DE_LEFT)) / math.sin(c * b))
    total = 0.5 * float(np.dot(widths, np.dot(np.exp(p * rel), _DE_W)))
    with contextlib.suppress(OverflowError, ValueError):  # log(0): F overflowed
        try:  # s_vol(b)**p keeps its digits, exp(p top) loses about |p top| ulps of them
            value = (b if K == 0.0 else _s_vol(params, b)) ** p * total
        except OverflowError:  # sinh or the power overflowed
            value = math.exp(p * top + math.log(total))
        if value < _INF:
            return value
    raise ValueError(f"f_vol overflows at r = {r!r} for K = {params.K!r}, N = {params.N!r}")
