import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from curvlab1d import coefficients
from curvlab1d.coefficients import CurvatureParams, conjugate_radius, f_vol, s_vol, sigma

from oracles import f_vol_hp, s_vol_hp, sigma_hp, trapezoid_refined


def test_sigma_zero_curvature_is_exactly_t():
    params = CurvatureParams(0.0, 2.0)
    for t in (0.0, 0.125, 0.37, 0.5, 1.0):
        assert sigma(t, params, 5.0) == t
    # theta = 0 also lands on the linear branch
    assert sigma(0.25, CurvatureParams(3.0, 2.0), 0.0) == 0.25


def test_sigma_endpoints():
    for K, N, theta in [(1.0, 2.0, 1.0), (-2.0, 3.0, 2.5), (0.5, 1.5, 0.7)]:
        params = CurvatureParams(K, N)
        assert sigma(0.0, params, theta) == 0.0
        assert sigma(1.0, params, theta) == pytest.approx(1.0, abs=1e-15)


def test_sigma_conjugate_regime_is_inf():
    assert math.isinf(sigma(0.5, CurvatureParams(10.0, 2.0), 3.0))
    # boundary case K theta^2 == N pi^2 (theta = pi makes both sides
    # the same float expression)
    assert math.isinf(sigma(0.5, CurvatureParams(2.0, 2.0), math.pi))
    # just above the boundary
    K = 2.0 * math.pi ** 2 / 1.3 ** 2 * (1.0 + 1e-9)
    assert math.isinf(sigma(0.5, CurvatureParams(K, 2.0), 1.3))


def test_sigma_against_high_precision_oracle():
    # frozen from the 50-digit oracle
    assert sigma(0.5, CurvatureParams(1.0, 2.0), math.pi / 2) == pytest.approx(
        0.5884357139583579, abs=1e-15)
    rng = np.random.default_rng(2024)
    for _ in range(60):
        t = float(rng.uniform(0.0, 1.0))
        K = float(rng.uniform(-4.0, 4.0))
        N = float(rng.uniform(1.01, 16.0))
        theta = float(rng.uniform(0.0, 2.0))
        if K * theta ** 2 >= N * math.pi ** 2 * 0.98:
            continue
        got = sigma(t, CurvatureParams(K, N), theta)
        want = float(sigma_hp(t, K, N, theta))
        assert got == pytest.approx(want, abs=1e-13)


def test_sigma_seam_continuity_in_k():
    # |sigma - t| <= c |K| theta^2 around K = 0, scanning both branch sides
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.1, 3.0))
        N = float(rng.uniform(1.5, 8.0))
        mag = 10.0 ** rng.uniform(-12, -4)
        K = mag / theta ** 2 * (1 if rng.random() < 0.5 else -1)
        val = sigma(t, CurvatureParams(K, N), theta)
        assert abs(val - t) <= 10.0 * abs(K) * theta ** 2 + 1e-15


def _seam_pair(N, theta, sign):
    """Adjacent floats K_in, K_out of one sign: |K| theta^2 / N is below the
    seam threshold at K_in and not at K_out, as sigma computes it."""
    def inside(K):
        return abs(K * theta * theta / N) < coefficients._SEAM

    K = sign * coefficients._SEAM * N / (theta * theta)
    while inside(K):
        K = math.nextafter(K, sign * math.inf)
    while not inside(K):
        K = math.nextafter(K, 0.0)
    return K, math.nextafter(K, sign * math.inf)


def _close(a, b, rel=1e-14):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@given(t=st.floats(0.0, 1.0), N=st.floats(1.01, 50.0), theta=st.floats(1e-3, 1e3),
       sign=st.sampled_from([-1.0, 1.0]))
@example(t=0.5, N=2.0, theta=1.0, sign=1.0)
@example(t=0.999, N=3.0, theta=1.0, sign=-1.0)
def test_sigma_continuous_across_the_seam(t, N, theta, sign):
    # the series branch and the sin / sinh branch meet at |K| theta^2 / N = 1e-8:
    # adjacent K on either side give the same value within 1e-14 relative
    K_in, K_out = _seam_pair(N, theta, sign)
    branch = {K: coefficients._sigma_branch(CurvatureParams(K, N), theta)[0]
              for K in (K_in, K_out)}
    assert branch == {K_in: coefficients.SEAM,
                      K_out: coefficients.SIN if sign > 0 else coefficients.SINH}
    assert _close(sigma(t, CurvatureParams(K_in, N), theta),
                  sigma(t, CurvatureParams(K_out, N), theta))
    # K = +-1e-300 against K = 0, where sigma is exactly t
    for K in (1e-300, -1e-300):
        assert _close(sigma(t, CurvatureParams(K, N), theta), t)


def test_sigma_strictly_increasing_in_t():
    params = CurvatureParams(2.0, 3.0)
    ts = np.linspace(0.0, 1.0, 50)
    vals = [sigma(float(t), params, 1.2) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sigma_monotone_in_k():
    # fixed (t, theta): sigma nondecreasing in K on the finite branch
    for t in (0.25, 0.5, 0.75):
        for theta in (0.5, 1.0, 2.0):
            ks = np.linspace(-5.0, 5.0, 41)
            vals = []
            for K in ks:
                v = sigma(t, CurvatureParams(float(K), 2.0), theta)
                if math.isinf(v):
                    break
                vals.append(v)
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_sigma_rescaling_identity():
    # sigma_{K/lam^2, N}(lam theta) == sigma_{K, N}(theta)
    params = CurvatureParams(1.5, 2.5)
    for lam in (2.0, 4.0, 0.5):
        scaled = CurvatureParams(1.5 / lam ** 2, 2.5)
        for t in (0.2, 0.7):
            assert sigma(t, scaled, lam * 0.8) == pytest.approx(
                sigma(t, params, 0.8), abs=1e-15)


def test_sigma_domain_errors():
    p = CurvatureParams(1.0, 2.0)
    with pytest.raises(ValueError):
        sigma(-0.1, p, 1.0)
    with pytest.raises(ValueError):
        sigma(1.1, p, 1.0)
    with pytest.raises(ValueError):
        sigma(0.5, p, -1.0)
    # a non-finite theta raises on every branch instead of returning NaN or inf
    for K in (-1.0, 0.0, 1.0):
        for theta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="theta"):
                sigma(0.5, CurvatureParams(K, 2.0), theta)


def test_sigma_past_sinh_overflow_matches_mpmath():
    # x = sqrt(-K theta^2 / N) past 710.48, where math.sinh overflows
    params = CurvatureParams(-1.0, 2.0)
    x_max = 710.4758600739439
    for theta in (math.sqrt(2.0) * x_max * (1.0 + 1e-12), 1005.0, 1100.0, 1500.0):
        for t in (0.55, 0.7, 0.9, 0.999, 1.0):
            got = sigma(t, params, theta)
            want = float(sigma_hp(t, -1.0, 2.0, theta))
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert sigma(0.0, params, 1100.0) == 0.0
    # no jump at the switch: both sides of x_max agree with the oracle
    for x in (x_max * (1.0 - 1e-9), x_max * (1.0 + 1e-9)):
        theta = math.sqrt(2.0) * x
        assert sigma(0.9, params, theta) == pytest.approx(
            float(sigma_hp(0.9, -1.0, 2.0, theta)), rel=1e-12, abs=0.0)


def test_sigma_does_not_depend_on_the_previous_call():
    # sigma keeps no state between calls: any call order gives the same bits
    params = [CurvatureParams(K, N) for K, N in ((-1.0, 2.0), (0.0, 3.0), (2.0, 2.0),
                                                 (1e-10, 2.0), (-1.0, 2.0))]
    calls = [(t, p, theta) for p in params for theta in (0.0, 0.3, 1.7, 1000.0)
             for t in (0.0, 0.25, 1.0)]
    alone = []
    for t, p, theta in calls:
        sigma(0.5, CurvatureParams(0.5, 4.0), 0.9)  # a different rule in between
        alone.append(sigma(t, p, theta))
    rng = np.random.default_rng(3)
    for i in rng.permutation(len(calls)):
        assert sigma(*calls[i]) == alone[i]


def test_params_validation():
    with pytest.raises(ValueError):
        CurvatureParams(0.0, 1.0)
    with pytest.raises(ValueError):
        CurvatureParams(math.inf, 2.0)


def test_s_vol_branches():
    assert s_vol(CurvatureParams(0.0, 3.0), 2.5) == 2.5
    assert s_vol(CurvatureParams(1.0, 2.0), 0.0) == 0.0
    # frozen from the oracle: sinh(1)
    assert s_vol(CurvatureParams(-1.0, 2.0), 1.0) == pytest.approx(
        1.1752011936438014, abs=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(40):
        K = float(rng.uniform(-3.0, 3.0))
        N = float(rng.uniform(1.1, 10.0))
        t = float(rng.uniform(0.0, 2.0))
        assert s_vol(CurvatureParams(K, N), t) == pytest.approx(
            float(s_vol_hp(K, N, t)), abs=1e-13)


def test_s_vol_slope_one_at_zero():
    for K, N in [(1.0, 2.0), (-2.0, 3.0), (0.0, 5.0), (4.0, 1.5)]:
        v = s_vol(CurvatureParams(K, N), 1e-6)
        assert v / 1e-6 == pytest.approx(1.0, rel=1e-6)


def test_f_vol_closed_forms():
    assert f_vol(CurvatureParams(0.0, 2.0), 1.7) == pytest.approx(1.7 ** 2 / 2, abs=1e-10)
    assert f_vol(CurvatureParams(0.0, 3.0), 1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)
    # int_0^{pi/2} sin = 1, cross-checked by the trapezoid refinement oracle
    got = f_vol(CurvatureParams(1.0, 2.0), math.pi / 2)
    assert got == pytest.approx(1.0, abs=1e-10)
    orc = trapezoid_refined(lambda s: math.sin(s), 0.0, math.pi / 2)
    assert got == pytest.approx(orc, abs=1e-9)


def test_f_vol_against_quadrature_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        K = float(rng.uniform(-2.0, 2.0))
        N = float(rng.uniform(1.2, 6.0))
        params = CurvatureParams(K, N)
        r = float(rng.uniform(0.1, min(2.0, 0.9 * conjugate_radius(params))))
        orc = trapezoid_refined(lambda s: s_vol(params, s) ** (N - 1.0), 0.0, r)
        assert f_vol(params, r) == pytest.approx(orc, abs=1e-8)


def test_f_vol_monotone():
    params = CurvatureParams(1.0, 2.0)
    rs = np.linspace(0.1, 3.0, 15)
    vals = [f_vol(params, float(r)) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_f_vol_domain_error_past_conjugate_radius():
    params = CurvatureParams(1.0, 2.0)  # conjugate radius pi
    with pytest.raises(ValueError):
        f_vol(params, math.pi + 0.1)
    with pytest.raises(ValueError):
        f_vol(params, -0.5)


def test_model_coefficient_overflow_raises_value_error():
    # sinh(t c), c = sqrt(-K / (N - 1)), passes math.sinh's overflow at 710.48
    with pytest.raises(ValueError, match=r"t = 2\.0 for K = -1000000\.0, N = 2"):
        s_vol(CurvatureParams(-1e6, 2.0), 2.0)
    with pytest.raises(ValueError, match=r"r = 800\.0 for K = -1, N = 2"):
        f_vol(CurvatureParams(-1, 2), 800.0)
    with pytest.raises(ValueError, match=r"r = 2\.0 for K = -1000000\.0"):
        f_vol(CurvatureParams(-1e6, 2.0), 2.0)
    # s_vol(500) is about 2e125, finite, but its cube is not
    params = CurvatureParams(-1.0, 4.0)
    assert math.isfinite(s_vol(params, 500.0))
    with pytest.raises(ValueError, match=r"r = 500\.0 for K = -1\.0, N = 4\.0"):
        f_vol(params, 500.0)
    # just below the overflow both stay numbers
    assert math.isfinite(f_vol(CurvatureParams(-1.0, 2.0), 700.0))
    assert math.isfinite(f_vol(params, 400.0))


def _call_limited(fn, limit=10_000):
    """(fn raising after `limit` calls, its call count): a quadrature that
    would run on for hours fails instead."""
    calls = [0]

    def limited(*args):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError(f"more than {limit} integrand calls")
        return fn(*args)

    return limited, calls


@pytest.mark.parametrize("K,N,r", [
    (0.0, 2.0, 1e160),   # r^2 / 2 overflows; an adaptive Simpson rule once ran on for hours
    (0.0, 2.0, math.nan), (1.0, 2.0, math.nan), (-1.0, 3.0, math.nan),
    (0.0, 2.0, math.inf), (-1.0, 2.0, math.inf), (1.0, 2.0, math.inf),
    (-0.5, 2.0, -math.inf),
])
def test_f_vol_raises_instead_of_hanging(K, N, r, monkeypatch):
    limited, calls = _call_limited(coefficients._s_vol)
    monkeypatch.setattr(coefficients, "_s_vol", limited)
    with pytest.raises(ValueError, match=rf"at r = {re.escape(repr(r))} for K = "
                                         rf"{re.escape(repr(K))}, N = {re.escape(repr(N))}"):
        f_vol(CurvatureParams(K, N), r)
    assert calls[0] <= 100


def test_f_vol_finite_values_unchanged_by_the_overflow_check():
    # large finite integrals stay numbers, judged by the 40-digit oracle; at the
    # last two a whole-interval Simpson estimate overflowed, its halves did not
    for K, N, r in [(-1.0, 2.0, 700.0), (-1.0, 4.0, 400.0), (0.0, 2.0, 1e150),
                    (-1.0, 2.0, 706.0), (0.0, 11.0, 1.26e28)]:
        want = float(f_vol_hp(K, N, r))
        assert f_vol(CurvatureParams(K, N), r) == pytest.approx(want, rel=1e-13), (K, N, r)


def test_f_vol_returns_cosh_709_minus_one():
    # 4.1e307 is a float; Simpson's whole-interval estimate, about 118 times it, was not
    got = f_vol(CurvatureParams(-1.0, 2.0), 709.0)
    assert got == pytest.approx(4.1092037307774861e307, rel=1e-13)


def test_f_vol_hp_matches_closed_forms():
    # F = r^N / N at K = 0; (1 - cos(sqrt(K) r)) / K and (cosh(sqrt(-K) r) - 1) / -K at N = 2
    for N, r in [(2.0, 1.7), (11.8, 2.6e-5), (40.0, 3.0), (1.01, 1e-200), (3.5, 1e80)]:
        assert f_vol_hp(0.0, N, r) == pytest.approx(mp.mpf(r) ** N / N, rel=1e-30)
    for K, r in [(4.0, 0.3), (4.0, math.pi / 2), (-1.0, 1.0), (-2.0, 30.0), (-1.0, 709.0)]:
        c = mp.sqrt(abs(mp.mpf(K)))
        exact = (1 - mp.cos(c * r)) / K if K > 0 else (mp.cosh(c * r) - 1) / -K
        assert f_vol_hp(K, 2.0, r) == pytest.approx(exact, rel=1e-30)


def test_f_vol_against_high_precision_oracle():
    # Simpson's absolute 1e-10 tolerance left 11% error at F ~ 1e-12 (K = 1.893,
    # N = 11.95, r = 0.1429); the rule is relative: 1e-13 down to tiny F
    rng = np.random.default_rng(2024)
    tiny = 0
    for i in range(300):
        K = float(rng.choice([-1.0, 0.0, 1.0]) * 10 ** rng.uniform(-2.0, 1.5))
        N = float(rng.uniform(1.01, 12.0))
        params = CurvatureParams(K, N)
        r = min(float(10 ** rng.uniform(-3.0, 0.7)), conjugate_radius(params))
        if i % 10 == 0 and K > 0:
            r = conjugate_radius(params)
        want = float(f_vol_hp(K, N, r))
        tiny += want < 1e-10
        assert f_vol(params, r) == pytest.approx(want, rel=1e-13), (K, N, r)
    assert tiny >= 30


@pytest.mark.parametrize("K,N,scale", [(4.0, 1.3, 1.0), (1.0, 2.5, 1.0 + 5e-13),
                                       (1.0, 2.0, 1.0), (9.0, 40.0, 1.0 + 1e-12)])
def test_f_vol_at_the_conjugate_radius(K, N, scale):
    # a sin a rounding below zero, raised to a fractional power, was complex
    params = CurvatureParams(K, N)
    r = conjugate_radius(params) * scale
    assert f_vol(params, r) == pytest.approx(float(f_vol_hp(K, N, r)), rel=1e-13)


@pytest.mark.parametrize("K,N,r", [(1e-300, 1.01, 1e-170), (-1e-300, 1.01, 1e-170),
                                   (5e-324, 2.0, 1e-100), (1e300, 2.0, 1e-150),
                                   (-1e300, 2.0, 1e-150), (0.0, 1.5, 1e-200)])
def test_f_vol_at_extreme_scales(K, N, r):
    # where |K| r^2 < 1e-16 K is taken as 0 (a K x^2 / 6 correction is below
    # rounding), so a subnormal sqrt(|K|) r never enters; K = +-1e300 at r = 1e-150
    # take the sin and sinh branches; no warning, no lost digits
    assert f_vol(CurvatureParams(K, N), r) == pytest.approx(float(f_vol_hp(K, N, r)), rel=1e-13)


@pytest.mark.parametrize("K,N,t", [
    (4.0, 2.0, 1e308),   # t c = inf: math.sin raised "math domain error"
    (-4.0, 2.0, 1e308),  # t c = inf: sinh(inf) / c returned inf
    (-1e-300, 2.0, 7e152),  # sinh(t c) finite, divided by c = 1e-150 it is not
])
def test_s_vol_names_an_unrepresentable_value(K, N, t):
    with pytest.raises(ValueError, match=rf"s_vol overflows at t = {re.escape(repr(t))} "
                                         rf"for K = {re.escape(repr(K))}, N = {N!r}"):
        s_vol(CurvatureParams(K, N), t)


@pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_s_vol_names_a_non_finite_radius(K, t):
    # nan returned nan, and inf returned inf for K <= 0
    with pytest.raises(ValueError, match=rf"at t = {t!r} for K = {K!r}, N = 2\.0"):
        s_vol(CurvatureParams(K, 2.0), t)


def test_sigma_refuses_an_overflowing_k_theta_squared():
    # K theta^2 = -1e320 is -inf: refused, naming K and theta, never a NaN
    with pytest.raises(ValueError, match=re.escape(
            "K theta^2 overflows (K = -1e+300, theta = 10000000000.0)")):
        sigma(0.5, CurvatureParams(-1e300, 2.0), 1e10)
