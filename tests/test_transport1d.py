import math

import numpy as np
import pytest

from curvlab1d.space1d import Space1D, Topology1D, WeightFn, measure_ball
from curvlab1d.transport1d import (
    ProbMeasure1D, displacement_interpolate, entropies_along, entropy,
    measure_from_atoms, measure_from_density, quantile, renyi,
    uniform_measure, w2, _circle_cut,
)

from oracles import bisect_quantile, lp_transport_cost, trapezoid_refined


def flat_space(lo=0.0, hi=4.0, step=1e-3):
    return Space1D(Topology1D("line"), WeightFn.constant(0.0, lo, hi),
                   grid_step=step, window=(lo, hi))


def circle_space(radius=1.0, step=1e-3):
    circ = 2 * math.pi * radius
    coords = np.linspace(0.0, circ, 64, endpoint=False)
    return Space1D(Topology1D("circle", radius),
                   WeightFn(coords, np.zeros(64), period=circ), grid_step=step)


# -- quantile -----------------------------------------------------------------

def test_quantile_uniforms():
    sp = flat_space()
    q = quantile(uniform_measure(sp, 0.0, 1.0))
    us = np.linspace(0, 1, 17)
    assert np.allclose(q(us), us, atol=1e-12)
    q2 = quantile(uniform_measure(sp, 1.5, 2.5))
    assert np.allclose(q2(us), 1.5 + us, atol=1e-12)


def test_quantile_density_2x_vs_bisection_oracle():
    sp = flat_space()
    mu = measure_from_density(sp, lambda x: 2.0 * x, 0.0, 1.0, n_cells=4000)
    q = quantile(mu)

    def cdf(x):
        xs, xe, ms = mu.segments()
        c = 0.0
        for s, e, m in zip(xs, xe, ms):
            c += m * min(max((x - s) / (e - s), 0.0), 1.0)
        return c

    for u in (0.1, 0.25, 0.5, 0.9):
        want = bisect_quantile(cdf, u, 0.0, 1.0)
        assert q(u) == pytest.approx(want, abs=1e-6)
        assert q(u) == pytest.approx(math.sqrt(u), abs=1e-4)


def test_quantile_has_enough_nodes_and_monotone():
    sp = flat_space()
    q = quantile(uniform_measure(sp, 0.0, 2.0))
    assert np.array_equal(q.u, [0.0, 1.0]) and np.array_equal(q.x, [0.0, 2.0])
    assert np.all(np.diff(q.u) >= 0)
    assert np.all(np.diff(q.x) >= -1e-15)


# -- w2 on the line ---------------------------------------------------------------

def test_w2_translation_and_identity():
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 2.0, 3.0)
    assert w2(sp, mu0, mu1) == pytest.approx(2.0, abs=1e-12)
    assert w2(sp, mu0, mu0) == 0.0


def test_w2_uniform_stretch_closed_form():
    # Q0 = u, Q1 = 2u: W2^2 = int (u)^2 = 1/3
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 0.0, 2.0)
    assert w2(sp, mu0, mu1) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)


def test_w2_matches_lp_on_equal_mass_atoms():
    sp = flat_space(0.0, 10.0)
    rng = np.random.default_rng(3)
    for _ in range(25):
        k = int(rng.integers(2, 9))
        masses = rng.uniform(0.2, 1.0, size=k)
        masses /= masses.sum()
        xs = np.sort(rng.uniform(0.5, 9.5, size=k))
        ys = np.sort(rng.uniform(0.5, 9.5, size=k))
        if np.min(np.diff(xs, prepend=-1)) < 2e-4 or np.min(np.diff(ys, prepend=-1)) < 2e-4:
            continue
        mu0 = measure_from_atoms(sp, xs, masses)
        mu1 = measure_from_atoms(sp, ys, masses)
        got = w2(sp, mu0, mu1)
        want = math.sqrt(lp_transport_cost(xs, masses, ys, masses))
        assert got == pytest.approx(want, abs=1e-6)


def test_w2_unequal_masses_within_mollification_scale():
    # with different mass vectors the 1e-4 mollification shifts W2 by O(width)
    sp = flat_space(0.0, 10.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        k0, k1 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        a = rng.uniform(0.2, 1.0, k0); a /= a.sum()
        b = rng.uniform(0.2, 1.0, k1); b /= b.sum()
        xs = np.sort(rng.uniform(0.5, 9.5, k0))
        ys = np.sort(rng.uniform(0.5, 9.5, k1))
        if np.min(np.diff(xs, prepend=-1)) < 2e-4 or np.min(np.diff(ys, prepend=-1)) < 2e-4:
            continue
        got = w2(sp, measure_from_atoms(sp, xs, a), measure_from_atoms(sp, ys, b))
        want = math.sqrt(lp_transport_cost(xs, a, ys, b))
        assert got == pytest.approx(want, abs=5e-4)


# -- circle w2 ---------------------------------------------------------------------

def test_w2_circle_small_rotation():
    # short rigid rotation is optimal when the supports are close
    sp = circle_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 0.5, 1.5)
    assert w2(sp, mu0, mu1) == pytest.approx(0.5, abs=1e-6)


def test_w2_circle_far_pair_vs_fine_lp():
    # far-apart uniforms: two-directional plans beat rigid rotation; pin
    # against an LP on a fine discretization
    sp = circle_space()
    circ = 2 * math.pi

    def dist(x, y):
        d = abs(x - y) % circ
        return min(d, circ - d)

    n = 80
    xs = np.linspace(1 / (2 * n), 1.0 - 1 / (2 * n), n)
    ys = 3.0 + xs
    a = np.full(n, 1.0 / n)
    want = math.sqrt(lp_transport_cost(xs, a, ys, a, dist=dist))
    got = w2(sp, uniform_measure(sp, 0.0, 1.0), uniform_measure(sp, 3.0, 4.0))
    assert got == pytest.approx(want, abs=5e-4)
    assert got < 3.0  # strictly better than the rigid rotation cost


def test_w2_circle_vs_lp_on_atoms():
    sp = circle_space()
    circ = 2 * math.pi

    def dist(x, y):
        d = abs(x - y) % circ
        return min(d, circ - d)

    rng = np.random.default_rng(9)
    for _ in range(6):
        k = int(rng.integers(3, 7))
        masses = rng.uniform(0.2, 1.0, size=k)
        masses /= masses.sum()
        xs = np.sort(rng.uniform(0.0, circ - 0.01, size=k))
        ys = np.sort(rng.uniform(0.0, circ - 0.01, size=k))
        if np.min(np.diff(xs, prepend=-1)) < 2e-4 or np.min(np.diff(ys, prepend=-1)) < 2e-4:
            continue
        got = w2(sp, measure_from_atoms(sp, xs, masses), measure_from_atoms(sp, ys, masses))
        want = math.sqrt(lp_transport_cost(xs, masses, ys, masses, dist=dist))
        assert got == pytest.approx(want, abs=5e-4)


def test_w2_circle_shift_on_breakpoint_collision():
    # the optimal shift generically lands exactly on a cumulative-mass
    # breakpoint; the shifted anchors must keep the jump intact there
    # (regression: a snapped jump once spliced into a fake affine stretch)
    sp = circle_space()
    circ = 2 * math.pi

    def dist(x, y):
        d = abs(x - y) % circ
        return min(d, circ - d)

    rng = np.random.default_rng(9)
    k = int(rng.integers(3, 7))
    masses = rng.uniform(0.2, 1.0, size=k)
    masses /= masses.sum()
    xs = np.sort(rng.uniform(0.0, circ - 0.01, size=k))
    ys = np.sort(rng.uniform(0.0, circ - 0.01, size=k))
    got = w2(sp, measure_from_atoms(sp, xs, masses),
             measure_from_atoms(sp, ys, masses))
    want = math.sqrt(lp_transport_cost(xs, masses, ys, masses, dist=dist))
    assert got == pytest.approx(want, abs=5e-4)


def test_circle_cd_checks_flat():
    # flat circle satisfies the zero-curvature entropic conditions but no
    # K > 0; exercises the circle displacement path inside the margins,
    # including a support that wraps across the coordinate cut
    from curvlab1d.coefficients import CurvatureParams
    from curvlab1d.curvature import verify_cd_infty, verify_cde

    sp = circle_space()
    circ = 2 * math.pi
    L, lo = 1.2, 5.5
    hi = (lo + L) % circ
    wrap = ProbMeasure1D(sp, np.array([0.0, hi, lo, circ]),
                         np.array([1.0 / L, 0.0, 1.0 / L]))
    assert entropy(wrap, sp) == pytest.approx(-math.log(L), abs=1e-12)
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(6):
        a0 = rng.uniform(0, circ - 1.01)
        w0 = rng.uniform(0.3, 1.0)
        a1 = rng.uniform(0, circ - 1.01)
        w1 = rng.uniform(0.3, 1.0)
        pairs.append((uniform_measure(sp, a0, a0 + w0),
                      uniform_measure(sp, a1, a1 + w1)))
    pairs.append((wrap, uniform_measure(sp, 2.0, 3.0)))
    assert verify_cde(sp, CurvatureParams(0.0, 2.0), pairs, tol=5e-4).passed
    assert verify_cd_infty(sp, 0.0, pairs, tol=5e-4).passed
    rep = verify_cd_infty(sp, 1.0, pairs, tol=5e-4)
    assert rep.max_violation > 0.01  # no positive bound on a flat circle


def test_w2_circle_cut_refinement_invariant():
    sp = circle_space()
    rng = np.random.default_rng(17)
    for _ in range(3):
        mu0 = uniform_measure(sp, float(rng.uniform(0, 3)), float(rng.uniform(3.5, 5)))
        mu1 = uniform_measure(sp, float(rng.uniform(0, 2)), float(rng.uniform(2.5, 6)))
        v256, _ = _circle_cut(sp, mu0, mu1, n_cuts=256)
        v2560, _ = _circle_cut(sp, mu0, mu1, n_cuts=2560)
        assert abs(v256 - v2560) <= 1e-8


# -- displacement interpolation -------------------------------------------------------

def test_displacement_translation_midpoint():
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 2.0, 3.0)
    mid = displacement_interpolate(sp, mu0, mu1, 0.5)
    lo, hi = mid.support_window
    assert lo == pytest.approx(1.0, abs=2e-3)
    assert hi == pytest.approx(2.0, abs=2e-3)
    assert float(np.sum(mid.cell_masses())) == pytest.approx(1.0, abs=1e-9)


def test_displacement_identity_at_endpoints():
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.2, 1.2)
    mu1 = uniform_measure(sp, 2.0, 3.5)
    for t, ref in ((0.0, mu0), (1.0, mu1)):
        interp = displacement_interpolate(sp, mu0, mu1, t)
        assert w2(sp, interp, ref) < 2e-3


def test_displacement_stretch_midpoint_uniform():
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 0.0, 2.0)
    mid = displacement_interpolate(sp, mu0, mu1, 0.5)
    # Q_t(u) = 1.5u: uniform on [0, 1.5]
    xs, xe, ms = mid.segments()
    dens = ms / (xe - xs)
    inner = (xs > 0.05) & (xe < 1.45)
    assert np.allclose(dens[inner], 2.0 / 3.0, atol=1e-9)


def test_displacement_constant_speed_battery():
    sp = flat_space()
    rng = np.random.default_rng(23)
    ts = [0.25, 0.5, 0.75]
    for _ in range(5):
        a0, b0 = sorted(rng.uniform(0.1, 3.9, 2))
        a1, b1 = sorted(rng.uniform(0.1, 3.9, 2))
        if b0 - a0 < 0.05 or b1 - a1 < 0.05:
            continue
        mu0 = uniform_measure(sp, a0, b0)
        mu1 = uniform_measure(sp, a1, b1)
        base = w2(sp, mu0, mu1)
        if base < 1e-6:
            continue
        interp = {t: displacement_interpolate(sp, mu0, mu1, t) for t in ts}
        for s in ts:
            for t in ts:
                if s < t:
                    got = w2(sp, interp[s], interp[t])
                    assert abs(got - (t - s) * base) <= 5e-4 * base + 5e-3


# -- entropy -----------------------------------------------------------------------

def test_entropy_uniform_against_lebesgue():
    sp = flat_space()
    for L in (0.5, 1.0, 2.0):
        mu = uniform_measure(sp, 0.0, L)
        assert entropy(mu, sp) == pytest.approx(-math.log(L), abs=1e-12)


def test_entropy_constant_weight_shift():
    c = 0.7
    sp = Space1D(Topology1D("line"), WeightFn.constant(c, 0.0, 4.0),
                 window=(0.0, 4.0))
    mu = uniform_measure(sp, 0.0, 1.0)
    assert entropy(mu, sp) == pytest.approx(c, abs=1e-12)
    orc = trapezoid_refined(lambda x: (1.0 * math.exp(c)) * math.log(1.0 * math.exp(c))
                            * math.exp(-c), 0.0, 1.0)
    assert entropy(mu, sp) == pytest.approx(orc, abs=1e-10)


def test_entropy_weight_decomposition_identity():
    # Ent(mu | e^{-V} H^1) = Ent(mu | H^1) + int V dmu for smooth V
    coords = np.linspace(-2.0, 2.0, 400)
    V = 0.3 * coords ** 2 + 0.1 * np.sin(3 * coords)
    spV = Space1D(Topology1D("line"), WeightFn(coords, V), window=(-2, 2))
    sp0 = flat_space(-2.0, 2.0)
    mu = measure_from_density(sp0, lambda x: np.exp(-x ** 2), -1.8, 1.8, n_cells=3000)
    muV = ProbMeasure1D(spV, mu.edges, mu.density)
    xs, xe, ms = mu.segments()
    mids = 0.5 * (xs + xe)
    int_v = float(np.sum(ms * np.interp(mids, coords, V)))
    assert entropy(muV, spV) == pytest.approx(entropy(mu, sp0) + int_v, abs=5e-4)


def test_binned_interpolant_entropy_tracks_exact_route():
    # the re-binned measure returned by displacement_interpolate must agree
    # with the exact-segment entropies up to the expected O(rho * h) bias
    sp = flat_space(0.0, 1.0, step=1e-3)
    rng = np.random.default_rng(71)
    for _ in range(5):
        w0 = rng.uniform(0.08, 0.3); a0 = rng.uniform(0.0, 1.0 - w0)
        w1 = rng.uniform(0.08, 0.3); a1 = rng.uniform(0.0, 1.0 - w1)
        mu0 = uniform_measure(sp, a0, a0 + w0)
        mu1 = uniform_measure(sp, a1, a1 + w1)
        for t in (0.25, 0.5, 0.75):
            exact = entropies_along(sp, mu0, mu1, [t])[1][0]
            binned = entropy(displacement_interpolate(sp, mu0, mu1, t), sp)
            rho_max = max(1.0 / w0, 1.0 / w1)
            assert abs(binned - exact) <= 4.0 * rho_max * sp.grid_step


def test_entropy_displacement_convexity_flat():
    # t -> Ent(mu_t) is convex on a flat interval (second differences >= -1e-5),
    # evaluated on the exact interpolant segments (the path the CD checks use)
    sp = flat_space(0.0, 1.0)
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, 9)
    for _ in range(5):
        w0 = rng.uniform(0.05, 0.3); a0 = rng.uniform(0.0, 1.0 - w0)
        w1 = rng.uniform(0.05, 0.3); a1 = rng.uniform(0.0, 1.0 - w1)
        mu0 = uniform_measure(sp, a0, a0 + w0)
        mu1 = uniform_measure(sp, a1, a1 + w1)
        _, ents = entropies_along(sp, mu0, mu1, [float(t) for t in ts])
        second = np.diff(ents, 2)
        assert np.min(second) >= -1e-5


# -- renyi --------------------------------------------------------------------------

def test_renyi_uniforms():
    sp = flat_space()
    assert renyi(uniform_measure(sp, 0.0, 1.0), sp, 4.0) == pytest.approx(0.0, abs=1e-12)
    for N in (2.0, 8.0):
        want = N - N * 2.0 ** (1.0 / N)
        assert renyi(uniform_measure(sp, 0.0, 2.0), sp, N) == pytest.approx(want, abs=1e-12)


def test_renyi_converges_to_entropy():
    sp = flat_space()
    mu = uniform_measure(sp, 0.0, 2.0)
    ent = entropy(mu, sp)
    assert renyi(mu, sp, 2.0 ** 20) == pytest.approx(ent, rel=1e-5)


def test_renyi_nondecreasing_in_n_battery():
    sp = flat_space(0.0, 1.0)
    rng = np.random.default_rng(41)
    ns = [2.0 ** k for k in range(1, 11)]
    for _ in range(8):
        dens = rng.uniform(0.2, 3.0, size=50)
        mu = measure_from_density(sp, lambda x: np.interp(x, np.linspace(0, 1, 50), dens),
                                  0.0, 1.0, n_cells=500)
        vals = [renyi(mu, sp, N) for N in ns]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= entropy(mu, sp) + 1e-9


def test_measure_validation():
    sp = flat_space()
    with pytest.raises(ValueError):
        ProbMeasure1D(sp, np.array([0.0, 1.0]), np.array([2.0]))  # mass 2
    with pytest.raises(ValueError):
        ProbMeasure1D(sp, np.array([1.0, 0.0]), np.array([1.0]))  # bad edges
    with pytest.raises(ValueError):
        ProbMeasure1D(sp, np.array([0.0, 1.0]), np.array([-1.0]))


def test_w2_rejects_space_mismatch():
    sp_a = flat_space(0.0, 4.0)
    sp_b = flat_space(0.0, 5.0)
    with pytest.raises(ValueError):
        w2(sp_a, uniform_measure(sp_a, 0.0, 1.0), uniform_measure(sp_b, 0.0, 1.0))
