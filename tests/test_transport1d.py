import math

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvlab1d import transport1d
from curvlab1d.space1d import (Space1D, Topology1D, WeightFn, WindowError, load_space,
                               measure_ball)
from curvlab1d.transport1d import (
    ProbMeasure1D, displacement_interpolate, entropies_along, entropy,
    entropy_of_segments, measure_from_atoms, measure_from_density, quantile, renyi,
    renyi_of_segments, uniform_measure, w2, _breakpoints, _circle_cut, _extended_bp,
    _golden_min, _shifted_bp, _w2sq_line_bp,
)

from oracles import bisect_quantile, lp_transport_cost, trapezoid_refined


def flat_space(lo=0.0, hi=4.0, step=1e-3):
    return Space1D(Topology1D("line"), grid_step=step, window=(lo, hi))


def circle_space(radius=1.0, step=1e-3):
    return Space1D(Topology1D("circle", radius), grid_step=step)


def _periodic_dist(z, c, circ=2 * math.pi):
    a = np.abs(z - c) % circ
    return np.minimum(a, circ - a)


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
    assert w2(mu0, mu1) == pytest.approx(2.0, abs=1e-12)
    assert w2(mu0, mu0) == 0.0


def test_w2_uniform_stretch_closed_form():
    # Q0 = u, Q1 = 2u: W2^2 = int (u)^2 = 1/3
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 0.0, 2.0)
    assert w2(mu0, mu1) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)


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
        got = w2(mu0, mu1)
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
        got = w2(measure_from_atoms(sp, xs, a), measure_from_atoms(sp, ys, b))
        want = math.sqrt(lp_transport_cost(xs, a, ys, b))
        assert got == pytest.approx(want, abs=5e-4)


def test_w2_finite_when_quantile_anchors_repeat_at_one():
    # cells whose mass vanishes in the cumsum leave repeated U == 1.0 anchors;
    # the merged piece (1 - 2^-53, 1) must not pick the zero-width one (NaN)
    circ = 2 * math.pi
    d = _periodic_dist
    interval = Space1D(Topology1D("interval", circ), grid_step=1e-3)
    got = {}
    for sp in (interval, circle_space()):
        mu0 = measure_from_density(
            sp, lambda z: np.exp(-10 * d(z, 3.4856) ** 2) + 0.5 * np.exp(-20 * d(z, 2.4344) ** 2),
            0.0, circ, 200)
        mu1 = measure_from_density(sp, lambda z: np.exp(-5 * d(z, 4.7432) ** 2) + 0.01,
                                   0.0, circ, 150)
        assert np.sum(_breakpoints(mu0)[0] == 1.0) > 1
        got[sp.topology.kind] = w2(mu0, mu1)
        if sp is interval:
            u = (np.arange(100_000) + 0.5) / 100_000
            want = math.sqrt(np.mean((quantile(mu0)(u) - quantile(mu1)(u)) ** 2))
            assert got["interval"] == pytest.approx(want, rel=1e-5)
    assert 0.0 < got["circle"] <= got["interval"]


# -- circle w2 ---------------------------------------------------------------------

def test_w2_circle_small_rotation():
    # short rigid rotation is optimal when the supports are close
    sp = circle_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 0.5, 1.5)
    assert w2(mu0, mu1) == pytest.approx(0.5, abs=1e-6)


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
    got = w2(uniform_measure(sp, 0.0, 1.0), uniform_measure(sp, 3.0, 4.0))
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
        got = w2(measure_from_atoms(sp, xs, masses), measure_from_atoms(sp, ys, masses))
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
    got = w2(measure_from_atoms(sp, xs, masses), measure_from_atoms(sp, ys, masses))
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
    assert entropy(wrap) == pytest.approx(-math.log(L), abs=1e-12)
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
        bp0, ext1 = _breakpoints(mu0), _extended_bp(mu1)
        v256, _ = _circle_cut(bp0, ext1, n_cuts=256)
        v2560, _ = _circle_cut(bp0, ext1, n_cuts=2560)
        assert abs(v256 - v2560) <= 1e-8


def _scan_circle_cut(bp0, ext1, n_cuts=256):
    """The full grid scan the bisection replaces: argmin over every shift."""
    def obj(alpha):
        return _w2sq_line_bp(bp0, _shifted_bp(ext1, alpha))

    shifts = np.linspace(-1.0, 1.0, 2 * n_cuts, endpoint=False)
    vals = np.array([obj(al) for al in shifts])
    k = int(np.argmin(vals))
    step = 1.0 / n_cuts
    a_best, v_best = _golden_min(obj, max(shifts[k] - step, -1.0),
                                 min(shifts[k] + step, 1.0 - 1e-12))
    if vals[k] < v_best:
        a_best, v_best = shifts[k], vals[k]
    return (v_best, a_best), vals


def _oracle_circle_pairs():
    sp = circle_space()
    circ = 2 * math.pi
    rng = np.random.default_rng(23)
    pairs = []
    # uniforms: one support wraps across the cut, one covers the whole circle
    for lo0, w0, lo1, w1 in ((0.2, 1.0, 3.0, 0.5), (5.5, 1.2, 2.0, 1.0),
                             (0.0, circ, 1.0, 2.0), (4.0, 0.3, 4.1, 0.3)):
        pairs.append(tuple(_wrapped_uniform(sp, lo, w) for lo, w in ((lo0, w0), (lo1, w1))))
    # the optimal shift of this pair lands on a mass breakpoint
    rng9 = np.random.default_rng(9)
    k = int(rng9.integers(3, 7))
    masses = rng9.uniform(0.2, 1.0, size=k)
    locs = [np.sort(rng9.uniform(0.0, circ - 0.01, size=k)) for _ in range(2)]
    pairs.append(tuple(measure_from_atoms(sp, xs, masses) for xs in locs))
    for k in range(1, 6):
        locs = [np.sort(rng.choice(np.linspace(0.01, circ - 0.01, 500), k, replace=False))
                for _ in range(2)]
        pairs.append(tuple(measure_from_atoms(sp, xs, rng.uniform(0.2, 1.0, k))
                           for xs in locs))
    d = _periodic_dist
    for _ in range(3):
        c, w = rng.uniform(0, circ, 4), rng.uniform(2.0, 30.0, 4)
        pairs.append((
            measure_from_density(sp, lambda z: np.exp(-w[0] * d(z, c[0]) ** 2)
                                 + 0.7 * np.exp(-w[1] * d(z, c[1]) ** 2), 0.0, circ, 120),
            measure_from_density(sp, lambda z: np.exp(-w[2] * d(z, c[2]) ** 2)
                                 + 0.4 * np.exp(-w[3] * d(z, c[3]) ** 2) + 0.01, 0.0, circ, 90)))
    return sp, pairs


def _wrapped_uniform(sp, lo, width):
    circ = sp.topology.circumference
    if lo + width <= circ:
        return uniform_measure(sp, lo, lo + width)
    hi = lo + width - circ
    return ProbMeasure1D(sp, np.array([0.0, hi, lo, circ]),
                         np.array([1.0 / width, 0.0, 1.0 / width]))


def test_circle_cut_bisection_matches_full_scan():
    sp, pairs = _oracle_circle_pairs()
    for mu0, mu1 in pairs:
        graphs = _breakpoints(mu0), _extended_bp(mu1)
        assert _circle_cut(*graphs) == _scan_circle_cut(*graphs)[0]


def test_circle_cut_bisection_matches_full_scan_on_tied_grid(monkeypatch):
    # circumference 8 (dyadic): the full-circle uniform against its lift rotated
    # by an odd multiple of half a grid step ties two grid values exactly at
    # the minimum; both routes must take the first of them and refine from it
    sp = Space1D(Topology1D("circle", 4.0 / math.pi))
    c = sp.topology.circumference
    assert c == 8.0
    for d in (c / 512, 5 * c / 512):
        mu0, mu1 = uniform_measure(sp, 0.0, c), uniform_measure(sp, d, d + c)
        graphs = _breakpoints(mu0), _extended_bp(mu1)
        want, vals = _scan_circle_cut(*graphs)
        k = int(np.argmin(vals))
        assert vals[k + 1] == vals[k]
        brackets = []

        def recording_golden_min(fn, a, b, *args):
            brackets.append((a, b))
            return _golden_min(fn, a, b, *args)

        monkeypatch.setattr(transport1d, "_golden_min", recording_golden_min)
        assert _circle_cut(*graphs) == want
        monkeypatch.undo()
        shift_k = -1.0 + k / 256
        assert brackets == [(shift_k - 1 / 256, shift_k + 1 / 256)]


def test_circle_cut_objective_call_count(monkeypatch):
    sp, pairs = _oracle_circle_pairs()
    shifted = transport1d._shifted_bp
    calls = []

    def counting_shifted_bp(*args, **kwargs):
        calls.append(1)
        return shifted(*args, **kwargs)

    monkeypatch.setattr(transport1d, "_shifted_bp", counting_shifted_bp)
    for mu0, mu1 in pairs:
        calls.clear()
        _circle_cut(_breakpoints(mu0), _extended_bp(mu1))
        assert len(calls) <= 110  # a full 512-shift scan made 594


# -- displacement interpolation -------------------------------------------------------

def test_displacement_translation_midpoint():
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 2.0, 3.0)
    mid = displacement_interpolate(mu0, mu1, 0.5)
    lo, hi = mid.support_window
    assert lo == pytest.approx(1.0, abs=2e-3)
    assert hi == pytest.approx(2.0, abs=2e-3)
    assert float(np.sum(mid.cell_masses())) == pytest.approx(1.0, abs=1e-9)


def test_displacement_identity_at_endpoints():
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.2, 1.2)
    mu1 = uniform_measure(sp, 2.0, 3.5)
    for t, ref in ((0.0, mu0), (1.0, mu1)):
        interp = displacement_interpolate(mu0, mu1, t)
        assert w2(interp, ref) < 2e-3


def test_displacement_stretch_midpoint_uniform():
    sp = flat_space()
    mu0 = uniform_measure(sp, 0.0, 1.0)
    mu1 = uniform_measure(sp, 0.0, 2.0)
    mid = displacement_interpolate(mu0, mu1, 0.5)
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
        base = w2(mu0, mu1)
        if base < 1e-6:
            continue
        interp = {t: displacement_interpolate(mu0, mu1, t) for t in ts}
        for s in ts:
            for t in ts:
                if s < t:
                    got = w2(interp[s], interp[t])
                    assert abs(got - (t - s) * base) <= 5e-4 * base + 5e-3


# -- entropy -----------------------------------------------------------------------

def test_entropy_uniform_against_lebesgue():
    sp = flat_space()
    for L in (0.5, 1.0, 2.0):
        mu = uniform_measure(sp, 0.0, L)
        assert entropy(mu) == pytest.approx(-math.log(L), abs=1e-12)


def test_entropy_constant_weight_shift():
    c = 0.7
    sp = Space1D(Topology1D("line"), WeightFn(np.array([0.0, 4.0]), np.full(2, c)),
                 window=(0.0, 4.0))
    mu = uniform_measure(sp, 0.0, 1.0)
    assert entropy(mu) == pytest.approx(c, abs=1e-12)
    orc = trapezoid_refined(lambda x: (1.0 * math.exp(c)) * math.log(1.0 * math.exp(c))
                            * math.exp(-c), 0.0, 1.0)
    assert entropy(mu) == pytest.approx(orc, abs=1e-10)


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
    assert entropy(muV) == pytest.approx(entropy(mu) + int_v, abs=5e-4)


def per_knot_entropy(space, xs, xe, masses):
    """entropy_of_segments with one scalar weight call per knot of each
    unwrapped segment: the reference the one-lookup-per-segment version must
    reproduce bit for bit."""
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
        pts = w.knots_in(s, e)
        vals = np.array([w(p) for p in pts])
        total += rho * float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(pts)))
    return total


def weighted_space(kind):
    """A 301-knot wavy weight on each topology; the circle has circumference 2 pi."""
    if kind == "circle":
        circ = 2.0 * math.pi
        xs = np.linspace(0.0, circ, 301, endpoint=False)
        return Space1D(Topology1D("circle", 1.0),
                       WeightFn(xs, np.sin(2.0 * xs) + 0.3 * np.cos(5.0 * xs), period=circ),
                       grid_step=circ / 301)
    lo, hi = {"line": (-3.0, 3.0), "halfline": (0.0, 4.0), "interval": (0.0, 2.0)}[kind]
    xs = np.linspace(lo, hi, 301)
    w = WeightFn(xs, np.sin(3.0 * xs) + 0.2 * xs * xs)
    if kind == "interval":
        return Space1D(Topology1D("interval", hi), w, grid_step=(hi - lo) / 300)
    return Space1D(Topology1D(kind), w, grid_step=(hi - lo) / 300, window=(lo, hi))


@st.composite
def segment_lists(draw, kind):
    """(xs, xe, masses) of 1-6 segments inside the weight's range; on the
    circle they start anywhere in (-c, 2c) and may wrap; masses include
    slivers (<= 1e-12, skipped) and zero widths (an atom: inf)."""
    space = weighted_space(kind)
    if kind == "circle":
        c = space.topology.circumference
        lo, hi, max_width = -c, 2.0 * c, 0.99 * c
    else:
        lo, hi = space.domain()
        max_width = hi - lo
    xs, xe, ms = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.one_of(st.sampled_from([0.0, 1e-9]),
                               *[st.floats(1e-6, max_width)] * 3))
        top = hi - width if kind != "circle" else hi
        start = draw(st.floats(lo, max(lo, top)))
        xs.append(start)
        xe.append(min(start + width, space.domain()[1]) if kind != "circle" else start + width)
        ms.append(draw(st.sampled_from([0.0, 1e-13, 1e-12]) | st.floats(1e-6, 1.0)))
    return space, xs, xe, ms


@pytest.mark.parametrize("kind", ("line", "halfline", "interval", "circle"))
@settings(max_examples=25)
@given(data=st.data(), as_arrays=st.booleans())
def test_entropy_of_segments_matches_per_knot_loop(kind, data, as_arrays):
    space, xs, xe, ms = data.draw(segment_lists(kind))
    if as_arrays:
        xs, xe, ms = np.array(xs), np.array(xe), np.array(ms)
    assert entropy_of_segments(space, xs, xe, ms) == per_knot_entropy(space, xs, xe, ms)


def test_entropy_of_segments_matches_per_knot_loop_on_interpolants():
    # the segments verify_cde feeds it: circle pairs whose interpolants wrap
    space = weighted_space("circle")
    c = space.topology.circumference
    pairs = [((5.8, 6.2), (0.1, 0.9)), ((0.3, 1.1), (4.9, 6.1)), ((6.0, 6.28), (6.1, 6.2))]
    for (a0, b0), (a1, b1) in pairs:
        mu0, mu1 = uniform_measure(space, a0, b0), uniform_measure(space, a1, b1)
        _, bp0, bp1 = transport1d._coupling(mu0, mu1)
        wrapped = False
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            xs, xe, ms = transport1d._interpolant_segments(bp0, bp1, t)
            wrapped |= bool(np.any(np.floor(xs / c) != np.floor(xe / c)))
            assert entropy_of_segments(space, xs, xe, ms) == per_knot_entropy(space, xs, xe, ms)
        assert wrapped


def test_entropy_of_segments_one_weight_lookup_per_piece(monkeypatch):
    calls = []
    lookup = WeightFn.__call__

    def counting(self, x):
        calls.append(np.size(x))
        return lookup(self, x)

    monkeypatch.setattr(WeightFn, "__call__", counting)
    # on the circle (c = 2 pi) the second segment wraps through 0 and is
    # still looked up once, unwrapped
    for kind, xs, xe in (("line", [0.1, 2.0], [1.4, 2.9]), ("circle", [0.1, 6.0], [1.4, 6.9])):
        space, ms = weighted_space(kind), [0.5, 0.5]
        calls.clear()
        entropy_of_segments(space, xs, xe, ms)
        assert calls == [len(space.weight.knots_in(s, e)) for s, e in zip(xs, xe)]
        assert len(calls) == 2


def test_entropy_of_a_narrow_arc_before_the_cut():
    # the arc reaches the weight unwrapped; shifting it into [0, 2 pi) first
    # rounds its width 9.999999717e-10 to 1.0000000827e-9 (19.899099257487638)
    space = weighted_space("circle")
    s, e = -1.0, -1.0 + 1e-9
    f = space.weight
    want = math.log(1.0 / (e - s)) + 0.5 * (f(s) + f(e))
    assert abs(want - 19.899099348988504) <= 1e-12
    assert abs(entropy_of_segments(space, [s], [e], [1.0]) - want) <= 1e-12


def test_renyi_of_a_narrow_arc_across_the_cut():
    # int rho^(1/2) dm of the uniform law on [-1e-9, 1e-9] is sqrt(2e-9); the
    # arc split at 0 gave 7.4e-12 off
    space = circle_space()
    want = 2.0 - 2.0 * math.sqrt(2e-9)
    assert abs(renyi_of_segments(space, [-1e-9], [1e-9], [1.0], 2.0) - want) <= 1e-15


def test_circle_interpolant_cells_tile_one_turn():
    # the interpolant at t = 1/2 is uniform on [6.1416, 6.4416], across the cut
    # at c = 2 pi: its cells end exactly at c, and the cells on both sides of
    # the cut carry its density 10/3 (a last edge at 6.284 > c gave 0.6177)
    space = circle_space()
    c = space.topology.circumference
    mu0, mu1 = uniform_measure(space, 5.9, 6.2), uniform_measure(space, 0.1, 0.4)
    mu_t = displacement_interpolate(mu0, mu1, 0.5)
    assert mu_t.edges[0] == 0.0 and mu_t.edges[-1] == c
    assert len(mu_t.density) == math.ceil(c / space.grid_step)
    assert mu_t.density[0] == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert mu_t.density[-1] == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert abs(float(np.sum(mu_t.cell_masses())) - 1.0) <= 1e-12


def test_entropy_of_segments_outside_window_raises():
    space = weighted_space("line")
    lo, hi = space.domain()
    with pytest.raises(WindowError):
        entropy_of_segments(space, [hi - 0.5], [hi + 0.5], [1.0])
    with pytest.raises(WindowError):
        entropy_of_segments(space, [lo - 0.2, 0.0], [lo + 0.3, 0.5], [0.5, 0.5])


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
            exact = entropies_along(mu0, mu1, [t])[1][0]
            binned = entropy(displacement_interpolate(mu0, mu1, t))
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
        _, ents = entropies_along(mu0, mu1, [float(t) for t in ts])
        second = np.diff(ents, 2)
        assert np.min(second) >= -1e-5


# -- renyi --------------------------------------------------------------------------

def test_renyi_uniforms():
    sp = flat_space()
    assert renyi(uniform_measure(sp, 0.0, 1.0), 4.0) == pytest.approx(0.0, abs=1e-12)
    for N in (2.0, 8.0):
        want = N - N * 2.0 ** (1.0 / N)
        assert renyi(uniform_measure(sp, 0.0, 2.0), N) == pytest.approx(want, abs=1e-12)


def test_renyi_converges_to_entropy():
    sp = flat_space()
    mu = uniform_measure(sp, 0.0, 2.0)
    ent = entropy(mu)
    assert renyi(mu, 2.0 ** 20) == pytest.approx(ent, rel=1e-5)


def test_renyi_nondecreasing_in_n_battery():
    sp = flat_space(0.0, 1.0)
    rng = np.random.default_rng(41)
    ns = [2.0 ** k for k in range(1, 11)]
    for _ in range(8):
        dens = rng.uniform(0.2, 3.0, size=50)
        mu = measure_from_density(sp, lambda x: np.interp(x, np.linspace(0, 1, 50), dens),
                                  0.0, 1.0, n_cells=500)
        vals = [renyi(mu, N) for N in ns]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= entropy(mu) + 1e-9


def test_renyi_of_segments_ignores_an_atom():
    # the singular part of mu adds nothing to int rho^(1-1/N) dm, as for an
    # atom in a uniform piece's support or outside it
    space = weighted_space("interval")
    for N in (2.0, 5.0):
        want = renyi_of_segments(space, [0.5], [1.5], [0.7], N)
        for atom in (0.2, 1.0):
            for conv in (list, np.array):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = renyi_of_segments(space, conv([atom, 0.5]), conv([atom, 1.5]),
                                            conv([0.3, 0.7]), N)
                assert got == want


def test_measure_validation():
    sp = flat_space()
    with pytest.raises(ValueError):
        ProbMeasure1D(sp, np.array([0.0, 1.0]), np.array([2.0]))  # mass 2
    with pytest.raises(ValueError):
        ProbMeasure1D(sp, np.array([1.0, 0.0]), np.array([1.0]))  # bad edges
    with pytest.raises(ValueError):
        ProbMeasure1D(sp, np.array([0.0, 1.0]), np.array([-1.0]))


def test_w2_rejects_space_mismatch():
    # two loads of one description couple (comparing their weights raised
    # numpy's "truth value of an array is ambiguous"); different spaces do not
    desc = {"topology": "interval", "param": 1}
    a, b = load_space(desc), load_space(desc)
    assert w2(uniform_measure(a, 0.0, 0.5), uniform_measure(b, 0.5, 1.0)) == pytest.approx(0.5)
    for other in (load_space(dict(desc, param=2)),
                  load_space(dict(desc, weight={"coords": [0, 1], "f": [0, 1]}))):
        with pytest.raises(ValueError, match="measures live on different spaces"):
            w2(uniform_measure(a, 0.0, 0.5), uniform_measure(other, 0.5, 1.0))
    # a measure lies on its space; on a circle it starts in [0, c) and spans at most one
    # turn (uniform [100, 101] sat 15 turns from its arc in w2, [0, 10] had Ent -log 10)
    c = circle_space()
    for space, lo, hi in ((a, -5.0, 5.0), (c, 0.0, 10.0), (c, 100.0, 101.0)):
        with pytest.raises(ValueError, match=rf"^support \[{lo}, {hi}\] (leaves|must start)"):
            uniform_measure(space, lo, hi)
    coarse = Space1D(a.topology, grid_step=0.3)  # an interpolant's aligned grid ends at 1.2
    mid = displacement_interpolate(*(uniform_measure(coarse, lo, 1) for lo in (0.5, 0)), 0.5)
    assert mid.support_window == (0.0, 1.0)


# -- metric properties ----------------------------------------------------------------

CIRC = 2.0 * math.pi
# the circle cut searches shifts in [-1, 1 - 1e-12]: J(alpha) has slope at
# most 4 c^2 there (|Q0 - Q1| <= 2c and Q1 rises by c per unit of u), so a
# minimum at the excluded end alpha = 1 costs up to 4 c^2 * 1e-12 of W2^2
CUT_SLACK = 4.0 * CIRC * CIRC * 1e-12


@st.composite
def histogram_edges(draw, lo=0.0, hi=CIRC * (1.0 - 1e-9)):
    """(edges, density) of a probability histogram with 1-4 cells in [lo, hi],
    zero-density cells included (jumps of the quantile graph)."""
    n = draw(st.integers(1, 4))
    start = draw(st.floats(lo, lo + 0.9 * (hi - lo)))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    span = draw(st.floats(0.02, 1.0)) * (hi - start)
    edges = start + span * np.concatenate([[0.0], np.cumsum(gaps) / np.sum(gaps)])
    dens = np.array(draw(st.lists(st.just(0.0) | st.floats(0.05, 1.0),
                                  min_size=n, max_size=n)))
    if not np.any(dens > 0.0):
        dens[draw(st.integers(0, n - 1))] = 1.0
    return edges, dens / np.sum(dens * np.diff(edges))


def unrolled_line():
    """The circle of circumference 2 pi cut open at 0, as a flat line window."""
    return flat_space(0.0, CIRC)


@settings(max_examples=30)
@given(a=histogram_edges(), b=histogram_edges(), c=histogram_edges())
@example(a=(np.array([2.0, 3.0, 4.0]), np.array([1.0 + 1e-12, 0.0])),
         b=(np.array([0.5, 1.0]), np.array([2.0])), c=(np.array([5.0, 6.0]), np.array([1.0])))
def test_w2_is_a_metric_on_line_and_circle(a, b, c):
    for space in (unrolled_line(), circle_space()):
        mu = [ProbMeasure1D(space, *h) for h in (a, b, c)]
        ab, ba = w2(mu[0], mu[1]), w2(mu[1], mu[0])
        bc, ac = w2(mu[1], mu[2]), w2(mu[0], mu[2])
        for m in mu:
            assert w2(m, m) == 0.0
        if space.topology.kind == "circle":
            assert abs(ab * ab - ba * ba) <= CUT_SLACK
            assert ac <= ab + bc + math.sqrt(CUT_SLACK)
        else:
            assert ab == ba
            assert ac <= ab + bc + 1e-12


@settings(max_examples=40)
@given(a=histogram_edges(), b=histogram_edges())
def test_circle_w2_at_most_unrolled_line_w2(a, b):
    # the circle may route mass through the cut point; the line may not
    line, circle = unrolled_line(), circle_space()
    on_line = w2(ProbMeasure1D(line, *a), ProbMeasure1D(line, *b))
    on_circle = w2(ProbMeasure1D(circle, *a), ProbMeasure1D(circle, *b))
    assert on_circle * on_circle <= on_line * on_line + 1e-12


@settings(max_examples=40)
@given(a=histogram_edges(), b=histogram_edges(), t=st.floats(0.0, 1.0),
       kind=st.sampled_from(("line", "circle")))
def test_interpolant_conserves_mass(a, b, t, kind):
    # the exact interpolant segments carry mass 1, and re-binning them (on two
    # turns, folded onto one, on the circle) loses none of it
    space = unrolled_line() if kind == "line" else circle_space()
    mu0, mu1 = ProbMeasure1D(space, *a), ProbMeasure1D(space, *b)
    _, bp0, bp1 = transport1d._coupling(mu0, mu1)
    _, _, ms = transport1d._interpolant_segments(bp0, bp1, t)
    assert abs(float(np.sum(ms)) - 1.0) <= 1e-12
    binned = []
    bin_segments = transport1d._bin_segments

    def recording(xs, xe, masses, *args):
        edges, hist = bin_segments(xs, xe, masses, *args)
        binned.append((float(np.sum(masses)), float(np.sum(hist))))
        return edges, hist

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport1d, "_bin_segments", recording)
        mu_t = displacement_interpolate(mu0, mu1, t)
    (before, after), = binned
    assert abs(before - 1.0) <= 1e-12 and abs(after - 1.0) <= 1e-12
    assert abs(float(np.sum(mu_t.cell_masses())) - 1.0) <= 1e-12


def test_quantile_anchors_stay_monotone_before_trailing_empty_cells():
    # cell masses summing to 1 + 1e-12 ahead of a zero-density cell: pinning
    # only the last anchor to 1 left U non-monotone, and the circle W2 of a
    # measure with itself came out 5.8e-7
    space = circle_space()
    mu = ProbMeasure1D(space, np.array([2.0, 3.0, 4.0]), np.array([1.0 + 1e-12, 0.0]))
    U, _ = _breakpoints(mu)
    assert np.all(np.diff(U) >= 0.0) and U[-1] == 1.0
    assert w2(mu, mu) == 0.0


# -- circle cut helpers against their frozen copies -----------------------------------

@st.composite
def cut_histograms(draw, circ):
    """(edges, density) on [0, circ): an arc, or 1-40 cells with zero-density
    cells, optionally trailing ones and cells whose mass vanishes in the
    cumulative sum (both repeat the anchor u = 1)."""
    start = draw(st.floats(0.0, 0.9 * circ))
    span = draw(st.floats(1e-3, 1.0)) * (circ * (1.0 - 1e-9) - start)
    n = draw(st.integers(1, 40))
    if n == 1:
        return np.array([start, start + span]), np.array([1.0 / span])
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    edges = start + span * np.concatenate([[0.0], np.cumsum(gaps) / np.sum(gaps)])
    dens = np.array(draw(st.lists(st.just(0.0) | st.just(1e-17) | st.floats(0.05, 1.0),
                                  min_size=n, max_size=n)))
    dens[n - draw(st.integers(0, min(3, n - 1))):] = 0.0
    if not np.any(dens > 1e-17):
        dens[draw(st.integers(0, n - 1))] = 1.0
    return edges, dens / np.sum(dens * np.diff(edges))


@settings(max_examples=60)
@given(data=st.data(), radius=st.sampled_from([0.5, 1.0, 3.0]))
def test_circle_cut_helpers_match_frozen_copies(data, radius):
    # the small-array rewrite of the cut's objective keeps every float
    # operation and its order: values, anchors and the cut agree with ==
    from oracles import (frozen_circle_cut, frozen_eval_quantile, frozen_merged_pieces,
                         frozen_shifted_bp, frozen_w2sq_line_bp)

    space = circle_space(radius)
    circ = space.topology.circumference
    mu0, mu1 = (ProbMeasure1D(space, *data.draw(cut_histograms(circ))) for _ in range(2))
    bp0, ext1 = _breakpoints(mu0), _extended_bp(mu1)
    U1 = _breakpoints(mu1)[0]
    alphas = [-1.0, 1.0 - 1e-12, -5e-324, *U1, *(U1[1:] - 1.0),
              *data.draw(st.lists(st.floats(-1.0, 1.0 - 1e-12), max_size=8))]
    for alpha in alphas:
        got, want = _shifted_bp(ext1, alpha), frozen_shifted_bp(ext1, alpha)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), alpha
        pieces = zip(transport1d._merged_pieces(bp0, got), frozen_merged_pieces(bp0, want))
        assert all(np.array_equal(g, w) for g, w in pieces)
        assert np.array_equal(_w2sq_line_bp(bp0, got), frozen_w2sq_line_bp(bp0, want))
    assert _circle_cut(bp0, ext1) == frozen_circle_cut(bp0, ext1)
    q = np.concatenate([np.linspace(0.0, 1.0, 17), bp0[0]])
    fn = quantile(mu0)
    assert np.array_equal(fn(q), frozen_eval_quantile(*bp0, q))
    assert all(fn(float(u)) == frozen_eval_quantile(*bp0, u)[0] for u in q)


def test_a_subnormal_shift_is_no_shift():
    # a jump at u = 0 kept as two anchors 5e-324 apart overflowed its slope,
    # and the objective read NaN with two RuntimeWarnings
    space = circle_space()
    ext1 = _extended_bp(ProbMeasure1D(space, np.array([0.5, 1.0, 1.5]), np.array([0.0, 2.0])))
    bp0 = _breakpoints(uniform_measure(space, 2.0, 3.0))
    at_zero = _w2sq_line_bp(bp0, _shifted_bp(ext1, 0.0))
    assert at_zero == 1.5833333333333333
    for alpha in (-5e-324, 5e-324, -1e-301):
        assert _w2sq_line_bp(bp0, _shifted_bp(ext1, alpha)) == at_zero, alpha
