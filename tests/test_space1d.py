import json
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from curvlab1d.space1d import (
    RescaledSpace, Space1D, Topology1D, WeightFn, WindowError,
    boundary_measure, load_space, measure_ball, rescale,
    space_to_dict,
)
from curvlab1d.space1d import _ball_masses, _seg_exp_integral

from oracles import cover_boundary_mass, trapezoid_refined


def flat_line(half=5.0):
    return Space1D(Topology1D("line"), window=(-half, half))


def flat_halfline(hi=10.0):
    return Space1D(Topology1D("halfline"), window=(0.0, hi))


def flat_circle(radius=1.0):
    return Space1D(Topology1D("circle", radius))


def weighted_interval():
    # f(x) = x on [0, 1]
    return Space1D(Topology1D("interval", 1.0),
                   WeightFn(np.array([0.0, 1.0]), np.array([0.0, 1.0])))


# -- measure_ball -------------------------------------------------------------

def test_ball_flat_line():
    assert measure_ball(flat_line(), 0.0, 3.0) == pytest.approx(6.0, abs=1e-14)


def test_ball_flat_halfline_one_sided():
    assert measure_ball(flat_halfline(), 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_ball_weighted_interval_against_refinement_oracle():
    space = weighted_interval()
    got = measure_ball(space, 0.5, 0.25)
    exact = math.exp(-0.25) - math.exp(-0.75)
    assert got == pytest.approx(exact, abs=1e-14)
    orc = trapezoid_refined(lambda x: math.exp(-x), 0.25, 0.75)
    assert got == pytest.approx(orc, abs=1e-10)


def test_ball_monotone_and_lipschitz_in_radius():
    space = weighted_interval()
    rs = np.linspace(0.0, 0.6, 25)
    vals = [measure_ball(space, 0.4, float(r)) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    sup_dens = 1.0  # exp(-f) <= 1 on [0, 1]
    for (r1, v1), (r2, v2) in zip(zip(rs, vals), zip(rs[1:], vals[1:])):
        assert v2 - v1 <= 2.0 * sup_dens * (r2 - r1) + 1e-12


def test_ball_circle_caps_at_total_mass():
    space = flat_circle()
    total = 2 * math.pi
    assert measure_ball(space, 1.0, math.pi) == pytest.approx(total, abs=1e-12)
    assert measure_ball(space, 1.0, 10.0) == pytest.approx(total, abs=1e-12)


def test_ball_circle_narrow_across_the_cut():
    # (-1e-9, 1e-9) reaches the weight unwrapped; split at 0 and shifted by
    # 2 pi, its left half came out 4.1e-8 relative high
    assert measure_ball(flat_circle(), 0.0, 1e-9) == pytest.approx(2e-9, rel=1e-15, abs=0)


def test_ball_circle_translation_invariance():
    circ = 2 * math.pi
    coords = np.linspace(0.0, circ, 64, endpoint=False)
    space = Space1D(Topology1D("circle", 1.0),
                    WeightFn(coords, np.full(64, 0.3), period=circ))
    vals = [measure_ball(space, x, 0.8) for x in np.linspace(0, circ, 17)]
    assert max(vals) - min(vals) < 1e-12


# weights on [-4, 4]: range 40 and more, where a difference of prefix sums
# cancels, and a gentle one
WEIGHTS = {
    "2.5x^2": lambda u: 2.5 * u * u,
    "-2.5x^2": lambda u: -2.5 * u * u,
    "10sin3x": lambda u: 10.0 * np.sin(3.0 * u),
    "0.3x^2+sin": lambda u: 0.3 * u * u + 0.1 * np.sin(5.0 * u),
}


def space_of_length_8(kind, fn, knots=801):
    """kind over a domain of length 8 carrying fn(u), u in [-4, 4]."""
    if kind == "circle":
        xs = np.linspace(0.0, 8.0, knots, endpoint=False)
        return Space1D(Topology1D("circle", 4.0 / math.pi),
                       WeightFn(xs, fn(xs - 4.0), period=8.0), grid_step=0.01)
    lo = -4.0 if kind == "line" else 0.0
    xs = np.linspace(lo, lo + 8.0, knots)
    w = WeightFn(xs, fn(xs - lo - 4.0))
    if kind == "interval":
        return Space1D(Topology1D("interval", 8.0), w, grid_step=0.01)
    return Space1D(Topology1D(kind), w, grid_step=0.01, window=(lo, lo + 8.0))


@settings(max_examples=60)
@given(kind=st.sampled_from(("line", "halfline", "interval", "circle")),
       weight=st.sampled_from(sorted(WEIGHTS)), at=st.floats(0.0, 1.0),
       size=st.floats(0.001, 1.0), cut=st.floats(0.0, 1.0, exclude_min=True,
                                                  exclude_max=True))
def test_measure_ball_is_additive(kind, weight, at, size, cut):
    space = space_of_length_8(kind, WEIGHTS[weight])
    w = space.weight
    lo, hi = space.domain()
    x = lo + (hi - lo) * at
    if kind == "circle":
        r = 4.0 * size
    elif kind == "line":
        x = min(max(x, lo + 1e-3), hi - 1e-3)
        r = min(x - lo, hi - x) * size
    elif kind == "halfline":  # the window closes the right end only
        x = min(x, hi - 1e-3)
        r = (hi - x) * size
    else:
        r = 8.0 * size
    parts = [space._ball_interval(x, r)]
    # the ball is the sum of its intervals, each a sum over its own segments:
    # a difference of running totals from the left end cancels on weights
    # like these (2.5x^2: 6.6e-6 relative), a slice sum stays near 1e-13
    ball = measure_ball(space, x, r)
    assert ball > 0.0
    total = sum(w.integrate_density(a, b) for a, b in parts)
    assert abs(ball - total) <= 1e-13 * ball
    segments = 0.0
    for a, b in parts:
        knots = w.knots_in(a, b)
        v = w(knots)
        segments += sum(_seg_exp_integral(v[i], v[i + 1], knots[i + 1] - knots[i])
                        for i in range(len(knots) - 1))
    assert abs(ball - segments) <= 1e-11 * ball
    # an interval is the sum of its two halves at an interior point
    for a, b in parts:
        m = a + (b - a) * cut
        if not a < m < b:
            continue
        whole = w.integrate_density(a, b)
        assert abs(whole - (w.integrate_density(a, m) + w.integrate_density(m, b))) \
            <= 1e-13 * whole


def test_ball_window_errors():
    with pytest.raises(WindowError):
        measure_ball(flat_line(2.0), 1.0, 1.5)
    with pytest.raises(WindowError):
        measure_ball(flat_halfline(3.0), 2.0, 1.5)
    with pytest.raises(ValueError):
        measure_ball(flat_line(), 99.0, 0.1)


SPHERE_CALLS = (boundary_measure, lambda space, x, r: space.sphere_coords(x, r))


@pytest.mark.parametrize("space,x", [(weighted_interval(), 0.3), (flat_line(), 0.0),
                                     (flat_halfline(), 1.0), (flat_circle(), 1.0)])
def test_ball_nan_radius_raises(space, x):
    # an interval used to give its whole mass, a line or half-line NaN
    with pytest.raises(ValueError, match="radius must be >= 0, got nan"):
        measure_ball(space, x, math.nan)
    with pytest.raises(ValueError, match="radius must be >= 0, got nan"):
        _ball_masses(space, [space._ball_interval(x, r) for r in (0.1, math.nan)])
    # a sphere gave no points (mass 0) at a NaN radius and two at a negative one
    for call in SPHERE_CALLS:
        for r in (math.nan, -1.0):
            with pytest.raises(ValueError, match=f"must be >?=? 0, got {r}"):
                call(space, x, r)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_circle_rejects_a_non_finite_centre(x):
    space = flat_circle()
    assert not space.contains(x)
    with pytest.raises(ValueError, match="outside the domain"):
        measure_ball(space, x, 0.5)
    with pytest.raises(ValueError, match="outside the domain"):
        _ball_masses(space, [space._ball_interval(z, 0.5) for z in (1.0, x)])


def test_infinite_radius_leaves_a_line_window():
    with pytest.raises(WindowError):
        measure_ball(flat_line(), 0.0, math.inf)
    assert measure_ball(flat_circle(), 0.0, math.inf) == pytest.approx(2 * math.pi)


def random_pl_space(kind, gaps, f, length=4.0):
    """kind over a domain of the given length, knots spaced by the gaps."""
    if kind == "circle":  # first knot at 0, last one gap short of the period
        coords = np.cumsum(gaps) * (length / np.sum(gaps))
        return Space1D(Topology1D("circle", length / (2 * math.pi)),
                       WeightFn(coords - coords[0], f, period=length))
    coords = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) * (length / np.sum(gaps[:-1]))
    coords[-1] = length
    if kind == "interval":
        return Space1D(Topology1D("interval", length), WeightFn(coords, f))
    lo = -length / 2.0 if kind == "line" else 0.0
    return Space1D(Topology1D(kind), WeightFn(coords + lo, f), window=(lo, lo + length))


def pair_differences(mass, ball_x, ball_y):
    """m(B_x) - m(B_y) from the two balls' end pieces alone (the overlap cancels)."""
    (ax, bx), (ay, by) = ball_x, ball_y
    lo, hi = max(ax, ay), min(bx, by)  # the overlap, empty when hi <= lo
    return ((mass(ax, min(lo, bx)) + mass(max(hi, ax), bx))
            - (mass(ay, min(lo, by)) + mass(max(hi, ay), by)))


def next_to(space, near, ball):
    """ball shifted by the multiple of a circle's circumference that brings it nearest near."""
    if space.topology.kind != "circle":
        return ball
    c = space.topology.circumference
    shift = c * round((near[0] + near[1] - ball[0] - ball[1]) / (2.0 * c))
    return ball[0] + shift, ball[1] + shift


@settings(max_examples=120)
@given(data=st.data(), kind=st.sampled_from(("line", "halfline", "interval", "circle")),
       centres=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       pairs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                                st.integers(-1, 1)), max_size=4),
       repeats=st.integers(0, 3))
def test_ball_masses_match_measure_ball(data, kind, centres, pairs, repeats):
    # one mixed batch: nested radii around a few centres, pairs across a
    # circle's cut, disjoint and repeated balls, r = 0 and 2r >= c
    n = data.draw(st.integers(2, 40))
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    f = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    space = random_pl_space(kind, np.array(gaps), np.array(f))
    lo, hi = space.domain()
    radius = st.one_of(st.just(0.0), st.floats(0.0, 4.8))  # up to 1.2 domain lengths
    balls, couples = [], []  # (centre, r, ball); (index of x's ball, of y's)
    for at in centres:
        x = lo + (hi - lo) * at
        rs = data.draw(st.lists(radius, min_size=1, max_size=6))
        for r in sorted(rs + rs[:repeats]):
            try:  # the line and half-line stop at the window
                balls.append((x, r, space._ball_interval(x, r)))
            except WindowError:
                pass
    for at, offset, turns in pairs:
        r = data.draw(st.floats(0.0, 2.4))
        x = lo + (hi - lo) * at
        if kind == "circle":  # y anywhere on the unwrapped line
            y = x + (offset + turns) * (hi - lo)
        else:  # balls clipped at a domain end, or past the line's window
            y = min(max(x + offset * r, lo), hi)
        try:
            bx, by = space._ball_interval(x, r), space._ball_interval(y, r)
        except WindowError:
            continue
        couples.append((len(balls), len(balls) + 1))
        balls += [(x, r, bx), (y, r, next_to(space, bx, by))]
    mass = _ball_masses(space, [b for *_, b in balls])
    want = [measure_ball(space, x, r) for x, r, _ in balls]
    for (_, _, ball), w in zip(balls, want):
        assert abs(mass(*ball) - w) <= 1e-13 * w
    for i, j in couples:
        diff = pair_differences(mass, balls[i][2], balls[j][2])
        assert abs(diff - (want[i] - want[j])) <= 1e-13 * (want[i] + want[j])


@settings(max_examples=80)
@given(data=st.data(), kind=st.sampled_from(("line", "halfline", "interval", "circle")),
       at=st.floats(0.0, 1.0), repeats=st.integers(0, 3))
def test_nested_ball_masses_match_measure_ball(data, kind, at, repeats):
    n = data.draw(st.integers(2, 40))
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    f = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    space = random_pl_space(kind, np.array(gaps), np.array(f))
    lo, hi = space.domain()
    x = lo + (hi - lo) * at
    # up to 1.2 domain lengths: circle balls past c/2 and c, half-line and
    # interval balls clipped at an end, line balls past the window
    rs = data.draw(st.lists(st.floats(0.0, 4.8, exclude_min=True), min_size=1, max_size=8))
    radii = sorted(rs + rs[:repeats])
    want, balls = [], []
    for r in radii:
        try:
            want.append(measure_ball(space, x, r))
        except WindowError as exc:  # the line stops at the window, and so does the ball
            with pytest.raises(WindowError, match=re.escape(str(exc))):
                space._ball_interval(x, r)
            break
        balls.append(space._ball_interval(x, r))
    mass = _ball_masses(space, balls)
    for ball, w in zip(balls, want):
        assert abs(mass(*ball) - w) <= 1e-13 * w


@settings(max_examples=120)
@given(data=st.data(), kind=st.sampled_from(("line", "halfline", "interval", "circle")),
       at=st.floats(0.0, 1.0), offset=st.floats(-1.0, 1.0), turns=st.integers(-1, 1),
       r=st.floats(0.0, 2.4, exclude_min=True))
def test_ball_pair_masses_match_measure_ball(data, kind, at, offset, turns, r):
    n = data.draw(st.integers(2, 40))
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    f = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    space = random_pl_space(kind, np.array(gaps), np.array(f))
    lo, hi = space.domain()
    x = lo + (hi - lo) * at
    if kind == "circle":  # y anywhere on the unwrapped line: pairs across the cut
        y = x + offset * (hi - lo) + turns * (hi - lo)
    else:  # balls clipped at a domain end, or past the line's window
        y = min(max(x + offset * r, lo), hi)
    try:
        want = [measure_ball(space, z, r) for z in (x, y)]
    except WindowError as exc:
        with pytest.raises(WindowError, match=re.escape(str(exc))):
            [space._ball_interval(z, r) for z in (x, y)]
        return
    bx = space._ball_interval(x, r)
    by = next_to(space, bx, space._ball_interval(y, r))
    mass = _ball_masses(space, [bx, by])
    assert abs(mass(*bx) - want[0]) <= 1e-13 * want[0]
    assert abs(mass(*by) - want[1]) <= 1e-13 * want[1]
    diff = pair_differences(mass, bx, by)
    assert abs(diff - (want[0] - want[1])) <= 1e-13 * (want[0] + want[1])


def test_ball_masses_on_a_flat_circle():
    space = flat_circle()
    c = 2 * math.pi
    # across the cut: y's arc is shifted next to x's, not read a circle away
    bx = space._ball_interval(0.1, 0.5)
    by = next_to(space, bx, space._ball_interval(c - 0.1, 0.5))
    assert by == pytest.approx((-0.6, 0.4), abs=1e-15)
    mass = _ball_masses(space, [bx, by])
    assert mass(*bx) == pytest.approx(1.0, abs=1e-14) and mass(*by) == pytest.approx(1.0, abs=1e-14)
    assert abs(pair_differences(mass, bx, by)) <= 1e-15
    # 2r >= c: both balls are the whole circle, and the overlap cancels exactly
    whole = space._ball_interval(0.3, 3.5)
    assert whole == space._ball_interval(2.0, 3.5) == (0.0, c)
    mass = _ball_masses(space, [whole, whole])
    assert pair_differences(mass, whole, whole) == 0.0
    assert mass(*whole) == pytest.approx(c, abs=1e-14)


def test_ball_masses_skip_the_gap_between_disjoint_balls(monkeypatch):
    space = weighted_interval()
    pieces = []
    integrate = WeightFn.integrate_density

    def recording(self, lo, hi, scale=1.0):
        pieces.append((lo, hi))
        return integrate(self, lo, hi, scale)

    monkeypatch.setattr(WeightFn, "integrate_density", recording)
    mass = _ball_masses(space, [(0.1, 0.3), (0.2, 0.4), (0.6, 0.7), (0.6, 0.7)])
    assert pieces == [(0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.6, 0.7)]
    assert mass(0.1, 0.4) == pytest.approx(math.exp(-0.1) - math.exp(-0.4), rel=1e-14)
    assert mass(0.6, 0.7) == pytest.approx(math.exp(-0.6) - math.exp(-0.7), rel=1e-14)


# -- boundary_measure: closed form validated against the cover definition ------

def test_boundary_closed_form_line_vs_cover_oracle():
    space = flat_line()
    got = boundary_measure(space, 0.0, 1.0)
    assert got == pytest.approx(4.0, abs=1e-14)
    limit, vals = cover_boundary_mass(space, [-1.0, 1.0])
    assert got == pytest.approx(limit, rel=2e-3)
    # the delta values decrease toward the limit
    assert vals[0] >= vals[-1] >= got - 1e-6


def test_boundary_closed_form_halfline_vs_cover_oracle():
    space = flat_halfline()
    got = boundary_measure(space, 0.0, 1.0)
    assert got == pytest.approx(2.0, abs=1e-14)
    limit, _ = cover_boundary_mass(space, [1.0])
    assert got == pytest.approx(limit, rel=2e-3)


def test_boundary_halfline_endpoint_midpoint_mix():
    # sphere around x0=1 at t=1 hits the endpoint 0 (mass 1) and 2 (mass 2)
    space = flat_halfline()
    assert boundary_measure(space, 1.0, 1.0) == pytest.approx(3.0, abs=1e-14)
    limit, _ = cover_boundary_mass(space, [0.0, 2.0])
    assert limit == pytest.approx(3.0, rel=2e-3)


def test_boundary_weighted_vs_cover_oracle():
    space = weighted_interval()
    got = boundary_measure(space, 0.5, 0.3)
    want = 2 * math.exp(-0.2) + 2 * math.exp(-0.8)
    assert got == pytest.approx(want, abs=1e-14)
    limit, _ = cover_boundary_mass(space, [0.2, 0.8])
    assert got == pytest.approx(limit, rel=2e-3)


def test_boundary_circle_antipode():
    space = flat_circle()
    assert boundary_measure(space, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_boundary_empty_sphere_is_error():
    with pytest.raises(ValueError):
        boundary_measure(weighted_interval(), 0.5, 0.8)
    with pytest.raises(ValueError):
        boundary_measure(flat_circle(), 0.0, 4.0)


# -- disintegration: the fiber mass m_r is half the boundary measure ----------------

def fiber_mass(space, x, r):
    """m_r, half of boundary_measure: exp(-f) per sphere point, half that
    at an end where the space stops."""
    return 0.5 * boundary_measure(space, x, r)


def test_disintegrate_trivial_atoms():
    assert flat_line().sphere_coords(0.0, 2.0) == [-2.0, 2.0]
    assert fiber_mass(flat_line(), 0.0, 2.0) == 2.0
    assert flat_halfline().sphere_coords(0.0, 2.0) == [2.0]
    assert fiber_mass(flat_halfline(), 0.0, 2.0) == 1.0


def test_disintegrate_weighted_and_integral_consistency():
    space = weighted_interval()
    assert space.sphere_coords(0.0, 0.3) == [pytest.approx(0.3)]
    assert fiber_mass(space, 0.0, 0.3) == pytest.approx(math.exp(-0.3), abs=1e-14)
    # int_0^0.5 m_r dr reproduces the ball measure (the lower limit dodges
    # r = 0, which boundary_measure refuses, costing ~1e-9 of mass)
    orc = trapezoid_refined(lambda r: fiber_mass(space, 0.0, r), 1e-9, 0.5)
    assert orc == pytest.approx(measure_ball(space, 0.0, 0.5), abs=5e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_disintegrate_annulus_compatibility_battery(seed):
    rng = np.random.default_rng(seed)
    coords = np.linspace(-3.0, 3.0, 40)
    fvals = rng.normal(0.0, 0.4, size=40)
    space = Space1D(Topology1D("line"), WeightFn(coords, fvals), window=(-3, 3))
    origin = float(rng.uniform(-1.0, 1.0))
    r1 = float(rng.uniform(0.1, 0.8))
    r2 = r1 + float(rng.uniform(0.2, 0.9))
    annulus = measure_ball(space, origin, r2) - measure_ball(space, origin, r1)
    orc = trapezoid_refined(lambda r: fiber_mass(space, origin, r), r1, r2)
    assert orc == pytest.approx(annulus, rel=1e-8, abs=1e-10)


def test_disintegrate_circle_antipode_merges():
    # both directions meet in one point, which carries exp(-f) once: the
    # fiber halves at pi, where just short of it two points carry exp(-f)
    space = flat_circle()
    assert space.sphere_coords(0.0, math.pi) == [pytest.approx(math.pi)]
    assert fiber_mass(space, 0.0, math.pi) == pytest.approx(1.0, abs=1e-12)
    assert len(space.sphere_coords(0.0, math.pi - 1e-6)) == 2
    assert fiber_mass(space, 0.0, math.pi - 1e-6) == pytest.approx(2.0, abs=1e-12)


# -- one end rule for balls and spheres ---------------------------------------------

@pytest.mark.parametrize("space,x,r", [(flat_line(), 1.0, 5.5), (flat_halfline(8.0), 7.0, 2.0),
                                       (flat_line(), 0.0, 6.0)])
def test_sphere_past_the_window_raises_the_balls_window_error(space, x, r):
    # a sphere point past the window was dropped: half a sphere, or none
    with pytest.raises(WindowError) as ball:
        measure_ball(space, x, r)
    for call in SPHERE_CALLS:
        with pytest.raises(WindowError) as sphere:
            call(space, x, r)
        assert str(sphere.value) == str(ball.value)


def test_sphere_at_the_window_end_is_interior():
    # the window cuts the line, the line does not stop there: 2 exp(-f) per point
    assert boundary_measure(flat_line(), 0.0, 5.0) == 4.0
    assert flat_line().sphere_coords(0.0, 5.0) == [-5.0, 5.0]
    assert not flat_halfline().is_domain_endpoint(10.0)
    assert flat_halfline().is_domain_endpoint(0.0)


@settings(max_examples=150)
@given(data=st.data(), kind=st.sampled_from(("line", "halfline", "interval", "circle")),
       at=st.floats(0.0, 1.0), r=st.floats(0.0, 4.8, exclude_min=True))
def test_spheres_follow_the_ball_end_rule(data, kind, at, r):
    n = data.draw(st.integers(2, 40))
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    f = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    space = random_pl_space(kind, np.array(gaps), np.array(f))
    lo, hi = space.domain()
    x = lo + (hi - lo) * at
    try:
        measure_ball(space, x, r)
    except WindowError as exc:
        for call in SPHERE_CALLS:
            with pytest.raises(WindowError) as sphere:
                call(space, x, r)
            assert str(sphere.value) == str(exc)
        return
    # the sphere's derivative is its fiber mass where nothing changes within
    # 2 delta: no knot, domain end or antipode, and r - delta > 0
    delta = 1e-5
    assume(r > 2 * delta)
    for y in (x - r, x + r):
        assume(min(space.distance(y, k) for k in space.weight.coords) >= 2 * delta)
        if kind == "circle":
            assume(abs(r - (hi - lo) / 2.0) >= 2 * delta)
        else:
            assume(min(abs(y - lo), abs(y - hi)) >= 2 * delta)
    pts = space.sphere_coords(x, r)
    fiber = fiber_mass(space, x, r) if pts else 0.0
    want = (measure_ball(space, x, r + delta) - measure_ball(space, x, r - delta)) / (2 * delta)
    # the central difference of exp(-f), f linear with slope at most 6 / 0.005
    # here, is off by (1200 delta)^2 / 6 = 2.4e-5 relative at most
    assert abs(fiber - want) <= 3e-5 * want + 1e-9
    if pts:  # no point at an end where the space stops: 2 exp(-f) each
        assert fiber == pytest.approx(sum(math.exp(-space.weight(y)) for y in pts), rel=1e-15)
    else:
        with pytest.raises(ValueError, match="is empty"):
            boundary_measure(space, x, r)


# -- rescaling --------------------------------------------------------------------

def test_rescale_flat_line_normalizations():
    space = flat_line()
    assert rescale(space, 0.0, 1.0).normalization == pytest.approx(1.0, abs=1e-12)
    assert rescale(space, 0.0, 2.0).normalization == pytest.approx(2.0, abs=1e-12)


def test_rescale_ball_identity():
    space = flat_line()
    rs = rescale(space, 0.0, 1.0)
    assert rs.ball(1.0) == pytest.approx(2.0, abs=1e-12)
    rs2 = rescale(space, 0.0, 2.0)
    # m^x_2(B^{d_2}_s) = m(B_{2s})/2
    assert rs2.ball(0.5) == pytest.approx(measure_ball(space, 0.0, 1.0) / 2.0, abs=1e-12)


def test_rescale_weighted_against_oracle():
    space = weighted_interval()
    rs = rescale(space, 0.5, 0.4)
    orc = trapezoid_refined(
        lambda x: (1.0 - abs(x - 0.5) / 0.4) * math.exp(-x), 0.1, 0.9)
    assert rs.normalization == pytest.approx(orc, abs=1e-9)


@pytest.mark.parametrize("c", [-13.0, -14.0, -15.0, -16.0, -18.0, -25.0, -30.0])
def test_rescale_of_a_large_constant_density(c):
    # an absolute 1e-12 Simpson tolerance on values near e^15 never converged
    space = load_space({"topology": "interval", "param": 1,
                        "weight": {"coords": [0, 1], "f": [c, c]}})
    assert rescale(space, 0.5, 0.4).normalization == pytest.approx(0.4 * math.exp(-c),
                                                                   rel=1e-13)


def test_rescale_of_an_unrepresentable_density_raises():
    # exp(800) is past the float range: OverflowError, as measure_ball raises,
    # never an infinite normalization
    space = load_space({"topology": "interval", "param": 1,
                        "weight": {"coords": [0, 1], "f": [-800.0, -790.0]}})
    for fn in (measure_ball, rescale):
        with pytest.raises(OverflowError):
            fn(space, 0.5, 0.4)


def _tent_oracle(space, x, a, b, r):
    """Refined-trapezoid tent integral over [x - a, x + b], cut at x and at the
    weight's knots (unwrapped), so that every piece is smooth."""
    w = space.weight
    cuts = np.unique(np.concatenate([w.knots_in(x - a, x), w.knots_in(x, x + b)]))
    return sum(trapezoid_refined(lambda y: (1.0 - abs(y - x) / r) * math.exp(-w(y)), lo, hi)
               for lo, hi in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("x,r", [(0.3, 0.9), (6.0, 0.7), (1.0, 2.5), (4.0, 10.0)])
def test_rescale_on_a_circle_against_oracle(x, r):
    # balls wrapping past 0 (x = 0.3 and 6.0 on a circle of circumference 2 pi),
    # and whole-circle balls (r > pi), where the tent stays positive at the antipode
    circ = 2.0 * math.pi
    space = Space1D(Topology1D("circle", 1.0),
                    WeightFn(np.array([0.0, 1.5, 3.0, 5.0]), np.array([0.2, -0.4, 0.9, 0.1]),
                             period=circ))
    a = min(r, circ / 2.0)
    orc = _tent_oracle(space, x, a, a, r)
    assert rescale(space, x, r).normalization == pytest.approx(orc, rel=1e-12)


def test_integrate_weighted_against_mpmath():
    # both sides of the 1e-2 seam between the closed forms and their series,
    # rising and falling f, and g at either end
    eps = 1e-2 * 2.0 ** -40
    for d in (0.0, 1e-12, -1e-12, 1e-2 - eps, 1e-2 + eps, -1e-2 - eps, -1e-2 + eps,
              1.0, -1.0, 30.0, -30.0):
        for f0 in (0.0, -3.0):
            for g_lo, g_hi in ((1.0, 0.2), (0.0, 1.0), (1.0, 0.0)):
                w = WeightFn(np.array([0.25, 0.75]), np.array([f0, f0 + d]))
                f_lo, f_hi = (mp.mpf(v) for v in w.values)
                exact = 0.5 * mp.quad(lambda u: (g_lo + (g_hi - g_lo) * u)
                                      * mp.exp(-(f_lo + (f_hi - f_lo) * u)), [0, 1])
                got = w.integrate_weighted(0.25, 0.75, g_lo, g_hi)
                assert got == pytest.approx(float(exact), rel=1e-13), (d, f0, g_lo, g_hi)


def test_integrate_density_against_mpmath():
    # each segment is taken from its lower end by expm1: the difference
    # exp(-f0) - exp(-f1) lost eps / |df| relative (1.5e-5 at df = 3e-12)
    ends = [(f0, f0 + sign * d) for d in (0.0, 5e-13, 3e-12, 1e-9, 1e-6, 1e-2, 1.0, 30.0)
            for sign in (1.0, -1.0) for f0 in (0.0, -40.0)]
    for f in ends + [(50.0, 800.0), (800.0, 50.0)]:
        w = WeightFn(np.array([0.25, 0.75]), np.array(f))
        f_lo, f_hi = (mp.mpf(v) for v in w.values)
        exact = (0.5 * mp.exp(-f_lo) if f_lo == f_hi
                 else 0.5 * (mp.exp(-f_lo) - mp.exp(-f_hi)) / (f_hi - f_lo))
        assert w.integrate_density(0.25, 0.75) == pytest.approx(float(exact), rel=1e-14), f


# -- weight interpolation rule ------------------------------------------------------

def test_weight_log_linear_density_positive():
    w = WeightFn(np.array([0.0, 1.0, 2.0]), np.array([5.0, -3.0, 8.0]))
    xs = np.linspace(0.0, 2.0, 101)
    assert np.all(np.exp(-w(xs)) > 0)


def test_weight_periodic_wrap():
    circ = 2 * math.pi
    w = WeightFn(np.array([0.0, 2.0, 4.0]), np.array([1.0, 2.0, 0.5]), period=circ)
    assert w(0.0) == pytest.approx(w(circ), abs=1e-12)
    # linear between last sample and first sample + period
    mid = 0.5 * (4.0 + circ)
    assert w(mid) == pytest.approx(0.5 * (0.5 + 1.0), abs=1e-12)


def test_weight_rejects_bad_samples():
    with pytest.raises(ValueError):
        WeightFn(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        WeightFn(np.array([0.0, 1.0]), np.array([1.0, math.inf]))


# -- JSON interface -------------------------------------------------------------------

def test_space_json_roundtrip():
    space = weighted_interval()
    assert load_space(json.loads(json.dumps(space_to_dict(space)))) == space


def test_load_space_schema_errors():
    # the rules that Topology1D, Space1D and WeightFn own: test_cli.OWNED_RULES
    with pytest.raises(ValueError, match="missing field 'topology'"):
        load_space({"param": 1.0})


def test_load_space_defaults_zero_weight():
    space = load_space({"topology": "line", "window": [-2, 2]})
    assert measure_ball(space, 0.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert space.grid_step == 1e-3
    # Space1D builds f = 0 over the window or the domain, on a circle one part
    # in 1e9 short of a turn
    c = 2 * math.pi
    for space, hi, period in ((Space1D(Topology1D("interval", 2.5)), 2.5, None),
                              (Space1D(Topology1D("circle", 1.0)), c * (1 - 1e-9), c)):
        assert space.weight == WeightFn(np.array([0.0, hi]), np.zeros(2), period)
        assert load_space(space_to_dict(space)) == space


def test_weight_period_is_the_circumference_on_a_circle_only():
    # a period of 5 on a circle of length 2 pi wrapped its balls every 5, and
    # a periodic weight on a line never left the window
    c, coords = 2 * math.pi, np.array([0.0, 1.0])
    for topology, period, window in ((Topology1D("circle", 1.0), 5.0, None),
                                     (Topology1D("circle", 1.0), None, None),
                                     (Topology1D("line"), 5.0, (0.0, 1.0)),
                                     (Topology1D("interval", 1.0), c, None)):
        with pytest.raises(ValueError, match="period must be"):
            Space1D(topology, WeightFn(coords, np.zeros(2), period), window=window)


def test_load_space_refuses_unknown_fields():
    # a misspelt field used to be dropped: "wieght" loaded f = 0
    weight = {"coords": [0, 1], "f": [0.0, -30.0]}
    for desc, name in (({"topology": "interval", "param": 1, "wieght": weight}, "'wieght'"),
                       ({"topology": "interval", "param": 1,
                         "weight": dict(weight, fs=[1, 1])}, "'fs'")):
        with pytest.raises(ValueError, match=name):
            load_space(desc)
    # space_to_dict writes "param": null on a line or half-line
    for space in (Space1D(Topology1D("line"), window=(-1.0, 1.0)),
                  Space1D(Topology1D("halfline"), window=(0.0, 1.0))):
        assert load_space(json.loads(json.dumps(space_to_dict(space)))) == space


# -- refusals ------------------------------------------------------------------------

@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: Topology1D("line").circumference,
                 "circumference only defined for circles", id="circumference-of-a-line"),
    pytest.param(lambda: WeightFn(np.array([0.0, 1.0, 2.0]), np.zeros(3), period=2.0),
                 "periodic samples must span less than one period", id="samples-span-a-period"),
    pytest.param(lambda: rescale(flat_line(), 0.0, 0.0), "scale must be > 0, got 0.0",
                 id="rescale-r-0"),
    pytest.param(lambda: rescale(flat_line(), 0.0, -1.0), "scale must be > 0, got -1.0",
                 id="rescale-r-negative"),
    pytest.param(lambda: rescale(flat_line(), 9.0, 1.0), "center 9.0 outside the domain",
                 id="rescale-centre-outside"),
])
def test_refusals_name_the_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_zero_radius_ball_and_sphere():
    # a ball of radius 0 is its centre alone: no mass, and one sphere point
    for space, x in ((flat_line(), 1.5), (Space1D(Topology1D("circle", 1.0)), 1.0),
                     (Space1D(Topology1D("interval", 2.0)), 0.0)):
        assert measure_ball(space, x, 0.0) == 0.0
        assert space.sphere_coords(x, 0.0) == [x]
