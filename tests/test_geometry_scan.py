import math
import re

import numpy as np
import pytest

from curvlab1d.coefficients import CurvatureParams, f_vol, s_vol
from curvlab1d.space1d import (Space1D, Topology1D, WeightFn, WindowError, boundary_measure,
                               measure_ball)
from curvlab1d.branching import Tripod, TripodPoint
from curvlab1d.geometry_scan import (
    bg_boundary_check, bg_ratio_scan, classify, density_ratio_trace,
    linear_growth_constant, lipschitz_modulus,
)

from oracles import trapezoid_refined


def flat_line(half=4.0):
    return Space1D(Topology1D("line"), window=(-half, half))


def weight_line(fn, half=4.0, step=1e-3):
    w = WeightFn.from_callable(fn, -half, half, step)
    return Space1D(Topology1D("line"), w, grid_step=step, window=(-half, half))


# -- bg_ratio_scan ---------------------------------------------------------------

def test_bg_ratio_needs_two_radii():
    with pytest.raises(ValueError, match="two radii"):
        bg_ratio_scan(flat_line(), 0.0, CurvatureParams(0.0, 2.0), [1.0])


def test_bg_ratio_zero_radius_raises():
    # m(B_0)/F(0) is 0/0: refused, not a ZeroDivisionError
    with pytest.raises(ValueError, match="radius must be > 0, got 0.0"):
        bg_ratio_scan(flat_line(), 0.0, CurvatureParams(0.0, 2.0), [0.0, 0.2])


def test_bg_ratio_flat_line_closed_form():
    space = flat_line()
    params = CurvatureParams(0.0, 2.0)
    rs = list(np.linspace(0.5, 3.0, 8))
    report = bg_ratio_scan(space, 0.0, params, rs)
    assert report.passed
    # ratio = 2r / (r^2/2) = 4/r
    for r, ratio in zip(report.extra["r_grid"], report.extra["ratios"]):
        assert ratio == pytest.approx(4.0 / r, abs=1e-9)


def test_bg_ratio_gaussian_large_n():
    space = weight_line(lambda x: x * x / 2.0, half=3.0)
    params = CurvatureParams(1.0, 128.0)
    rs = list(np.linspace(0.2, 2.5, 10))
    report = bg_ratio_scan(space, 0.0, params, rs)
    assert report.passed


def test_bg_ratio_detects_violation_past_turning_point():
    # flat line is not CD*(1,2); the ratio 2r/(1-cos r) increases past ~2.33
    space = flat_line()
    params = CurvatureParams(1.0, 2.0)
    report = bg_ratio_scan(space, 0.0, params, [2.0, 2.5, 3.0])
    assert not report.passed
    assert report.max_violation > 0


def test_bg_ratio_domain_error():
    space = flat_line()
    with pytest.raises(ValueError):
        bg_ratio_scan(space, 0.0, CurvatureParams(1.0, 2.0), [1.0, 3.5])


# -- bg_boundary_check --------------------------------------------------------------

def test_bg_boundary_line_instance():
    space = flat_line()
    params = CurvatureParams(0.0, 2.0)
    report = bg_boundary_check(space, 0.0, params, [1.0])
    assert report.witness["lhs"] == pytest.approx(4.0, abs=1e-9)
    assert report.witness["rhs"] == pytest.approx(40.0, abs=1e-6)
    assert -report.max_violation == pytest.approx(36.0, abs=1e-6)


def test_bg_boundary_halfline_instance():
    space = Space1D(Topology1D("halfline"), window=(0, 8))
    report = bg_boundary_check(space, 0.0, CurvatureParams(0.0, 2.0), [1.0])
    assert report.witness["lhs"] == pytest.approx(2.0, abs=1e-9)
    assert report.witness["rhs"] == pytest.approx(20.0, abs=1e-6)


def test_bg_boundary_circle_antipodal():
    space = Space1D(Topology1D("circle", 1.0))
    report = bg_boundary_check(space, 0.0, CurvatureParams(0.0, 2.0), [math.pi])
    assert report.witness["lhs"] == pytest.approx(2.0, abs=1e-9)
    assert report.witness["rhs"] > report.witness["lhs"]
    assert report.passed


def test_bg_boundary_empty_grid_raises():
    with pytest.raises(ValueError, match="t_grid is empty"):
        bg_boundary_check(flat_line(), 0.0, CurvatureParams(0.0, 2.0), [])


def test_bg_boundary_keeps_its_errors():
    space, params = weight_line(np.sin), CurvatureParams(0.0, 2.0)
    for t in (0.0, -0.5):
        with pytest.raises(ValueError, match=f"t must be > 0, got {t}"):
            bg_boundary_check(space, 0.3, params, [0.5, t])
    with pytest.raises(WindowError) as want:
        measure_ball(space, 3.0, 1.5)
    with pytest.raises(WindowError, match=re.escape(str(want.value))):
        bg_boundary_check(space, 3.0, params, [0.5, 1.5, 0.9])


def test_bg_boundary_matches_measure_ball_per_radius():
    space = weight_line(lambda x: 0.5 * x * x + 0.1 * np.sin(7.0 * x))
    params = CurvatureParams(-0.25, 3.0)
    ts = [0.9, 0.1, 0.5, 0.5, 0.3]  # unsorted, with a repeat
    report = bg_boundary_check(space, 0.3, params, ts)
    slacks = [2.0 * 5.0 ** 2 * measure_ball(space, 0.3, t) * s_vol(params, t) ** 2
              / f_vol(params, t) - boundary_measure(space, 0.3, t) for t in ts]
    assert abs(-report.max_violation - min(slacks)) <= 1e-13 * abs(min(slacks))


# -- linear growth -------------------------------------------------------------------

def test_linear_growth_flat_line():
    space = flat_line()
    C, report = linear_growth_constant(space, 0.0, 2.0, [0.1, 0.3, 0.5, 1.0],
                                       CurvatureParams(0.0, 2.0))
    assert C == pytest.approx(2.0, abs=1e-9)
    assert C <= report.extra["envelope"]


def test_linear_growth_halfline_from_origin():
    space = Space1D(Topology1D("halfline"), window=(0, 8))
    C, report = linear_growth_constant(space, 0.0, 2.0, [0.1, 0.5, 1.0],
                                       CurvatureParams(0.0, 2.0))
    assert C == pytest.approx(2.0, abs=1e-6)  # interior points dominate
    assert report.max_violation <= 0


def test_linear_growth_weighted_interval():
    space = Space1D(Topology1D("interval", 1.0),
                    WeightFn(np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    C, report = linear_growth_constant(space, 0.5, 0.5, [0.01, 0.05, 0.1],
                                       CurvatureParams(0.0, 2.0))
    assert C == pytest.approx(2.0, rel=0.05)  # 2 sup e^{-f} with O(s) defect
    assert C <= report.extra["envelope"]


def test_linear_growth_infinite_r_raises():
    # at K = 0 the envelope radii would run up to inf and give NaN radii
    with pytest.raises(ValueError, match="R must be finite and > 0, got inf"):
        linear_growth_constant(Space1D(Topology1D("interval", 1.0)), 0.5, math.inf, [0.2],
                               CurvatureParams(0.0, 2.0))


def test_linear_growth_all_pairs_skipped_raises():
    # every B_1(x) with x in [-0.5, 0.5] leaves the window [-1, 1]: no vacuous PASS
    with pytest.raises(ValueError, match="nothing checked"):
        linear_growth_constant(flat_line(half=1.0), 0.0, 0.5, [1.0],
                               CurvatureParams(0.0, 2.0))


@pytest.mark.parametrize("space,y", [
    (flat_line(half=1.0), 1.0),
    (Space1D(Topology1D("halfline"), window=(0, 2)), 2.0),
])
def test_linear_growth_no_envelope_ball_raises(space, y):
    # B_0.1(x) fits for some x in B_0.5(y), but every envelope ball B_t(y)
    # leaves the window: an envelope of 0 would be a FAIL that checked nothing
    with pytest.raises(ValueError, match="nothing checked"):
        linear_growth_constant(space, y, 0.5, [0.1], CurvatureParams(0.0, 2.0))


def test_linear_growth_on_a_circle_looks_across_the_cut():
    # a bump 0.45 before y = 0.1, across the cut: the centres run over
    # y +- R unwrapped, not over [0, y + R]
    c = 2.0 * math.pi
    space = weight_circle(lambda x: -2.0 * np.exp(-(x - (c - 0.35)) ** 2 / 0.01))
    C, report = linear_growth_constant(space, 0.1, 0.5, [0.1, 0.2], CurvatureParams(0.0, 2.0))
    assert report.witness["x"] == pytest.approx(-0.35, abs=1e-3)
    assert C == pytest.approx(measure_ball(space, c - 0.35, 0.1) / 0.1, rel=1e-5)
    assert C > 9.5  # 2.03 from the centres in [0, 0.6]
    # R past c/2: the centres cover the circle once
    C, report = linear_growth_constant(space, 0.1, 4.0, [0.1], CurvatureParams(0.0, 2.0))
    assert report.extra["skipped_pairs"] == 0 and C > 9.5


def test_linear_growth_reports_envelope_radii():
    params = CurvatureParams(0.0, 2.0)
    _, report = linear_growth_constant(flat_line(half=1.0), 0.99, 0.5, [0.1], params)
    assert report.extra["envelope_radii"] == 1  # only t = 0.01 fits
    _, report = linear_growth_constant(flat_line(), 0.0, 0.5, [0.1], params)
    assert report.extra["envelope_radii"] == 50


def count_weight_reads(monkeypatch) -> list:
    """Patch WeightFn.__call__ to append the number of points of each call."""
    calls = []
    lookup = WeightFn.__call__

    def counting(self, x):
        calls.append(np.size(x))
        return lookup(self, x)

    monkeypatch.setattr(WeightFn, "__call__", counting)
    return calls


def knots_in_ball(space, x, r):
    return len(space.weight.knots_in(*space._ball_interval(x, r)))


def union_reads(space, balls):
    """The knots in the union of the balls, plus two reads per distinct ball
    end: one sweep reads each knot once and each piece at its two ends."""
    knots, (lo, hi) = 0, sorted(balls)[0]
    for a, b in sorted(balls)[1:] + [(math.inf, math.inf)]:
        if a > hi:  # a gap: the union's last stretch ends at hi
            knots += len(space.weight.knots_in(lo, hi))
            lo = a
        hi = max(hi, b)
    return knots + 2 * len({e for ball in balls for e in ball})


def test_linear_growth_reads_each_knot_about_once(monkeypatch):
    # the balls of 200 centres and the envelope share one sweep
    space = weight_line(lambda x: 0.5 * x * x + 0.1 * np.sin(7.0 * x))
    y, R, s_grid = 0.3, 0.4, [0.5, 0.2]
    calls = count_weight_reads(monkeypatch)
    linear_growth_constant(space, y, R, s_grid, CurvatureParams(0.0, 2.0))
    balls = [space._ball_interval(float(x), s)
             for x in np.linspace(y - R, y + R, 200) for s in s_grid]
    balls += [space._ball_interval(y, t) for t in np.linspace(R / 50.0, R, 50)]
    bound = union_reads(space, balls)
    assert sum(calls) <= bound
    assert bound < 3800  # about 200,000 with every centre's balls read apart


# -- density-ratio traces --------------------------------------------------------------

def test_trace_flat_line_never_in_m1():
    space = flat_line()
    trace = density_ratio_trace(space, 0.0, 1, list(np.linspace(1.0, 0.05, 12)))
    assert all(r == pytest.approx(2.0, abs=1e-9) for r in trace.ratios)
    assert not trace.in_mk


def test_trace_tripod_center():
    tripod = Tripod((1.0, 1.0, 1.0))
    center = TripodPoint(0, 0.0)
    t1 = density_ratio_trace(tripod, center, 1, list(np.linspace(0.5, 0.01, 10)))
    assert all(r == pytest.approx(3.0, abs=1e-12) for r in t1.ratios)
    assert not t1.in_mk
    t2 = density_ratio_trace(tripod, center, 2, list(np.linspace(0.5, 0.01, 10)))
    assert t2.ratios[-1] > t2.ratios[0]  # 3/r diverges
    assert not t2.in_mk


def test_trace_weighted_line_lower_bound():
    # min ratio >= 2 min e^{-f} - O(r): never in M_1 for continuous weights
    space = weight_line(lambda x: 0.5 * np.sin(x), half=3.0)
    rs = list(np.linspace(0.8, 0.02, 15))
    trace = density_ratio_trace(space, 0.7, 1, rs)
    min_dens = float(np.min(np.exp(-space.weight(np.linspace(-2, 2, 500)))))
    assert min(trace.ratios) >= 2.0 * min_dens - 0.5
    assert not trace.in_mk


def test_trace_validates_grids():
    space = flat_line()
    with pytest.raises(ValueError):
        density_ratio_trace(space, 0.0, 1, [0.1, 0.5])  # increasing
    with pytest.raises(ValueError):
        density_ratio_trace(space, 0.0, 1, [0.5, 1e-6])  # below 10*grid_step


def test_trace_tripod_zero_radius_raises():
    # m(B_0)/0^k is 0/0 on the tripod too, not a ZeroDivisionError
    with pytest.raises(ValueError, match="radius must be > 0, got 0.0"):
        density_ratio_trace(Tripod((1.0, 1.0, 1.0)), TripodPoint(0, 0.5), 1, [0.2, 0.0])


def test_trace_empty_grid_raises():
    with pytest.raises(ValueError, match="nothing checked"):
        density_ratio_trace(flat_line(), 0.0, 1, [])


def test_trace_nan_radius_raises():
    # a NaN passed the decreasing check and gave a NaN ratio with in_mk False
    with pytest.raises(ValueError, match="radius must be >= 0, got nan"):
        density_ratio_trace(flat_line(), 0.0, 1, [1.0, math.nan, 0.5])


def weight_circle(fn, knots=4001):
    c = 2.0 * math.pi
    coords = np.linspace(0.0, c, knots, endpoint=False)
    return Space1D(Topology1D("circle", 1.0), WeightFn(coords, fn(coords), period=c),
                   grid_step=c / knots)


@pytest.mark.parametrize("space,x", [
    (weight_line(lambda x: 0.5 * x * x + 0.1 * np.sin(7.0 * x)), 0.3),
    (Space1D(Topology1D("halfline"), WeightFn.from_callable(np.cos, 0.0, 4.0, 1e-3),
             window=(0.0, 4.0)), 0.4),  # balls clipped at 0
    (Space1D(Topology1D("interval", 2.0), WeightFn.from_callable(np.exp, 0.0, 2.0, 1e-3)),
     1.7),  # clipped at the far end
    (weight_circle(lambda x: np.sin(3.0 * x)), 6.2),  # across the cut, past c/2
])
def test_trace_matches_measure_ball_per_radius(space, x):
    rs = list(np.geomspace(3.5, 0.02, 17))
    if space.topology.kind == "line":
        rs = rs[3:]  # inside the window [-4, 4]
    elif space.topology.kind == "halfline":
        rs = rs[2:]
    trace = density_ratio_trace(space, x, 2, rs)
    for r, got in zip(rs, trace.ratios):
        want = measure_ball(space, x, r) / r ** 2
        assert abs(got - want) <= 1e-13 * want


def test_trace_largest_ball_out_of_window_raises():
    space = weight_line(np.sin)
    with pytest.raises(WindowError) as want:
        measure_ball(space, 3.0, 1.5)
    with pytest.raises(WindowError, match=re.escape(str(want.value))):
        density_ratio_trace(space, 3.0, 1, [1.5, 0.9, 0.5])


def test_trace_reads_each_knot_about_once(monkeypatch):
    # the balls are nested: one outward pass reads the largest ball's knots
    # once, plus 4 piece ends per further radius
    space = weight_line(lambda x: 0.5 * x * x + 0.1 * np.sin(7.0 * x))
    rs = list(np.geomspace(1.0, 0.02, 14))
    calls = count_weight_reads(monkeypatch)
    density_ratio_trace(space, 0.3, 1, rs)
    bound = knots_in_ball(space, 0.3, rs[0]) + 4 * (len(rs) - 1)
    assert sum(calls) <= bound
    assert bound < 2100  # about 7,500 with every ball read whole


# -- lipschitz modulus -------------------------------------------------------------------

def test_lipschitz_flat_translation_invariance():
    space = flat_line()
    pairs = [(-1.0 + 0.2 * i, -1.0 + 0.2 * i + 0.05) for i in range(10)]
    emp, theory, report = lipschitz_modulus(space, CurvatureParams(0.0, 2.0),
                                            0.5, pairs)
    assert emp <= 1e-12
    assert report.max_violation <= 0


def test_lipschitz_weighted_line_closed_form():
    # f(x) = x: |d/dx m(B_r(x))| = |e^{-(x-r)} - e^{-(x+r)}|
    space = weight_line(lambda x: 1.0 * x, half=4.0)
    params = CurvatureParams(0.0, 2.0)
    r = 0.5
    pairs = [(x, x + 0.01) for x in np.linspace(-2.0, 2.0, 9)]
    emp, theory, report = lipschitz_modulus(space, params, r, pairs)
    assert report.max_violation <= 0
    got_pairwise = []
    for x, y in pairs:
        mx = measure_ball(space, x, r)
        my = measure_ball(space, y, r)
        got_pairwise.append(abs(mx - my) / (r * (y - x)))
    for (x, y), g in zip(pairs, got_pairwise):
        c = 0.5 * (x + y)
        want = abs(math.exp(-(c - r)) - math.exp(-(c + r))) / r
        assert g == pytest.approx(want, rel=1e-2)


def test_lipschitz_overlap_cancels_exactly():
    # f(x) = x, d = 2^-30 with exact ball ends: the difference comes from
    # the two end pieces alone; m(B_r(x)) - m(B_r(y)) would lose ~1e-7
    space = weight_line(lambda x: 1.0 * x)
    x, r, d = 0.25, 0.5, 2.0 ** -30
    emp, _, _ = lipschitz_modulus(space, CurvatureParams(0.0, 2.0), r, [(x, x + d)])
    want = (math.exp(-(x - r)) - math.exp(-(x + r))) * -math.expm1(-d) / (r * d)
    assert emp == pytest.approx(want, rel=1e-12)


def test_lipschitz_symmetric_difference_inequality():
    # |m(B_r(x)) - m(B_r(y))| <= m(B_r(x) \Delta B_r(y)) for intervals
    space = weight_line(lambda x: 0.3 * np.cos(2 * x), half=4.0)
    r = 0.6
    for x, y in [(-1.0, -0.8), (0.1, 0.3), (1.5, 1.7)]:
        mx = measure_ball(space, x, r)
        my = measure_ball(space, y, r)
        # symmetric difference of two intervals of equal radius
        sym = (space.weight.integrate_density(x - r, y - r)
               + space.weight.integrate_density(x + r, y + r))
        assert abs(mx - my) <= sym + 1e-12


def test_lipschitz_reads_each_knot_about_once(monkeypatch):
    # the balls of 200 overlapping pairs share one sweep
    space = weight_line(lambda x: 0.5 * x * x + 0.1 * np.sin(7.0 * x))
    r = 0.5
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3.4, 3.1, 200)
    pairs = [(float(x), float(x + d)) for x, d in zip(xs, rng.uniform(0.02, 0.24, 200))]
    pairs[:2] = [(-1.0, -0.9), (2.0, 1.8)]  # y may lie left of x
    calls = count_weight_reads(monkeypatch)
    lipschitz_modulus(space, CurvatureParams(0.0, 2.0), r, pairs)
    bound = union_reads(space, [space._ball_interval(z, r) for pair in pairs for z in pair])
    assert sum(calls) <= bound
    assert bound < 9500  # about 230,000 with each pair read apart


def test_bg_boundary_reads_each_knot_about_once(monkeypatch):
    # the nested balls share one sweep; boundary_measure reads the weight
    # once more at each of the 20 sphere points
    space = weight_line(lambda x: 0.5 * x * x + 0.1 * np.sin(7.0 * x))
    ts = list(np.linspace(0.1, 1.0, 10))
    calls = count_weight_reads(monkeypatch)
    bg_boundary_check(space, 0.3, CurvatureParams(0.0, 2.0), ts)
    bound = union_reads(space, [space._ball_interval(0.3, t) for t in ts]) + 2 * len(ts)
    assert sum(calls) <= bound
    assert bound < 2100  # about 11,000 with every ball read whole


def test_lipschitz_pairs_across_a_circle_cut(monkeypatch):
    # y's arc is shifted next to x's, so a pair across the cut is read as one
    # stretch, and each pair matches its two balls taken apart
    space = weight_circle(lambda x: np.sin(3.0 * x) + 0.3 * np.cos(x))
    c, r = 2.0 * math.pi, 0.5
    for x, y in [(0.05, c - 0.1), (c - 0.02, 0.1), (3.0, 3.2), (-0.1, 0.05)]:
        want = abs(measure_ball(space, x, r) - measure_ball(space, y, r))
        calls = count_weight_reads(monkeypatch)
        emp, _, _ = lipschitz_modulus(space, CurvatureParams(0.0, 2.0), r, [(x, y)])
        monkeypatch.undo()
        d = space.distance(x, y)
        assert abs(emp * r * d - want) <= 1e-13 * measure_ball(space, x, r)
        assert sum(calls) <= len(space.weight.knots_in(0.0, 2.0 * r + d)) + 8


def test_lipschitz_ball_out_of_window_raises():
    space = weight_line(np.sin)
    with pytest.raises(WindowError) as want:
        measure_ball(space, 3.6, 0.5)
    with pytest.raises(WindowError, match=re.escape(str(want.value))):
        lipschitz_modulus(space, CurvatureParams(0.0, 2.0), 0.5, [(3.4, 3.6)])


def test_ball_scans_reject_a_centre_outside_the_domain():
    space, params = flat_line(), CurvatureParams(0.0, 2.0)
    for scan in (lambda: density_ratio_trace(space, 99.0, 1, [0.5, 0.1]),
                 lambda: bg_boundary_check(space, 99.0, params, [0.5]),
                 lambda: linear_growth_constant(space, 99.0, 0.5, [0.1], params),
                 lambda: lipschitz_modulus(space, params, 0.5, [(99.0, 99.1)])):
        with pytest.raises(ValueError, match="outside the domain"):
            scan()


def test_lipschitz_validates_pairs():
    space = flat_line()
    with pytest.raises(ValueError):
        lipschitz_modulus(space, CurvatureParams(0.0, 2.0), 0.5, [(0.0, 0.4)])


def test_lipschitz_empty_battery_raises():
    # no pair means no margin: never a PASS at -inf
    with pytest.raises(ValueError, match="nothing checked"):
        lipschitz_modulus(flat_line(), CurvatureParams(0.0, 2.0), 0.5, [])


# -- a narrow spike where a check looks: PASS below the size it needs, FAIL above --

def spiked_line(c, width, height, half=4.0):
    """Flat line, CD(0, 2), with density `height` on [c - width/2, c + width/2]."""
    e, f = width / 10.0, -math.log(height)
    coords = [-half, c - width / 2 - e, c - width / 2, c + width / 2, c + width / 2 + e, half]
    return Space1D(Topology1D("line"), WeightFn(np.array(coords), np.array([0, 0, f, f, 0, 0])),
                   window=(-half, half))


K0N2 = CurvatureParams(0.0, 2.0)  # 2*5^(N-1) = 10, and S/F = 2/t


@pytest.mark.parametrize("check,centre,width,heights", [
    # 2H + 2 <= 20 m(B_1) ~ 20 (2 + H w/2) from 0 at t = 1: H > 38 / 1.9 = 20
    (lambda sp: bg_boundary_check(sp, 0.0, K0N2, [0.5, 1.0, 1.5]), 1.0, 0.01, (10.0, 25.0)),
    # 2 + H w / s on a ball s = 0.01 over the spike against the envelope from
    # y = 0, about 20 (2 + H w / 0.9): H w > 0.49
    (lambda sp: linear_growth_constant(sp, 0.0, 1.0, [0.01, 0.1], K0N2)[1], 0.9, 0.01,
     (30.0, 60.0)),
    # the spike in B_r(0), not in B_r(-0.01): H w / (r d) against about
    # (2 / r^2)(4 r + H w) at r = 0.5, d = 0.01: H w > 8 / (1/d - 2/r) = 0.083
    (lambda sp: lipschitz_modulus(sp, K0N2, 0.5, [(0.0, -0.01)])[2], 0.495, 0.005, (10.0, 20.0)),
], ids=["bg-boundary", "linear-growth", "lipschitz"])
def test_growth_check_fails_on_a_spike_where_it_looks(check, centre, width, heights):
    # each tests a necessary condition with the fixed constant 2*5^(N-1) and
    # does not resolve K, but a spike of height H and width w refutes it
    passing, failing = (check(spiked_line(centre, width, h)) for h in heights)
    assert passing.passed and not failing.passed


# -- classification ---------------------------------------------------------------------

def test_classify_flat_interval():
    space = Space1D(Topology1D("interval", 1.0))
    report = classify(space, [CurvatureParams(0.0, 2.0)])
    assert report is not None
    assert (report.K, report.N) == (0.0, 2.0)
    assert report.passed


def test_classify_circle_rejects_positive_k():
    space = Space1D(Topology1D("circle", 1.0))
    assert classify(space, [CurvatureParams(1.0, 2.0), CurvatureParams(0.1, 8.0)]) is None


def test_classify_cosine_weight_line():
    K, N = 1.0, 2.0
    alpha = math.sqrt(K / N)
    half = 0.9 * math.pi / (2 * alpha)
    w = WeightFn.from_callable(lambda x: -N * np.log(np.cos(x * alpha)),
                               -half, half, 1e-3)
    space = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-half, half))
    report = classify(space, [CurvatureParams(K, N)], tol=1e-4)
    assert report is not None
    assert (report.K, report.N) == (K, N)


def test_classify_no_candidate_raises():
    # an empty list checks nothing, so it has no verdict, not even "not admissible"
    with pytest.raises(ValueError, match="no candidate"):
        classify(Space1D(Topology1D("interval", 1.0)), [])


def test_classify_prefers_smallest_k():
    space = Space1D(Topology1D("interval", 1.0))
    report = classify(space, [CurvatureParams(0.0, 2.0), CurvatureParams(-1.0, 2.0)])
    assert (report.K, report.N) == (-1.0, 2.0)


# -- refusals ------------------------------------------------------------------------

FLAT = CurvatureParams(0.0, 2.0)


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: bg_ratio_scan(flat_line(), 0.0, FLAT, [0.5, 0.5, 1.0]),
                 "r_grid must be increasing", id="bg-ratio-radii-not-increasing"),
    pytest.param(lambda: linear_growth_constant(flat_line(), 0.0, 1.0, [0.5, 1.5], FLAT),
                 r"s_grid must lie in \(0, 1\]", id="growth-s-past-1"),
    pytest.param(lambda: density_ratio_trace(Tripod((1.0, 1.0, 1.0)), 0.5, 1, [0.2, 0.1]),
                 "tripod traces need a TripodPoint", id="tripod-trace-without-a-point"),
    pytest.param(lambda: lipschitz_modulus(flat_line(), FLAT, 2e-3, [(0.0, 1e-4)]),
                 r"need r > 2 \* grid_step", id="lipschitz-r-of-two-steps"),
])
def test_refusals_name_the_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
