import math

import numpy as np
import pytest

from curvlab1d.coefficients import CurvatureParams, f_vol, s_vol
from curvlab1d.space1d import Space1D, Topology1D, WeightFn, measure_ball
from curvlab1d.branching import Tripod, TripodPoint
from curvlab1d.geometry_scan import (
    bg_boundary_check, bg_ratio_scan, classify, density_ratio_trace,
    linear_growth_constant, lipschitz_modulus,
)

from oracles import trapezoid_refined


def flat_line(half=4.0):
    return Space1D(Topology1D("line"), WeightFn.constant(0.0, -half, half),
                   window=(-half, half))


def weight_line(fn, half=4.0, step=1e-3):
    w = WeightFn.from_callable(fn, -half, half, step)
    return Space1D(Topology1D("line"), w, grid_step=step, window=(-half, half))


# -- bg_ratio_scan ---------------------------------------------------------------

def test_bg_ratio_needs_two_radii():
    with pytest.raises(ValueError, match="two radii"):
        bg_ratio_scan(flat_line(), 0.0, CurvatureParams(0.0, 2.0), [1.0])


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
    assert report.extra["min_slack"] == pytest.approx(36.0, abs=1e-6)


def test_bg_boundary_halfline_instance():
    space = Space1D(Topology1D("halfline"), WeightFn.constant(0.0, 0, 8), window=(0, 8))
    report = bg_boundary_check(space, 0.0, CurvatureParams(0.0, 2.0), [1.0])
    assert report.witness["lhs"] == pytest.approx(2.0, abs=1e-9)
    assert report.witness["rhs"] == pytest.approx(20.0, abs=1e-6)


def test_bg_boundary_circle_antipodal():
    circ = 2 * math.pi
    coords = np.linspace(0, circ, 64, endpoint=False)
    space = Space1D(Topology1D("circle", 1.0),
                    WeightFn(coords, np.zeros(64), period=circ))
    report = bg_boundary_check(space, 0.0, CurvatureParams(0.0, 2.0), [math.pi])
    assert report.witness["lhs"] == pytest.approx(2.0, abs=1e-9)
    assert report.witness["rhs"] > report.witness["lhs"]
    assert report.passed


def test_bg_boundary_empty_grid_raises():
    with pytest.raises(ValueError, match="t_grid is empty"):
        bg_boundary_check(flat_line(), 0.0, CurvatureParams(0.0, 2.0), [])


# -- linear growth -------------------------------------------------------------------

def test_linear_growth_flat_line():
    space = flat_line()
    C, report = linear_growth_constant(space, 0.0, 2.0, [0.1, 0.3, 0.5, 1.0],
                                       CurvatureParams(0.0, 2.0))
    assert C == pytest.approx(2.0, abs=1e-9)
    assert C <= report.extra["envelope"]


def test_linear_growth_halfline_from_origin():
    space = Space1D(Topology1D("halfline"), WeightFn.constant(0.0, 0, 8), window=(0, 8))
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


def test_linear_growth_all_pairs_skipped_raises():
    # every B_1(x) with x in [-0.5, 0.5] leaves the window [-1, 1]: no vacuous PASS
    with pytest.raises(ValueError, match="nothing checked"):
        linear_growth_constant(flat_line(half=1.0), 0.0, 0.5, [1.0],
                               CurvatureParams(0.0, 2.0))


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


def test_lipschitz_validates_pairs():
    space = flat_line()
    with pytest.raises(ValueError):
        lipschitz_modulus(space, CurvatureParams(0.0, 2.0), 0.5, [(0.0, 0.4)])


# -- classification ---------------------------------------------------------------------

def test_classify_flat_interval():
    space = Space1D(Topology1D("interval", 1.0), WeightFn.constant(0.0, 0, 1))
    verdict = classify(space, [CurvatureParams(0.0, 2.0)])
    assert verdict.admissible
    assert verdict.kn_params == CurvatureParams(0.0, 2.0)
    assert verdict.model.kind == "interval"
    assert verdict.report.passed


def test_classify_circle_rejects_positive_k():
    circ = 2 * math.pi
    coords = np.linspace(0, circ, 128, endpoint=False)
    space = Space1D(Topology1D("circle", 1.0),
                    WeightFn(coords, np.zeros(128), period=circ))
    verdict = classify(space, [CurvatureParams(1.0, 2.0), CurvatureParams(0.1, 8.0)])
    assert not verdict.admissible
    assert verdict.kn_params is None


def test_classify_cosine_weight_line():
    K, N = 1.0, 2.0
    alpha = math.sqrt(K / N)
    half = 0.9 * math.pi / (2 * alpha)
    w = WeightFn.from_callable(lambda x: -N * np.log(np.cos(x * alpha)),
                               -half, half, 1e-3)
    space = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-half, half))
    verdict = classify(space, [CurvatureParams(K, N)], tol=1e-4)
    assert verdict.admissible
    assert verdict.kn_params == CurvatureParams(K, N)


def test_classify_prefers_smallest_k():
    space = Space1D(Topology1D("interval", 1.0), WeightFn.constant(0.0, 0, 1))
    verdict = classify(space, [CurvatureParams(0.0, 2.0), CurvatureParams(-1.0, 2.0)])
    assert verdict.kn_params == CurvatureParams(-1.0, 2.0)
