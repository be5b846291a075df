"""Every witness replays to its margin.

A report's product is a signed margin with a witness.  Each property below
rebuilds the margin from the witness alone, through the public calls a
reader would use, on random piecewise-linear weights over the four
topologies: a rewrite that moves a margin without its witness, or the
reverse, fails here.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from curvlab1d.coefficients import CurvatureParams, f_vol, s_vol
from curvlab1d.curvature import (check_kn_convex, circle_obstruction, default_triple_battery,
                                 triple_margin)
from curvlab1d.geometry_scan import bg_boundary_check, bg_ratio_scan
from curvlab1d.space1d import boundary_measure, measure_ball

from test_symmetries import weighted_space

KINDS = ("line", "halfline", "interval", "circle")

# bg_boundary_check sums the ball's pieces in one sweep over all its radii,
# measure_ball over the ball alone: the same positive terms (at most 40
# knots here) in another order and cut at other radii, each rounded a few
# times, so the ball mass, and the rhs with it, moves by about 40 eps of
# itself at most.
BOUNDARY_RTOL = 1e-13


@st.composite
def weighted_spaces(draw, kinds=KINDS):
    """A PL weight of 2-40 knots in [-3, 3] over [0, length) of a drawn kind."""
    kind = draw(st.sampled_from(kinds))
    length = draw(st.floats(0.5, 5.0))
    f = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=40)))
    return weighted_space(kind, length, f)


def reach(space, x0, params):
    """A radius up to which every ball and sphere around x0 fits the space,
    below the conjugate radius: inside the window, with one sphere point
    left on an interval, and half a turn on a circle."""
    lo, hi = space.domain()
    r = {"line": min(x0 - lo, hi - x0), "halfline": hi - x0,
         "interval": max(x0 - lo, hi - x0), "circle": (hi - lo) / 2.0}[space.topology.kind]
    if params.K > 0.0:
        r = min(r, 0.99 * math.pi * math.sqrt((params.N - 1.0) / params.K))
    return r


def ball_case(draw, space, params):
    """(x0, radii): a centre in the middle 80% of the domain and 2-8
    increasing radii up to its reach."""
    lo, hi = space.domain()
    x0 = lo + (hi - lo) * draw(st.floats(0.1, 0.9))
    fracs = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8, unique=True))
    rs = sorted({reach(space, x0, params) * f for f in fracs})
    assume(len(rs) >= 2)
    return x0, rs


params_args = dict(K=st.floats(-2.0, 2.0), N=st.floats(1.1, 4.0))


@settings(max_examples=30)
@given(space=weighted_spaces(), seed=st.integers(0, 2 ** 16), **params_args)
def test_kn_convexity_witness_replays(space, seed, K, N):
    params = CurvatureParams(K, N)
    report = check_kn_convex(space, params, default_triple_battery(space, seed=seed))
    w = report.witness
    assert w["margin"] == report.max_violation
    assert triple_margin(space, params, w["x0"], w["x1"], w["t"], w["arc"]) == w["margin"]


@settings(max_examples=30)
@given(space=weighted_spaces(("circle",)), K=st.floats(0.01, 2.0), N=st.floats(1.1, 4.0))
def test_circle_obstruction_witness_replays(space, K, N):
    # the obstruction scores each triple at its midpoint, t = 1/2
    params = CurvatureParams(K, N)
    report = circle_obstruction(space, params)
    w = report.witness
    assert w["margin"] == report.max_violation
    assert triple_margin(space, params, w["x0"], w["x1"], 0.5) == w["margin"]


@settings(max_examples=30)
@given(space=weighted_spaces(), data=st.data(), **params_args)
def test_bg_ratio_witness_replays(space, data, K, N):
    params = CurvatureParams(K, N)
    x0, rs = ball_case(data.draw, space, params)
    report = bg_ratio_scan(space, x0, params, rs)
    w = report.witness
    ratios = [measure_ball(space, x0, r) / f_vol(params, r) for r in (w["r_lo"], w["r_hi"])]
    assert ratios == [w["ratio_lo"], w["ratio_hi"]]
    assert w["ratio_hi"] - w["ratio_lo"] == report.max_violation


@settings(max_examples=30)
@given(space=weighted_spaces(), data=st.data(), **params_args)
def test_bg_boundary_witness_replays(space, data, K, N):
    params = CurvatureParams(K, N)
    x0, ts = ball_case(data.draw, space, params)
    report = bg_boundary_check(space, x0, params, ts)
    w = report.witness
    t = w["t"]
    rhs = (2.0 * 5.0 ** (N - 1.0) * measure_ball(space, x0, t) * s_vol(params, t) ** (N - 1.0)
           / f_vol(params, t))
    assert boundary_measure(space, x0, t) == w["lhs"]
    assert abs(rhs - w["rhs"]) <= BOUNDARY_RTOL * abs(w["rhs"]), (rhs, w["rhs"])
    assert w["lhs"] - w["rhs"] == w["margin"] == report.max_violation
