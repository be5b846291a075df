import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvlab1d.coefficients import CurvatureParams, _sigma_branch, sigma
from curvlab1d.space1d import Space1D, Topology1D, WeightFn, WindowError
from curvlab1d import curvature, transport1d
from curvlab1d import geometry_scan as gs
from curvlab1d.transport1d import uniform_measure
from curvlab1d.curvature import (
    TripleBattery, TriplePlan, _battery_sigmas, _random_plans, check_kn_convex,
    circle_obstruction, default_triple_battery, differential_criterion, triple_margin,
    verify_cd_infty, verify_cde,
)

from oracles import brute_force_triple_scan, frozen_circle_obstruction, loop_triple_battery


def cosine_weight_space(K=1.0, N=2.0, frac=0.9, step=1e-3):
    """The equality-case weight -N log cos(x sqrt(K/N)) on the central
    `frac` of its cos-domain."""
    alpha = math.sqrt(K / N)
    half = frac * math.pi / (2.0 * alpha)
    w = WeightFn.from_callable(lambda x: -N * np.log(np.cos(x * alpha)),
                               -half, half, step)
    return Space1D(Topology1D("line"), w, grid_step=step, window=(-half, half))


def flat_space(lo, hi, step=1e-3):
    return Space1D(Topology1D("line"), grid_step=step, window=(lo, hi))


def circle_with(fn, radius=1.0, n=2000):
    circ = 2 * math.pi * radius
    coords = np.linspace(0.0, circ, n, endpoint=False)
    return Space1D(Topology1D("circle", radius),
                   WeightFn(coords, np.asarray(fn(coords), dtype=float), period=circ),
                   grid_step=circ / n)


def seeded_triples(space, count, seed, min_sep=0.05):
    lo, hi = space.domain()
    rng = np.random.default_rng(seed)
    plans = []
    while len(plans) < count:
        x0, x1 = sorted(lo + (hi - lo) * rng.random(2))
        if x1 - x0 < min_sep:
            continue
        plans.append(TriplePlan(float(x0), float(x1)))
    return plans


# -- check_kn_convex ------------------------------------------------------------

def test_affine_case_is_exactly_zero():
    space = flat_space(-1.0, 1.0)
    report = check_kn_convex(space, CurvatureParams(0.0, 4.0), [TriplePlan(-0.7, 0.3)], tol=1e-12)
    assert report.max_violation == 0.0
    assert report.passed


def test_cosine_equality_weight_tiny_margins():
    space = cosine_weight_space()
    plans = seeded_triples(space, 80, seed=7)
    report = check_kn_convex(space, CurvatureParams(1.0, 2.0), plans, tol=1e-5)
    assert abs(report.max_violation) <= 1e-5
    assert report.passed


def test_cosine_weight_margin_second_order_in_grid():
    plans = None
    margins = {}
    for step in (1e-3, 5e-4):
        space = cosine_weight_space(step=step)
        if plans is None:
            plans = seeded_triples(space, 80, seed=7)
        rep = check_kn_convex(space, CurvatureParams(1.0, 2.0), plans, tol=1e-5)
        margins[step] = abs(rep.max_violation)
    assert margins[1e-3] / max(margins[5e-4], 1e-300) >= 3.5


def test_concave_weight_fails_and_matches_brute_force():
    step = 1e-3
    w = WeightFn.from_callable(lambda x: -x ** 2, -1.0, 1.0, step)
    space = Space1D(Topology1D("line"), w, grid_step=step, window=(-1, 1))
    params = CurvatureParams(1.0, 2.0)
    report = check_kn_convex(space, params, default_triple_battery(space, seed=3), tol=1e-6)
    assert report.max_violation > 0.0
    worst, _ = brute_force_triple_scan(lambda x: -x ** 2, space, 1.0, 2.0,
                                       n_grid=60, t_steps=8)
    assert worst > 0.0
    # battery maximum is consistent with the dense scan's scale
    assert report.max_violation >= 0.5 * worst


def test_conjugate_regime_flagged_and_skipped():
    space = flat_space(-3.0, 3.0)
    params = CurvatureParams(8.0, 2.0)  # conjugate radius pi/2 ~ 1.57
    plans = [TriplePlan(-2.5, 2.5), TriplePlan(-0.3, 0.3)]
    report = check_kn_convex(space, params, plans, tol=1e-6)
    assert len(report.conjugate_flags) == 1
    assert report.conjugate_flags[0]["regime"] == "conjugate-point"


def test_witness_reproducible_bit_exact():
    space = cosine_weight_space()
    plans = seeded_triples(space, 40, seed=11)
    report = check_kn_convex(space, CurvatureParams(1.0, 2.0), plans, tol=1e-5)
    wt = report.witness
    again = triple_margin(space, CurvatureParams(1.0, 2.0), wt["x0"], wt["x1"], wt["t"], wt["arc"])
    assert again == report.max_violation  # bit-exact


def test_scaling_law_margins_match():
    # (X, lam*d, m) at (K/lam^2, N) reproduces the margins of (X, d, m) at (K, N)
    lam = 2.0
    K, N = 1.0, 2.0
    space = cosine_weight_space(K, N)
    w = space.weight
    lo, hi = space.domain()
    w_scaled = WeightFn(w.coords * lam, w.values)
    space_scaled = Space1D(Topology1D("line"), w_scaled, grid_step=space.grid_step,
                           window=(lo * lam, hi * lam))
    params = CurvatureParams(K, N)
    params_scaled = CurvatureParams(K / lam ** 2, N)
    rng = np.random.default_rng(13)
    for _ in range(20):
        x0, x1 = sorted(lo + (hi - lo) * rng.random(2))
        if x1 - x0 < 0.05:
            continue
        t = float(rng.uniform(0.1, 0.9))
        m1 = triple_margin(space, params, x0, x1, t)
        m2 = triple_margin(space_scaled, params_scaled, lam * x0, lam * x1, t)
        assert m2 == pytest.approx(m1, abs=1e-12)


def test_pass_monotone_in_k():
    # PASS at K implies PASS at any K' <= K on the same battery
    space = cosine_weight_space(1.0, 2.0)
    plans = seeded_triples(space, 50, seed=17)
    prev = None
    for K in (1.0, 0.5, 0.0, -1.0):
        rep = check_kn_convex(space, CurvatureParams(K, 2.0), plans, tol=1e-5)
        if prev is not None:
            assert rep.max_violation <= prev + 1e-12
        prev = rep.max_violation
        assert rep.passed


# -- batched scan against the row-by-row scan ------------------------------------

def scalar_geodesic(space, x0, x1, t, arc):
    """(x_t, d) in plain float arithmetic."""
    if space.topology.kind != "circle":
        return (1.0 - t) * x0 + t * x1, abs(x1 - x0)
    c = space.topology.circumference
    fwd = (x1 - x0) % c
    if arc == "minor":
        delta = fwd if fwd <= c - fwd else fwd - c
    else:
        assert abs(fwd - c / 2.0) <= 1e-9
        delta = fwd - c
    return (x0 + t * delta) % c, abs(delta)


def scalar_margin(space, params, x0, x1, t, arc):
    """One triple's margin in plain float and math arithmetic: the reference
    the batched pass must reproduce bit for bit."""
    f = space.weight
    xt, d = scalar_geodesic(space, x0, x1, t, arc)
    s0 = sigma(1.0 - t, params, d)
    s1 = sigma(t, params, d)
    if math.isinf(s0) or math.isinf(s1):
        return math.inf
    N = params.N
    return (s0 * math.exp(-f(x0) / N) + s1 * math.exp(-f(x1) / N)
            - math.exp(-f(xt) / N))


def row_scan(space, params, plans):
    """(worst, witness, flags) by one triple_margin call per (plan, t) row:
    first strictly larger margin wins; a plan in the conjugate regime (sigma
    is inf) is flagged once and not scored, while an overflowed inf margin
    elsewhere is scored like any other."""
    worst, witness, flags = -math.inf, {}, []
    for idx, plan in enumerate(plans):
        for t in plan.t_grid:
            m = triple_margin(space, params, plan.x0, plan.x1, t, plan.arc)
            assert m == scalar_margin(space, params, plan.x0, plan.x1, t, plan.arc)
            _, d = scalar_geodesic(space, plan.x0, plan.x1, t, plan.arc)
            if math.isinf(sigma(t, params, d)):
                flags.append({"plan": idx, "x0": plan.x0, "x1": plan.x1,
                              "regime": "conjugate-point"})
                break
            if m > worst:
                worst = m
                witness = {"x0": plan.x0, "x1": plan.x1, "t": t, "arc": plan.arc,
                           "margin": m}
    return worst, witness, flags


def plans_of(battery):
    """A TripleBattery's plans as TriplePlan, in order."""
    times = [[] for _ in battery.x0]
    for p, t in zip(battery.plan_of.tolist(), battery.t.tolist()):
        times[p].append(t)
    return [TriplePlan(x0, x1, tuple(ts), "major" if major else "minor")
            for x0, x1, major, ts in zip(battery.x0.tolist(), battery.x1.tolist(),
                                         battery.major.tolist(), times)]


def assert_matches_row_scan(space, params, plans, battery=None):
    """check_kn_convex on the plans (or on `battery`, holding the same plans)
    against the row scan of the plans."""
    battery = plans if battery is None else battery
    worst, witness, flags = row_scan(space, params, plans)
    if worst == -math.inf:
        with pytest.raises(ValueError, match="no finite-margin plan"):
            check_kn_convex(space, params, battery, tol=1e-6)
        return
    report = check_kn_convex(space, params, battery, tol=1e-6)
    assert report.max_violation == worst
    assert report.witness == witness
    assert report.conjugate_flags == flags


TOPOLOGIES = ("line", "halfline", "interval", "circle")


def wavy_space(kind, amp, freq):
    """f = amp sin(freq x) + 0.1 x^2 (amp sin(freq x) on the circle), 401 knots."""
    if kind == "circle":
        circ = 2.0 * math.pi
        xs = np.linspace(0.0, circ, 401, endpoint=False)
        return Space1D(Topology1D("circle", 1.0),
                       WeightFn(xs, amp * np.sin(freq * xs), period=circ),
                       grid_step=circ / 401)
    lo, hi = {"line": (-3.0, 3.0), "halfline": (0.0, 4.0), "interval": (0.0, 2.0)}[kind]
    xs = np.linspace(lo, hi, 401)
    w = WeightFn(xs, amp * np.sin(freq * xs) + 0.1 * xs * xs)
    if kind == "interval":
        return Space1D(Topology1D("interval", hi), w, grid_step=(hi - lo) / 400)
    return Space1D(Topology1D(kind), w, grid_step=(hi - lo) / 400, window=(lo, hi))


space_args = dict(kind=st.sampled_from(TOPOLOGIES), amp=st.floats(0.0, 2.0),
                  freq=st.integers(1, 4),
                  # K = 8, N = 2: conjugate beyond d = pi/2, inside every domain
                  K=st.sampled_from((-2.0, 0.0, 0.5, 8.0)), N=st.sampled_from((2.0, 3.5)))


@settings(max_examples=24)
@given(seed=st.integers(0, 2 ** 16), **space_args)
@example(seed=0, kind="circle", amp=1.0, freq=2, K=8.0, N=2.0)
@example(seed=1, kind="line", amp=0.5, freq=3, K=8.0, N=2.0)
def test_battery_scan_matches_row_scan_default_battery(seed, kind, amp, freq, K, N):
    # coarse grid pairs (both arcs at circle antipodes) plus 256 random single-t plans
    space = wavy_space(kind, amp, freq)
    battery = default_triple_battery(space, seed=seed, coarse=12)
    plans = plans_of(battery)
    assert sum(len(p.t_grid) == 1 for p in plans) == 256
    if kind == "circle":
        assert any(p.arc == "major" for p in plans)
    assert_matches_row_scan(space, CurvatureParams(K, N), plans, battery)


@settings(max_examples=40)
@given(data=st.data(), **space_args)
def test_battery_scan_matches_row_scan_user_battery(data, kind, amp, freq, K, N):
    # plans with 0 to 4 interior times each, and explicit major arcs on the circle
    space = wavy_space(kind, amp, freq)
    lo, hi = space.domain()
    point = st.floats(lo, hi, exclude_max=(kind == "circle"))
    times = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     max_size=4).map(tuple)
    plans = []
    for x0, x1, ts, major in data.draw(st.lists(
            st.tuples(point, point, times, st.booleans()), min_size=1, max_size=10)):
        if kind == "circle" and major:
            c = space.topology.circumference
            plans.append(TriplePlan(x0, (x0 + c / 2.0) % c, ts, arc="major"))
        elif x0 != x1:
            plans.append(TriplePlan(x0, x1, ts))
    assert_matches_row_scan(space, CurvatureParams(K, N), plans)


def test_battery_scan_matches_row_scan_when_a_margin_overflows():
    # g = exp(709) and sigma ~ 600 near the conjugate distance: the t = 0.5 row
    # overflows to inf, yet d = 1.57 < pi/2 keeps the plan out of the
    # conjugate regime, so that row is the witness and the check fails
    lo, hi = -3.0, 3.0
    space = Space1D(Topology1D("line"), WeightFn(np.array([lo, hi]), np.full(2, -1418.0)),
                    grid_step=1e-3, window=(lo, hi))
    params = CurvatureParams(8.0, 2.0)  # conjugate at d = pi/2
    plans = [TriplePlan(-0.785, 0.785, (0.5, 1e-6)), TriplePlan(-0.01, 0.01, (0.5,))]
    assert params.K * 1.57 ** 2 < params.N * math.pi ** 2
    assert math.isinf(triple_margin(space, params, -0.785, 0.785, 0.5))
    assert math.isfinite(triple_margin(space, params, -0.785, 0.785, 1e-6))
    assert_matches_row_scan(space, params, plans)
    for battery in (plans, plans[:1]):  # alone, the plan no longer raises
        report = check_kn_convex(space, params, battery, tol=1e-6)
        assert report.witness["x0"] == -0.785 and report.witness["t"] == 0.5
        assert math.isinf(report.max_violation) and not report.passed
        assert report.conjugate_flags == []


def test_triple_plan_rejects_non_finite_endpoints():
    # a NaN endpoint gives a NaN margin, which no scan may skip or rank
    for x0, x1 in ((math.nan, 0.3), (0.3, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            TriplePlan(x0, x1)


def test_battery_makes_one_weight_lookup(monkeypatch):
    calls = []
    lookup = WeightFn.__call__

    def counting(self, x):
        calls.append(np.size(x))
        return lookup(self, x)

    monkeypatch.setattr(WeightFn, "__call__", counting)
    space = cosine_weight_space()
    battery = default_triple_battery(space, seed=0)
    check_kn_convex(space, CurvatureParams(1.0, 2.0), battery, tol=1e-5)
    assert len(calls) <= 2  # one vectorised lookup for all 14,368 rows

    # conjugate plans are flagged before any lookup, so an endpoint outside
    # the window is harmless there; a kept plan outside it still raises
    space = flat_space(-1.0, 1.0)
    params = CurvatureParams(2.0 * math.pi * math.pi, 2.0)  # conjugate from d = 1 on
    assert math.isinf(sigma(0.5, params, 1.0))
    calls.clear()
    report = check_kn_convex(space, params,
                             [TriplePlan(0.5, 1.5), TriplePlan(-0.3, 0.3)], tol=1e-6)
    assert [f["plan"] for f in report.conjugate_flags] == [0]
    assert report.witness["x1"] == 0.3
    assert calls == [2 + 7]  # the kept plan's x0, x1 and its 7 points x_t only
    with pytest.raises(WindowError):
        check_kn_convex(space, params, [TriplePlan(0.2, 1.1)], tol=1e-6)


class _CountingMath:
    """The math module, counting calls to exp, sin and sinh."""

    def __init__(self):
        self.calls = {"exp": 0, "sin": 0, "sinh": 0}

    def __getattr__(self, name):
        fn = getattr(math, name)
        if name not in self.calls:
            return fn

        def counted(x):
            self.calls[name] += 1
            return fn(x)
        return counted


def test_battery_evaluates_each_distinct_value_once(monkeypatch):
    # a cli classify input: the interval [0, 1] with 1001 knots, K < 0
    looked_up = []
    lookup = WeightFn.__call__

    def counting(self, x):
        looked_up.append(np.size(x))
        return lookup(self, x)

    xs = np.linspace(0.0, 1.0, 1001)
    space = Space1D(Topology1D("interval", 1.0), WeightFn(xs, 0.5 * np.sin(3.0 * xs) + xs * xs),
                    grid_step=1e-3)
    battery = default_triple_battery(space, seed=5)
    params = CurvatureParams(-15.0, 2.0)  # every plan on the sinh branch
    expected = check_kn_convex(space, params, battery)
    counted = _CountingMath()
    monkeypatch.setattr(WeightFn, "__call__", counting)
    monkeypatch.setattr(curvature, "math", counted)
    report = check_kn_convex(space, params, battery)
    assert repr(report) == repr(expected)
    b = battery
    xt = (1.0 - b.t) * b.x0[b.plan_of] + b.t * b.x1[b.plan_of]
    points = np.concatenate([b.x0, b.x1, xt])
    assert points.size == 18912
    distinct = np.unique(points).size
    assert distinct < 2100
    assert looked_up == [distinct]  # one lookup, of the distinct points only
    assert counted.calls["exp"] == distinct
    x = np.array([_sigma_branch(params, d)[1] for d in np.abs(b.x1 - b.x0).tolist()])[b.plan_of]
    distinct_args = np.unique((1.0 - b.t) * x).size + np.unique(b.t * x).size
    assert counted.calls["sinh"] == distinct_args < 2500  # against 2 x 14,368 rows
    assert counted.calls["sin"] == 0


# sigma's branches as (K, N) -> a strategy for the plan length d
_PI2 = math.pi * math.pi
BRANCH_LENGTHS = {
    "linear": lambda K, N: st.floats(0.0, 10.0),
    # s = K d^2 / N within a factor 2 of the 1e-8 seam, on both sides of it
    "seam": lambda K, N: st.floats(0.5, 2.0).map(lambda a: math.sqrt(a * 1e-8 * N / abs(K))),
    # up to the last float below the conjugate length sqrt(N pi^2 / K)
    "sin": lambda K, N: st.one_of(
        st.floats(0.0, 1.0, exclude_max=True).map(lambda a: a * math.sqrt(N * _PI2 / K)),
        st.integers(1, 50).map(lambda k: _below_conjugate(K, N, k))),
    "sinh": lambda K, N: st.floats(1e-3, 40.0),
    # x = sqrt(-K d^2 / N) from just below to far past math.sinh's overflow at 710.48
    "far": lambda K, N: st.floats(705.0, 3000.0).map(lambda x: x * math.sqrt(N / -K)),
}
BRANCH_K = {"linear": st.just(0.0), "seam": st.sampled_from((-1e-6, 1e-6, -3.0, 3.0)),
            "sin": st.floats(0.1, 20.0), "sinh": st.floats(-20.0, -0.1),
            "far": st.floats(-20.0, -0.1)}


def _below_conjugate(K, N, k):
    """The k-th float below the largest d with K d^2 < N pi^2."""
    d = math.sqrt(N * _PI2 / K)
    while K * d * d >= N * math.pi * math.pi:
        d = math.nextafter(d, 0.0)
    for _ in range(k - 1):
        d = math.nextafter(d, 0.0)
    return d


@settings(max_examples=60)
@given(data=st.data(), branch=st.sampled_from(sorted(BRANCH_LENGTHS)),
       N=st.sampled_from((1.5, 2.0, 3.5)))
def test_battery_coefficients_equal_scalar_sigma(data, branch, N):
    K = data.draw(BRANCH_K[branch])
    params = CurvatureParams(K, N)
    d = np.array(data.draw(st.lists(BRANCH_LENGTHS[branch](K, N), min_size=1, max_size=6)))
    times = st.lists(st.floats(0.0, 1.0), max_size=5)
    per_plan = [data.draw(times) for _ in d]
    t = np.array([v for ts in per_plan for v in ts], dtype=float)
    plan_of = np.repeat(np.arange(len(d)), [len(ts) for ts in per_plan])
    live, s0, s1 = _battery_sigmas(params, d, t, plan_of)
    assert live.tolist() == [not math.isinf(sigma(0.5, params, v)) for v in d.tolist()]
    rows = live[plan_of]
    for tt, c0, c1, dd in zip(t[rows].tolist(), s0.tolist(), s1.tolist(),
                              d[plan_of[rows]].tolist()):
        assert c0 == sigma(1.0 - tt, params, dd)
        assert c1 == sigma(tt, params, dd)


class _Stream:
    """A stand-in generator whose random() replays given doubles in order."""

    def __init__(self, values):
        self.values, self.pos = list(values), 0

    def random(self, size=None):
        n = 1 if size is None else size
        out = self.values[self.pos:self.pos + n]
        self.pos += n
        return out[0] if size is None else np.array(out)


@settings(max_examples=40)
@given(count=st.integers(0, 12), seed=st.integers(0, 2 ** 16),
       close=st.lists(st.integers(0, 40), max_size=6))
@example(count=4, seed=0, close=[0, 2, 7])  # three (x0, x1) draws are redrawn
def test_random_plans_follow_the_draw_loop(count, seed, close):
    # the stream's pairs at the `close` positions are equal, so they are redrawn
    lo, hi = -1.5, 2.5
    u = np.random.default_rng(seed).random(1000)
    for k in close:
        u[k + 1] = u[k]
    loop, rng = [], _Stream(u)
    while len(loop) < count:
        x0, x1 = lo + (hi - lo) * rng.random(2)
        if abs(x1 - x0) < 1e-6 * (hi - lo):
            continue
        loop.append((x0, x1, 0.05 + 0.9 * rng.random()))
    got = _random_plans(_Stream(u), lo, hi, count)
    assert got.shape == (count, 3)
    assert got.tolist() == [[float(v) for v in row] for row in loop]


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_default_battery_is_the_plan_loop(kind):
    # same plans, order and random draws as building the battery plan by plan
    space = wavy_space(kind, 1.0, 2)
    for seed, coarse, n_random in ((0, 64, 256), (3, 8, 5), (7, 1, 3), (1, 12, 0)):
        battery = default_triple_battery(space, seed=seed, coarse=coarse, n_random=n_random)
        plans = [(p.x0, p.x1, p.t_grid, p.arc) for p in plans_of(battery)]
        assert plans == loop_triple_battery(space, seed, coarse, n_random)
        again = TripleBattery.from_plans(plans_of(battery))
        for name in ("x0", "x1", "major", "t", "plan_of"):
            assert np.array_equal(getattr(again, name), getattr(battery, name))
    if kind == "circle":  # the grid pair (0, 4) of 8 points is antipodal
        plans = plans_of(default_triple_battery(space, coarse=8, n_random=0))
        assert [p.arc for p in plans[3:6]] == ["minor", "major", "minor"]
    with pytest.raises(ValueError, match="interior times"):
        default_triple_battery(space, t_grid=(0.5, 1.0))


# -- differential criterion -------------------------------------------------------

def test_differential_equality_weight():
    K, N = 1.0, 2.0
    alpha = math.sqrt(K / N)
    half = 0.7 * math.pi / (2.0 * alpha)
    w = WeightFn.from_callable(lambda x: -N * np.log(np.cos(x * alpha)),
                               -half, half, 1e-3)
    report = differential_criterion(w, CurvatureParams(K, N))
    margins = np.abs(np.asarray(report.extra["node_margins"]))
    assert float(np.max(margins)) <= 1e-4


def test_differential_flat_cases():
    w = WeightFn.from_callable(lambda x: 0.0 * x, -1.0, 1.0, 1e-2)
    rep0 = differential_criterion(w, CurvatureParams(0.0, 2.0))
    assert rep0.max_violation == 0.0
    rep1 = differential_criterion(w, CurvatureParams(1.0, 2.0))
    assert rep1.max_violation == pytest.approx(1.0, abs=1e-12)
    assert all(m == pytest.approx(1.0, abs=1e-12) for m in rep1.extra["node_margins"])


def test_differential_needs_five_nodes():
    w = WeightFn(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        differential_criterion(w, CurvatureParams(0.0, 2.0))


def test_differential_consistent_with_triple_battery():
    # for smooth weights the pointwise criterion and the triple battery
    # must agree on clear verdicts (margins away from the grid floor)
    rng = np.random.default_rng(29)
    for _ in range(6):
        c = rng.normal(0.0, 0.4, size=3)
        base = float(rng.uniform(0.5, 2.0))

        def fn(x, c=c, base=base):
            return base * x ** 2 + c[0] * np.sin(x) + c[1] * np.cos(2 * x) + c[2] * x

        w = WeightFn.from_callable(fn, -1.5, 1.5, 1e-3)
        space = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-1.5, 1.5))
        for K in (0.0, 1.0):
            params = CurvatureParams(K, 2.0)
            diff = differential_criterion(w, params)
            battery = check_kn_convex(space, params, default_triple_battery(space, seed=1),
                                      tol=1e-6)
            if diff.max_violation <= -0.05:
                assert battery.max_violation <= 1e-6, (c, base, K)
            if diff.max_violation >= 0.05:
                assert battery.max_violation > 0.0, (c, base, K)


# -- entropic checks ----------------------------------------------------------------

def unit_interval():
    return Space1D(Topology1D("interval", 1.0), grid_step=1e-3)


def translate_pairs(space, count, seed, width=0.2):
    lo, hi = space.domain()
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        a0 = rng.uniform(lo, hi - width)
        a1 = rng.uniform(lo, hi - width)
        pairs.append((uniform_measure(space, a0, a0 + width),
                      uniform_measure(space, a1, a1 + width)))
    return pairs


def test_cde_flat_translations_near_equality():
    space = unit_interval()
    report = verify_cde(space, CurvatureParams(0.0, 2.0),
                        translate_pairs(space, 12, seed=5), tol=5e-4)
    assert abs(report.max_violation) <= 5e-4
    assert report.passed


def test_cde_equality_weight_passes_on_equal_width_balls():
    # the shrinking-ball construction uses equal-radius uniform pairs; on
    # those the cos^N weight sits exactly at equality
    space = cosine_weight_space(1.0, 2.0, frac=0.8)
    lo, hi = space.domain()
    rng = np.random.default_rng(6)
    pairs = []
    for _ in range(15):
        r = rng.uniform(0.02, 0.15)
        a0 = rng.uniform(lo, hi - 2 * r)
        a1 = rng.uniform(lo, hi - 2 * r)
        pairs.append((uniform_measure(space, a0, a0 + 2 * r),
                      uniform_measure(space, a1, a1 + 2 * r)))
    report = verify_cde(space, CurvatureParams(1.0, 2.0), pairs, tol=1e-3)
    assert report.passed


def test_cde_bakry_emery_density_passes_all_pairs():
    # V'' >= K + (V')^2/(N-1) (equality case cos^{N-1}(x sqrt(K/(N-1)))) is
    # the genuinely sufficient 1D condition: arbitrary pairs must pass
    K, N = 1.0, 2.0
    beta = math.sqrt(K / (N - 1.0))
    half = 0.9 * math.pi / (2.0 * beta)
    w = WeightFn.from_callable(lambda x: -(N - 1.0) * np.log(np.cos(x * beta)),
                               -half, half, 1e-3)
    space = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-half, half))
    lo, hi = space.domain()
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(20):
        w0 = rng.uniform(0.05, 0.5)
        a0 = rng.uniform(lo, hi - w0)
        w1 = rng.uniform(0.05, 0.5)
        a1 = rng.uniform(lo, hi - w1)
        pairs.append((uniform_measure(space, a0, a0 + w0),
                      uniform_measure(space, a1, a1 + w1)))
    report = verify_cde(space, CurvatureParams(K, N), pairs, tol=1e-3)
    assert report.passed
    # K = 1 is sharp: at K = 1.2 the same pairs refute CD(K, N) (margin
    # +1.31e-2) and CD(K, infinity) (+8.80e-3), which holds at K = 1
    assert verify_cde(space, CurvatureParams(1.2, N), pairs, tol=1e-3).max_violation > 1e-2
    assert verify_cd_infty(space, K, pairs, tol=1e-3).passed
    assert verify_cd_infty(space, 1.2, pairs, tol=1e-3).max_violation > 5e-3


def test_every_report_survives_json_dumps():
    # passed is a Python bool, also where the margin is a numpy float, so a
    # report's to_dict() goes through json.dumps as it stands
    flat = flat_space(0.0, 1.0, step=1e-2)
    params = CurvatureParams(0.0, 2.0)
    pairs = [(uniform_measure(flat, 0.1, 0.3), uniform_measure(flat, 0.5, 0.9))]
    reports = [
        verify_cde(flat, params, pairs),
        verify_cd_infty(flat, 0.0, pairs),
        check_kn_convex(flat, params, [TriplePlan(0.2, 0.8)]),
        circle_obstruction(circle_with(np.zeros_like), CurvatureParams(1.0, 2.0)),
        gs.bg_ratio_scan(flat, 0.5, params, [0.1, 0.2, 0.3]),
        gs.bg_boundary_check(flat, 0.5, params, [0.1, 0.2]),
        gs.lipschitz_modulus(flat, params, 0.1, [(0.3, 0.33)])[2],
        gs.linear_growth_constant(flat, 0.5, 0.2, [0.05, 0.1], params)[1],
    ]
    for report in reports:
        assert type(report.passed) is bool, report.kind
        assert json.loads(json.dumps(report.to_dict()))["passed"] is report.passed


def test_cde_convexity_equality_weight_fails_unequal_widths():
    # the necessary-direction equality weight cos^N(x sqrt(K/N)) is weaker
    # than the entropic condition: unequal-width pairs expose a genuine
    # violation (margin frozen from a 40-digit evaluation)
    space = cosine_weight_space(1.0, 2.0, frac=0.8)
    lo, hi = space.domain()
    rng = np.random.default_rng(6)
    pairs = []
    for _ in range(10):
        w0 = rng.uniform(0.1, 0.4)
        a0 = rng.uniform(lo, hi - w0)
        w1 = rng.uniform(0.1, 0.4)
        a1 = rng.uniform(lo, hi - w1)
        pairs.append((uniform_measure(space, a0, a0 + w0),
                      uniform_measure(space, a1, a1 + w1)))
    report = verify_cde(space, CurvatureParams(1.0, 2.0), pairs, tol=1e-3)
    assert report.max_violation == pytest.approx(0.0161916, abs=1e-6)


def test_cde_flat_fails_at_positive_k():
    space = unit_interval()
    pair = [(uniform_measure(space, 0.1, 0.3), uniform_measure(space, 0.5, 0.9))]
    report = verify_cde(space, CurvatureParams(5.0, 2.0), pair, tol=5e-4)
    assert report.max_violation >= 0.01
    assert not report.passed
    # frozen from the 50-digit evaluation of the same pair at t = 1/2
    assert report.max_violation == pytest.approx(0.03786235, abs=5e-6)


def test_cd_infty_flat_and_gaussian():
    space = unit_interval()
    rep0 = verify_cd_infty(space, 0.0, translate_pairs(space, 10, seed=8), tol=5e-4)
    assert rep0.passed
    wg = WeightFn.from_callable(lambda x: x * x / 2.0, -3.0, 3.0, 1e-3)
    spg = Space1D(Topology1D("line"), wg, grid_step=1e-3, window=(-3, 3))
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(10):
        w0 = rng.uniform(0.1, 0.8)
        a0 = rng.uniform(-2.5, 2.5 - w0)
        w1 = rng.uniform(0.1, 0.8)
        a1 = rng.uniform(-2.5, 2.5 - w1)
        pairs.append((uniform_measure(spg, a0, a0 + w0),
                      uniform_measure(spg, a1, a1 + w1)))
    repg = verify_cd_infty(spg, 1.0, pairs, tol=1e-3)
    assert repg.passed


def test_cd_infty_flat_fails_at_k3():
    space = unit_interval()
    pair = [(uniform_measure(space, 0.1, 0.3), uniform_measure(space, 0.5, 0.9))]
    report = verify_cd_infty(space, 3.0, pair, tol=5e-4)
    assert report.max_violation >= 0.01
    assert not report.passed


def test_cde_all_conjugate_raises():
    space = unit_interval()
    # W2 = 0.6 is past the conjugate radius pi * sqrt(N/K) ~ 0.14 for K = 1000
    far = [(uniform_measure(space, 0.0, 0.2), uniform_measure(space, 0.6, 0.8))]
    with pytest.raises(ValueError, match="no finite-margin pair"):
        verify_cde(space, CurvatureParams(1000.0, 2.0), far)


def test_entropic_checks_score_interior_times_only():
    # the flat line is CD(0, inf), and the inequalities hold for t in [0, 1]:
    # a time t = 2 extrapolates the interpolant and refutes the line at
    # +0.288, so the times are fixed at k/8 and cannot be passed in
    space = flat_space(-10.0, 10.0)
    pairs = [(uniform_measure(space, 0.0, 0.5), uniform_measure(space, 1.0, 2.0))]
    for check in (lambda **kw: verify_cd_infty(space, 0.0, pairs, **kw),
                  lambda **kw: verify_cde(space, CurvatureParams(0.0, 2.0), pairs, **kw)):
        report = check()
        assert report.passed
        assert report.witness["t"] in [k / 8.0 for k in range(1, 8)]
        with pytest.raises(TypeError, match="t_grid"):
            check(t_grid=[2.0])


def test_cd_infty_empty_battery_raises():
    with pytest.raises(ValueError, match="no finite-margin pair"):
        verify_cd_infty(unit_interval(), 0.0, [])


def test_one_circle_cut_per_pair(monkeypatch):
    space = circle_with(lambda x: 0.2 * np.cos(x), n=256)
    pairs = [(uniform_measure(space, 0.1 * k, 0.1 * k + 0.6),
              uniform_measure(space, 3.0 + 0.2 * k, 3.5 + 0.2 * k)) for k in range(3)]
    cut = transport1d._circle_cut
    calls = []

    def counting_cut(*args, **kwargs):
        calls.append(1)
        return cut(*args, **kwargs)

    monkeypatch.setattr(transport1d, "_circle_cut", counting_cut)
    verify_cde(space, CurvatureParams(0.0, 2.0), pairs)
    assert len(calls) == len(pairs)
    calls.clear()
    verify_cd_infty(space, 0.0, pairs)
    assert len(calls) == len(pairs)


def test_cde_implies_cd_infty_on_battery():
    # EKS-consistent direction at our tolerance
    space = unit_interval()
    pairs = translate_pairs(space, 10, seed=12)
    for K, N in ((0.0, 2.0), (-1.0, 4.0)):
        cde = verify_cde(space, CurvatureParams(K, N), pairs, tol=5e-4)
        if cde.passed:
            cdi = verify_cd_infty(space, K, pairs, tol=5e-4)
            assert cdi.passed


@pytest.mark.parametrize("at,message", [
    (0, "pair 1: endpoint entropy diverges"),
    (1, "pair 1: endpoint entropy diverges"),
    (2, "pair 1: entropy diverges at t=0.125"),
    (5, "pair 1: entropy diverges at t=0.5"),
])
def test_entropic_checks_raise_on_a_diverging_entropy(monkeypatch, at, message):
    # both checks read one pair loop: an infinite entropy at an endpoint or
    # at an interior time raises in each, with the same words (verify_cd_infty
    # used to score an interior inf as an inf margin)
    space = unit_interval()
    pairs = translate_pairs(space, 3, seed=4)
    real = curvature.entropies_along

    def diverging(mu0, mu1, ts):
        dist, ents = real(mu0, mu1, ts)
        if mu0 is pairs[1][0]:
            ents[at] = math.inf
        return dist, ents

    monkeypatch.setattr(curvature, "entropies_along", diverging)
    for check in (lambda: verify_cde(space, CurvatureParams(0.0, 2.0), pairs),
                  lambda: verify_cd_infty(space, 0.0, pairs)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check()


def test_entropic_checks_refuse_a_battery_on_another_space():
    # the measures carry their space: verify_cde used to judge these flat
    # pairs against the heavy weight and FAIL at +0.030, where on their own
    # space they pass; an equal space built apart is the same space
    space = unit_interval()
    heavy = Space1D(space.topology, WeightFn(np.array([0.0, 1.0]), np.array([0.0, 3.0])))
    pairs = translate_pairs(space, 3, seed=4)
    assert verify_cde(unit_interval(), CurvatureParams(0.0, 2.0), pairs).passed
    mixed = [pairs[0], *translate_pairs(heavy, 1, seed=4)]
    for on, battery, idx in ((heavy, pairs, 0), (space, mixed, 1)):
        for check in (lambda: verify_cde(on, CurvatureParams(0.0, 2.0), battery),
                      lambda: verify_cd_infty(on, 0.0, battery)):
            with pytest.raises(ValueError, match=f"^pair {idx}: its measures live on another"):
                check()


# -- circle obstruction ------------------------------------------------------------

def test_circle_constant_weight_factor_matches_analytic():
    space = circle_with(lambda th: np.zeros_like(th))
    params = CurvatureParams(1.0, 2.0)
    report = circle_obstruction(space, params)
    assert not report.extra["anomaly"]
    wt = report.witness
    assert wt["violation_factor"] == pytest.approx(wt["analytic_factor"], abs=1e-9)
    d = wt["d"]
    want = 1.0 / math.cos(0.5 * d * math.sqrt(0.5))
    assert wt["analytic_factor"] == pytest.approx(want, abs=1e-12)


def test_circle_sigma_pair_collapses_to_cosine():
    # symmetric pair: sigma^(1/2) + sigma^(1/2) = 1 / cos(theta/2 sqrt(K/N))
    params = CurvatureParams(1.0, 2.0)
    for d in (0.5, 1.0, 2.0):
        lhs = 2.0 * sigma(0.5, params, d)
        rhs = 1.0 / math.cos(0.5 * d * math.sqrt(0.5))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_circle_random_weights_always_obstructed():
    rng = np.random.default_rng(21)
    for trial in range(5):
        c = rng.normal(0, 0.3, size=3)

        def fn(th, c=c):
            return c[0] * np.sin(th) + c[1] * np.cos(2 * th) + c[2] * np.sin(3 * th)

        space = circle_with(fn)
        report = circle_obstruction(space, CurvatureParams(0.5, 3.0))
        assert not report.extra["anomaly"]
        assert report.max_violation > 0.0


def test_circle_obstruction_overflowed_margin_is_found():
    # g = exp(709): the first triple, d = 0.95 pi/2 < pi/2, overflows to inf;
    # that is the violation, not a conjugate point to shrink past
    space = circle_with(lambda th: np.full_like(th, -1418.0))
    report = circle_obstruction(space, CurvatureParams(8.0, 2.0))
    assert not report.extra["anomaly"]
    assert math.isinf(report.max_violation) and not report.passed
    assert report.witness["d"] == 0.95 * math.pi / 2.0


def test_unrepresentable_exp_weight_raises_value_error():
    # f = -1500 puts exp(-f/N) = exp(750) past the float range everywhere
    space = Space1D(Topology1D("interval", 1.0),
                    WeightFn(np.array([0.0, 1.0]), np.full(2, -1500.0)))
    params = CurvatureParams(0.0, 2.0)
    with pytest.raises(ValueError, match=r"exp\(-f/N\) is not representable at x = "):
        check_kn_convex(space, params, default_triple_battery(space))
    pair = [(uniform_measure(space, 0.1, 0.3), uniform_measure(space, 0.5, 0.9))]
    with pytest.raises(ValueError, match=r"pair 0: exp\(-Ent/N\) is not representable"):
        verify_cde(space, params, pair)
    # the violation is found, but exp(-f/N) underflows to 0 at the peak of f
    circ = circle_with(lambda th: 1400.0 + 100.0 * np.exp(-((th - math.pi) / 0.3) ** 2), n=64)
    with pytest.raises(ValueError, match="not representable at xbar = "):
        circle_obstruction(circ, CurvatureParams(1.0, 2.0))


def harmonic_circle(offset, a1, a2, a3, phase, n, radius, step):
    circ = 2.0 * math.pi * radius
    coords = np.linspace(0.0, circ, n, endpoint=False)
    u = coords / radius
    f = offset + a1 * np.sin(u) + a2 * np.cos(2.0 * u) + a3 * np.sin(3.0 * u + phase)
    return Space1D(Topology1D("circle", radius), WeightFn(coords, f, period=circ),
                   grid_step=step)


def report_or_error(fn, space, params):
    try:
        return repr(fn(space, params))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=120)
@given(offset=st.floats(-30.0, 30.0), a1=st.floats(-5.0, 5.0), a2=st.floats(-2.0, 2.0),
       a3=st.floats(-1.0, 1.0), phase=st.floats(0.0, 6.3), n=st.integers(4, 400),
       radius=st.sampled_from([0.3, 1.0, 2.5]), log_step=st.floats(-4.0, -0.5),
       log_K=st.floats(-12.0, math.log10(50.0)), N=st.floats(1.01, 8.0))
# constant weight, K = 1e-300: every margin is 0.0, so none is found
@example(offset=0.0, a1=0.0, a2=0.0, a3=0.0, phase=0.0, n=2000, radius=1.0,
         log_step=math.log10(2.0 * math.pi / 2000), log_K=-300.0, N=2.0)
# g = exp(709): the margin at the first d overflows to inf
@example(offset=-1418.0, a1=0.0, a2=0.0, a3=0.0, phase=0.0, n=2000, radius=1.0,
         log_step=math.log10(2.0 * math.pi / 2000), log_K=math.log10(8.0), N=2.0)
def test_circle_obstruction_is_the_frozen_loop(offset, a1, a2, a3, phase, n, radius,
                                               log_step, log_K, N):
    # one battery over the whole d sequence reports what the triple-at-a-time
    # loop reported, bit for bit, errors included
    space = harmonic_circle(offset, a1, a2, a3, phase, n, radius, 10.0 ** log_step)
    params = CurvatureParams(10.0 ** log_K, N)
    got = report_or_error(circle_obstruction, space, params)
    assert got == report_or_error(frozen_circle_obstruction, space, params)
    if log_K == -300.0:
        report = circle_obstruction(space, params)
        assert report.extra["anomaly"] and report.max_violation == 0.0
    if offset == -1418.0:
        assert math.isinf(circle_obstruction(space, params).max_violation)


def test_circle_obstruction_raises_where_exp_overflows_at_inner_triples():
    # f = -1500 within 0.3 of pi puts exp(-f/N) past the float range there,
    # and f(pi) = 5 keeps xbar = pi: only the inner triples reach the
    # overflow, and the battery scores them all (the loop stopped at the
    # first d, a violation)
    def fn(th):
        return np.where(np.abs(th - math.pi) < 0.3, -1500.0, 0.0) + np.where(
            th == math.pi, 1505.0, 0.0)

    space = circle_with(fn, n=64)
    assert space.weight(math.pi) == 5.0
    params = CurvatureParams(1.0, 2.0)
    with pytest.raises(ValueError, match=r"exp\(-f/N\) is not representable at x = "):
        circle_obstruction(space, params)
    # the triple battery and the classifier already raised on this weight
    with pytest.raises(ValueError, match=r"exp\(-f/N\) is not representable at x = "):
        check_kn_convex(space, params, default_triple_battery(space))


def test_circle_obstruction_rejects_bad_inputs():
    space = flat_space(-1.0, 1.0)
    with pytest.raises(ValueError):
        circle_obstruction(space, CurvatureParams(1.0, 2.0))
    circ = circle_with(lambda th: np.zeros_like(th))
    with pytest.raises(ValueError):
        circle_obstruction(circ, CurvatureParams(0.0, 2.0))


def test_circle_battery_on_kn_convexity_also_fails():
    # the generic battery finds violations for constant weight, K > 0
    space = circle_with(lambda th: np.zeros_like(th), n=256)
    report = check_kn_convex(space, CurvatureParams(1.0, 2.0),
                             default_triple_battery(space, seed=2, coarse=16), tol=1e-6)
    assert not report.passed
