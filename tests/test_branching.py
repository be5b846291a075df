import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab1d.branching import (
    _DE_W, _DE_X, BranchingScenario, InfeasibleScenarioError, PlanPair, Tripod, TripodPoint,
    _HalfDensity, entropy_chain_inequality, build_branching_plans, entropy_along,
    mixture_w2_correction, renyi_contradiction, renyi_raw,
)

from oracles import (TripodEnsemble, frozen_breaks, frozen_stem_arr, frozen_stem_support,
                     frozen_target_arr, frozen_target_support, trapezoid_refined)


TRIPOD = Tripod((1.0, 1.0, 1.0))
SCENARIO = BranchingScenario(a=0.5, b=0.1, eps=0.02, eta=0.5)


@pytest.fixture(scope="module")
def pair():
    return build_branching_plans(TRIPOD, SCENARIO)


@pytest.fixture(scope="module")
def ensemble(pair):
    return TripodEnsemble(pair.scenario)


# -- tripod geometry ---------------------------------------------------------------

def test_tripod_distances():
    assert TRIPOD.distance(TripodPoint(1, 0.2), TripodPoint(1, 0.7)) == pytest.approx(0.5)
    assert TRIPOD.distance(TripodPoint(0, 0.3), TripodPoint(1, 0.4)) == pytest.approx(0.7)
    p = TripodPoint(2, 0.55)
    assert TRIPOD.distance(p, p) == 0.0


def test_tripod_distance_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    pts = [TripodPoint(int(rng.integers(0, 3)), float(rng.uniform(0, 1.0)))
           for _ in range(12)]
    for p in pts:
        for q in pts:
            assert TRIPOD.distance(p, q) == pytest.approx(
                TRIPOD.distance(q, p), abs=1e-15)
            for z in pts[:5]:
                assert (TRIPOD.distance(p, q)
                        <= TRIPOD.distance(p, z)
                        + TRIPOD.distance(z, q) + 1e-12)


def test_tripod_center_aliases_to_edge_zero():
    assert TripodPoint(2, 0.0).edge == 0


def test_tripod_ball_at_center():
    assert TRIPOD.measure_ball(TRIPOD.center, 0.25) == pytest.approx(0.75)
    assert TRIPOD.measure_ball(TRIPOD.center, 2.0) == pytest.approx(3.0)
    # off-center ball spilling through the center
    assert TRIPOD.measure_ball(TripodPoint(0, 0.3), 0.5) == pytest.approx(
        0.8 + 0.2 + 0.2)


# -- plan construction ----------------------------------------------------------------

def test_plan_mass_and_count(ensemble):
    assert ensemble.geodesic_count() == 4096
    gu = list(ensemble.geodesics("u"))
    assert len(gu) == 4096
    assert sum(m for _, _, m in gu) == pytest.approx(SCENARIO.beta, abs=1e-12)
    starts = {p.edge for p, _, _ in gu}
    ends = {q.edge for _, q, _ in gu}
    assert starts == {0} and ends == {1}
    ends_d = {q.edge for _, q, _ in ensemble.geodesics("d")}
    assert ends_d == {2}


def test_plan_prefix_identity(ensemble):
    # pushforwards of the two halves coincide exactly for t <= a
    for t in (0.0, 0.1, 0.3, 0.5):
        eu, xu = ensemble.positions("u", t)
        ed, xd = ensemble.positions("d", t)
        assert np.array_equal(xu, xd)
        assert set(np.unique(eu)) == {0} == set(np.unique(ed))


def test_plan_mutual_singularity_after_window(pair, ensemble):
    t = SCENARIO.a + SCENARIO.eps
    eu, xu = ensemble.positions("u", t)
    ed, xd = ensemble.positions("d", t)
    assert set(np.unique(eu)) == {1}
    assert set(np.unique(ed)) == {2}
    assert pair.support_gap_at(t) > 0.0


def test_plan_density_certificate(pair):
    cert = pair.certificate
    assert cert["C"] >= max(cert["sup_density_at_b"], cert["sup_density_up_at_1"])
    # contraction toward the source scales the time-b density by ~a/(a-b)
    rough = SCENARIO.beta / (SCENARIO.eta / 4.0) * SCENARIO.a / (SCENARIO.a - SCENARIO.b)
    assert cert["sup_density_at_b"] == pytest.approx(rough, rel=0.15)


def test_plan_density_matches_ensemble_histogram(pair, ensemble):
    # closed-form density vs a normalized histogram of the 4096 geodesics
    t = 1.0
    hd = pair.half_density(t)
    _, xs = ensemble.positions("u", t)
    lo, hi = hd.support("target")
    bins = np.linspace(lo, hi, 33)
    hist, edges = np.histogram(xs, bins=bins)
    emp = hist / (len(xs) * np.diff(edges))
    mids = 0.5 * (edges[:-1] + edges[1:])
    dens = hd.side_density("target", mids)
    inner = slice(2, -2)
    assert np.allclose(emp[inner], dens[inner], rtol=0.08, atol=0.05)


def test_infeasible_scenarios_raise():
    # PlanPair itself runs the geometry rules; its certificate cannot be passed in
    for build in (build_branching_plans, PlanPair):
        with pytest.raises(InfeasibleScenarioError, match="beyond stem length"):
            build(Tripod((0.05, 1.0, 1.0)), SCENARIO)  # stem too short
        with pytest.raises(InfeasibleScenarioError, match="beyond the outer edge"):
            build(Tripod((1.0, 0.1, 1.0)), SCENARIO)  # outer edge short
    with pytest.raises(TypeError, match="certificate"):
        PlanPair(TRIPOD, SCENARIO, certificate={"C": 1e-9})
    with pytest.raises(ValueError):
        BranchingScenario(a=0.5, b=0.1, eps=0.6, eta=0.5)  # a + eps >= 1


# -- entropy bookkeeping -----------------------------------------------------------------

def test_entropy_uniform_arc_reference():
    # a measure spread uniformly over an arc of length L has Ent = -log L;
    # at t = b the pushforward is near-uniform over a contracted arc
    sc = SCENARIO
    p = build_branching_plans(TRIPOD, sc)
    hd = p.half_density(sc.b)
    lo, hi = hd.support("stem")
    ent = entropy_along(p, sc.b, "u")
    assert ent == pytest.approx(-math.log(hi - lo), abs=0.05)


def test_entropy_mixed_equals_half_at_prefix(pair):
    ea_m = entropy_along(pair, SCENARIO.a, "mixed")
    ea_u = entropy_along(pair, SCENARIO.a, "u")
    assert ea_m == pytest.approx(ea_u, abs=1e-12)


def test_entropy_split_identity_at_disjoint_times(pair):
    for t in (SCENARIO.a + SCENARIO.eps, 0.7, 1.0):
        em = entropy_along(pair, t, "mixed")
        eu = entropy_along(pair, t, "u")
        ed = entropy_along(pair, t, "d")
        assert em == pytest.approx(0.5 * eu + 0.5 * ed - math.log(2.0), abs=1e-6)


def test_entropy_halves_equal_by_symmetry(pair):
    for t in (0.2, 0.6, 1.0):
        assert entropy_along(pair, t, "u") == pytest.approx(entropy_along(pair, t, "d"), abs=1e-10)


def test_entropy_lower_bound_property(pair):
    # unnormalized Ent of the up-half at a + eps against the scale bound
    sc = SCENARIO
    t = sc.a + sc.eps
    hd = pair.half_density(t)

    def g(rho):
        out = np.zeros_like(rho)
        pos = rho > 0
        out[pos] = rho[pos] * np.log(rho[pos])
        return out

    ent_raw = hd.integrate("stem", g) + hd.integrate("target", g)
    bound = sc.beta * math.log(sc.eps / (10.0 * TRIPOD.measure_ball(TRIPOD.center, sc.eta / 2.0)))
    assert ent_raw >= bound


def test_entropy_integrals_against_trapezoid_oracle(pair):
    # closed-form DE quadrature vs a plain refined trapezoid of the same density
    t = 1.0
    hd = pair.half_density(t)
    lo, hi = hd.support("target")
    orc = trapezoid_refined(
        lambda u: float(hd.side_density("target", np.array([u]))[0]
                        * (math.log(hd.side_density("target", np.array([u]))[0])
                           if hd.side_density("target", np.array([u]))[0] > 0 else 0.0)),
        lo + 1e-12, hi - 1e-12, n0=256, levels=6)
    got = hd.integrate("target", lambda r: np.where(r > 0, r * np.log(np.maximum(r, 1e-300)), 0.0))
    assert got == pytest.approx(orc, abs=5e-4)


# -- the branching contradiction ---------------------------------------------------------

def test_entropy_chain_sweep():
    lhs_prev = -math.inf
    for eps in (0.05, 0.02, 0.01, 0.005, 0.002):
        p = build_branching_plans(TRIPOD, SCENARIO.replace_eps(eps))
        rep = entropy_chain_inequality(p)
        lhs, rhs = rep["lhs"], rep["rhs"]
        assert rhs < -0.01
        assert lhs < 0.0
        assert lhs > lhs_prev  # |lhs| decreasing toward 0
        lhs_prev = lhs
        if eps <= 0.01:
            assert rep["contradiction"]


def test_entropy_chain_rhs_closed_form():
    sc = SCENARIO
    rhs = entropy_chain_inequality(build_branching_plans(TRIPOD, sc))["rhs"]
    want = (-(1 - sc.a - sc.eps) * math.log(2.0)
            * ((sc.a - sc.b) / (1 - sc.b) - sc.a * (sc.a + sc.eps - sc.b) / 3.0))
    assert rhs == pytest.approx(want, abs=1e-15)


def test_renyi_contradiction_levels():
    for N in (2.0, 8.0, 64.0):
        rep = renyi_contradiction(build_branching_plans(TRIPOD, replace(SCENARIO, eps=1e-3, N=N)))
        assert rep["N"] == N
        assert rep["threshold"] == pytest.approx(2.0 ** (1.0 / N))
        assert rep["ratio"] >= rep["threshold"] * (1.0 - 5e-3)
        assert rep["contradiction"]


def test_renyi_contradiction_persists_large_n():
    p = build_branching_plans(TRIPOD, replace(SCENARIO, eps=1e-3, N=1024.0))
    rep = renyi_contradiction(p)
    assert rep["threshold"] == pytest.approx(2.0 ** (1.0 / 1024.0))
    assert rep["ratio"] > 1.0


def test_renyi_mix_equals_sum_of_halves():
    sc = SCENARIO
    t = sc.a + sc.eps
    for N in (2.0, 8.0):
        pair = build_branching_plans(TRIPOD, replace(sc, N=N))
        mix = renyi_raw(pair, t, "mixed_sum")
        split = renyi_raw(pair, t, "u") + renyi_raw(pair, t, "d")
        assert mix == pytest.approx(split, rel=1e-10)


def test_failure_region_grows_with_rhs_magnitude():
    # larger |rhs| (earlier probe b) admits failure at larger eps
    def first_fail_eps(b):
        sweep = np.geomspace(0.05, 0.001, 25)
        base = BranchingScenario(a=0.5, b=b, eps=0.05, eta=0.5)
        for eps in sweep:
            p = build_branching_plans(TRIPOD, base.replace_eps(float(eps)))
            if entropy_chain_inequality(p)["contradiction"]:
                return float(eps)
        return 0.0

    eps_small_rhs = first_fail_eps(0.3)   # smaller (a-b)/(1-b)
    eps_large_rhs = first_fail_eps(0.05)  # larger |rhs|
    assert eps_large_rhs >= eps_small_rhs


def test_mixture_w2_correction_within_envelope(pair):
    out = mixture_w2_correction(pair, K=1.0)
    assert 0.0 < out["correction"] <= out["envelope"]
    out2 = mixture_w2_correction(pair, K=-2.0)
    assert out2["correction"] == pytest.approx(2.0 * out["correction"], rel=1e-9)


def test_random_feasible_scenarios_bookkeeping():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(0.35, 0.6)
        b = rng.uniform(0.05, a - 0.15)
        eps = rng.uniform(0.005, min(0.08, (1 - a) / 3))
        eta = rng.uniform(0.25, 0.6)
        sc = BranchingScenario(a=float(a), b=float(b), eps=float(eps), eta=float(eta))
        p = build_branching_plans(TRIPOD, sc)
        td = sc.a + sc.eps
        em = entropy_along(p, td, "mixed")
        eu = entropy_along(p, td, "u")
        ed = entropy_along(p, td, "d")
        assert em == pytest.approx(0.5 * eu + 0.5 * ed - math.log(2.0), abs=1e-6)


# -- one array pass per side and one target sup per certificate ------------------

def _loop_integrate(hd, side, g):
    """The half-density integral one piece at a time, as a loop evaluates it."""
    pts = hd._breaks(side)
    total = 0.0
    for aa, bb in zip(pts[:-1], pts[1:]):
        if bb - aa > 1e-15:
            mid = 0.5 * (aa + bb)
            half = 0.5 * (bb - aa)
            ys = mid + half * _DE_X
            total += half * float(np.sum(_DE_W * g(hd.side_density(side, ys))))
    return total


def _entropy_integrand(scale, c):
    def g(rho_len):
        rh = scale * rho_len / c
        out = np.zeros_like(rh)
        pos = rh > 0.0
        out[pos] = c * rh[pos] * np.log(rh[pos])
        return out
    return g


def _renyi_integrand(scale, c, N):
    def g(rho_len):
        rh = scale * rho_len / c
        out = np.zeros_like(rh)
        pos = rh > 0.0
        out[pos] = c * rh[pos] ** (1.0 - 1.0 / N)
        return out
    return g


@st.composite
def _feasible_scenarios(draw):
    a = draw(st.floats(0.05, 0.9))
    b = draw(st.floats(0.01, 0.99)) * a
    eps = draw(st.floats(0.01, 0.99)) * (1.0 - a)
    eta = draw(st.floats(0.01, 1.0))
    beta = draw(st.floats(0.1, 1.0))
    return BranchingScenario(a=a, b=b, eps=eps, eta=eta, beta=beta,
                             N=draw(st.sampled_from((1.5, 2.0, 3.0))))


@settings(max_examples=60)
@given(sc=_feasible_scenarios(), data=st.data(), side=st.sampled_from(("stem", "target")),
       integrand=st.sampled_from(("identity", "entropy", "renyi")),
       scale=st.floats(0.1, 4.0), c=st.floats(0.2, 5.0))
def test_integrate_equals_per_piece_loop(sc, data, side, integrand, scale, c):
    t = data.draw(st.one_of(st.sampled_from((0.0, sc.b, sc.a, sc.a + sc.eps, 1.0)),
                            st.floats(0.0, 1.0)))
    # outer edges of length 10 host every scenario drawn (u reach < 9.5)
    pair = build_branching_plans(Tripod((1.0, 10.0, 10.0)), sc)
    hd = pair.half_density(t)
    g = {"identity": lambda r: r, "entropy": _entropy_integrand(scale, c),
         "renyi": _renyi_integrand(scale, c, sc.N)}[integrand]
    assert hd.integrate(side, g) == _loop_integrate(hd, side, g)


def _times(sc):
    """A time in [0, 1], with the scenario's own times and the crossing
    window's ends and midpoint drawn often."""
    t_lo, t_hi = sc.tau_window
    return st.one_of(st.sampled_from((0.0, sc.b, sc.a, t_lo, 0.5 * (t_lo + t_hi), t_hi,
                                      sc.a + sc.eps, 1.0)),
                     st.floats(0.0, 1.0))


@settings(max_examples=200)
@given(sc=_feasible_scenarios(), data=st.data())
def test_plan_density_mass_conservation(sc, data):
    # the stem and the target edge carry mass beta between them at every time
    hd = _HalfDensity(sc, data.draw(_times(sc)))
    total = hd.integrate("stem", lambda r: r) + hd.integrate("target", lambda r: r)
    assert abs(total - sc.beta) <= 1e-12 * sc.beta, (hd.t, total)


_FROZEN_SIDES = {"stem": (frozen_stem_arr, frozen_stem_support),
                 "target": (frozen_target_arr, frozen_target_support)}


@settings(max_examples=200)
@given(sc=_feasible_scenarios(), data=st.data())
def test_side_density_matches_the_frozen_per_side_formulas(sc, data):
    # one signed formula for both sides keeps every float operation of the
    # two it replaced: densities, supports and breakpoints agree bit for bit,
    # at the breakpoints, one ulp either side of them and past the support
    hd = _HalfDensity(sc, data.draw(_times(sc)))
    for side, (frozen_arr, frozen_support) in _FROZEN_SIDES.items():
        assert repr(hd.support(side)) == repr(frozen_support(hd))
        pts = hd._breaks(side)
        assert repr(pts) == repr(frozen_breaks(hd, side))
        span = max(hd.support(side)[1], hd.s_hi)
        past = hd.support(side)[1] + span * np.array([1e-12, 1e-6, 1e-3, 0.5])
        rand = data.draw(st.lists(st.floats(-0.1 * span, 2.0 * span), min_size=1, max_size=40))
        xs = np.concatenate([[0.0, -0.0, hd.s_lo, hd.s_hi], pts, np.nextafter(pts, -np.inf),
                             np.nextafter(pts, np.inf), past, rand])
        assert hd.side_density(side, xs).tobytes() == frozen_arr(hd, xs).tobytes(), side
    with pytest.raises(ValueError, match="side must be"):
        hd.support("up")


def test_certificate_scans_the_target_sup_once(monkeypatch):
    scans = []
    sup = _HalfDensity.sup_density

    def counting(self, side):
        scans.append((self.t, side))
        return sup(self, side)

    monkeypatch.setattr(_HalfDensity, "sup_density", counting)
    tripod = Tripod((1.0, 1.0, 1.0), densities=(1.0, 0.5, 3.0))
    pair = build_branching_plans(tripod, SCENARIO)
    assert scans == [(SCENARIO.b, "stem"), (1.0, "target")]
    cert = pair.certificate
    target = sup(pair.half_density(1.0), "target")
    assert cert["sup_density_up_at_1"] == target / 0.5
    assert cert["sup_density_down_at_1"] == target / 3.0
    assert cert["C"] == max(cert["sup_density_at_b"], target / 0.5, target / 3.0)


def _dense_sup(hd, side, n=20001):
    """The side's length density scanned at n points per piece."""
    pts = hd._breaks(side)
    return max([0.0] + [float(np.max(hd.side_density(side, np.linspace(aa, bb, n))))
                        for aa, bb in zip(pts[:-1], pts[1:]) if bb - aa > 1e-15])


@settings(max_examples=60)
@given(sc=_feasible_scenarios(), data=st.data(), densities=st.tuples(*[st.floats(0.2, 5.0)] * 3))
def test_sup_density_is_read_at_the_breakpoints(sc, data, densities):
    # a dense scan inside the pieces never beats the breakpoints: not at the
    # certificate's times b and 1, nor on the stem at any time, nor on the
    # target outside the crossing window
    pair = build_branching_plans(Tripod((1.0, 10.0, 10.0), densities=densities), sc)
    dense_b = _dense_sup(pair.half_density(sc.b), "stem")
    dense_1 = _dense_sup(pair.half_density(1.0), "target")
    assert pair.certificate["C"] >= max(dense_b / densities[0],
                                        dense_1 / min(densities[1:])) * (1.0 - 1e-12)
    t_lo, t_hi = sc.tau_window
    for side, t in (("stem", data.draw(st.floats(0.0, 1.0))),
                    ("target", data.draw(st.floats(0.0, t_lo))),
                    ("target", data.draw(st.floats(t_hi, 1.0, exclude_min=True)))):
        hd = pair.half_density(t)
        assert hd.sup_density(side) >= _dense_sup(hd, side) * (1.0 - 1e-12), (side, t)


def test_sup_density_refuses_the_target_inside_the_crossing_window(pair):
    # while the geodesics still cross, the target density peaks inside a
    # piece, and at tau_hi in the limit u -> 0+
    t_lo, t_hi = SCENARIO.tau_window
    for t in (0.5 * (t_lo + t_hi), t_hi):
        hd = pair.half_density(t)
        with pytest.raises(ValueError, match="peaks between its breakpoints"):
            hd.sup_density("target")
        assert hd.sup_density("stem") >= _dense_sup(hd, "stem") * (1.0 - 1e-12)


# -- refusals ------------------------------------------------------------------------

@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: TripodPoint(3, 0.1), "edge must be 0, 1 or 2", id="point-edge-3"),
    pytest.param(lambda: TripodPoint(0, -0.1), "s must be >= 0", id="point-s-negative"),
    pytest.param(lambda: Tripod((1.0, 0.0, 1.0)), "need three positive edge lengths",
                 id="tripod-length-0"),
    pytest.param(lambda: Tripod((1.0, 1.0, 1.0), (1.0, -1.0, 1.0)),
                 "need three positive edge densities", id="tripod-density-negative"),
    pytest.param(lambda: TRIPOD.distance(TripodPoint(1, 2.0), TRIPOD.center),
                 r"point TripodPoint\(edge=1, s=2.0\) beyond edge length", id="point-past-edge"),
    pytest.param(lambda: TRIPOD.measure_ball(TRIPOD.center, -1.0),
                 "radius must be >= 0, got -1.0", id="radius-negative"),
    pytest.param(lambda: BranchingScenario(a=0.5, b=0.1, eps=0.05, eta=0.0),
                 "eta must be > 0", id="scenario-eta-0"),
    pytest.param(lambda: BranchingScenario(a=0.5, b=0.1, eps=0.05, eta=0.5, beta=1.5),
                 r"beta must lie in \(0, 1\]", id="scenario-beta-past-1"),
    pytest.param(lambda: BranchingScenario(a=0.5, b=0.1, eps=0.05, eta=0.5, N=1.0),
                 "N must be > 1", id="scenario-n-1"),
    pytest.param(lambda: entropy_along(build_branching_plans(TRIPOD, SCENARIO), 1.5),
                 r"t must lie in \[0,1\]", id="entropy-t-past-1"),
    pytest.param(lambda: entropy_along(build_branching_plans(TRIPOD, SCENARIO), 0.5, "up"),
                 "which must be 'u', 'd' or 'mixed'", id="entropy-unknown-which"),
])
def test_refusals_name_the_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
