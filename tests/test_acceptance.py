"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line with its measured numbers so the run
doubles as a human-readable report: `pytest tests/test_acceptance.py -s`.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from curvlab1d.coefficients import CurvatureParams, sigma
from curvlab1d.space1d import Space1D, Topology1D, WeightFn
from curvlab1d.transport1d import measure_from_atoms, uniform_measure, w2
from curvlab1d.curvature import (
    check_kn_convex, circle_obstruction, verify_cd_infty, verify_cde,
)
from curvlab1d.geometry_scan import bg_boundary_check, bg_ratio_scan, lipschitz_modulus
from curvlab1d.branching import (
    BranchingScenario, Tripod, entropy_chain_inequality, build_branching_plans,
    entropy_along, renyi_contradiction,
)
from curvlab1d.cli import main as cli_main

from oracles import lp_transport_cost


def report(num, name, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num:>2} [{name}] PASS ({elapsed:.2f}s < {budget}s) {detail}")


def flat(kind, **kw):
    window = {"line": (-4, 4), "halfline": (0, 8)}.get(kind)
    return Space1D(Topology1D(kind, None if window else 1.0), window=window, **kw)


def test_acceptance_01_sigma_sanity():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_dev = 0.0
    for _ in range(10_000):
        t = float(rng.uniform(0, 1))
        N = float(rng.uniform(1.01, 32.0))
        theta = float(rng.uniform(0, 5.0))
        p0 = CurvatureParams(0.0, N)
        assert sigma(t, p0, theta) == t
        pk = CurvatureParams(float(rng.uniform(-3, 3)), N)
        if pk.K * theta ** 2 < N * math.pi ** 2:
            assert sigma(0.0, pk, theta) == 0.0
            assert abs(sigma(1.0, pk, theta) - 1.0) <= 1e-12
    # continuity across K = 0
    for _ in range(2000):
        t = float(rng.uniform(0, 1))
        N = float(rng.uniform(1.01, 32.0))
        theta = float(rng.uniform(0.05, 3.0))
        mag = 10.0 ** rng.uniform(-10, -4)
        K = mag / theta ** 2 * (1.0 if rng.random() < 0.5 else -1.0)
        dev = abs(sigma(t, CurvatureParams(K, N), theta) - t)
        assert dev <= 10.0 * abs(K) * theta ** 2
        worst_dev = max(worst_dev, dev / (abs(K) * theta ** 2))
    report(1, "sigma-sanity", time.time() - t0, 1.0,
           f"10k exact K=0 checks; worst |sigma-t|/(|K| theta^2) = {worst_dev:.3f}")


def test_acceptance_02_equality_weight_convexity():
    t0 = time.time()
    K, N = 1.0, 2.0
    alpha = math.sqrt(K / N)
    half = 0.9 * math.pi / (2 * alpha)  # central 90% of the cos-domain
    margins = {}
    plans = None
    for step in (1e-3, 5e-4):
        w = WeightFn.from_callable(lambda x: -N * np.log(np.cos(x * alpha)),
                                   -half, half, step)
        space = Space1D(Topology1D("line"), w, grid_step=step, window=(-half, half))
        if plans is None:
            rng = np.random.default_rng(7)
            plans = []
            while len(plans) < 150:
                x0, x1 = sorted(-half + 2 * half * rng.random(2))
                if x1 - x0 < 0.05:
                    continue
                plans.append((float(x0), float(x1)))
        rep = check_kn_convex(space, CurvatureParams(K, N), plans, tol=1e-5)
        margins[step] = abs(rep.max_violation)
    assert margins[1e-3] <= 1e-5
    ratio = margins[1e-3] / max(margins[5e-4], 1e-300)
    assert ratio >= 3.5
    report(2, "equality-weight", time.time() - t0, 30.0,
           f"|margin| = {margins[1e-3]:.2e} at h=1e-3; halving ratio {ratio:.2f}")


def test_acceptance_03_cde_flat_interval():
    t0 = time.time()
    space = flat("interval", grid_step=1e-3)
    rng = np.random.default_rng(42)
    pairs = []
    for _ in range(50):
        w0 = rng.uniform(0.05, 0.3)
        a0 = rng.uniform(0.0, 1.0 - w0)
        w1 = rng.uniform(0.05, 0.3)
        a1 = rng.uniform(0.0, 1.0 - w1)
        pairs.append((uniform_measure(space, a0, a0 + w0),
                      uniform_measure(space, a1, a1 + w1)))
    rep_pass = verify_cde(space, CurvatureParams(0.0, 2.0), pairs, tol=5e-4)
    assert rep_pass.max_violation <= 5e-4
    assert rep_pass.passed
    # stretching pair (2x stretch plus translation) must fail at K = 5
    fail_pair = [(uniform_measure(space, 0.1, 0.3), uniform_measure(space, 0.5, 0.9))]
    rep_fail = verify_cde(space, CurvatureParams(5.0, 2.0), fail_pair, tol=5e-4)
    assert rep_fail.max_violation >= 0.01
    assert not rep_fail.passed
    report(3, "cde-flat-interval", time.time() - t0, 60.0,
           f"50-pair margin {rep_pass.max_violation:.2e}; "
           f"K=5 stretching margin +{rep_fail.max_violation:.3f}")


def test_acceptance_04_circle_obstruction():
    t0 = time.time()
    circ = 2 * math.pi
    coords = np.linspace(0, circ, 2000, endpoint=False)
    rng = np.random.default_rng(4)

    weights = [np.zeros_like(coords)]
    for _ in range(10):  # random smooth periodic
        c = rng.normal(0, 0.3, size=4)
        weights.append(c[0] * np.sin(coords) + c[1] * np.cos(coords)
                       + c[2] * np.sin(2 * coords) + c[3] * np.cos(3 * coords))
    structured = [
        0.5 * np.sin(coords), 0.5 * np.cos(coords), 0.3 * np.sin(2 * coords),
        0.2 * np.cos(4 * coords), np.exp(0.4 * np.cos(coords)) - 1.0,
        0.25 * np.abs(np.sin(coords)), 0.4 * np.sin(coords) ** 2,
        0.3 * np.cos(coords) + 0.1 * np.sin(5 * coords),
        -0.35 * np.cos(2 * coords),
    ]
    weights.extend(structured)
    assert len(weights) == 20

    found = 0
    total = 0
    factor_err = None
    for K in (0.25, 1.0, 4.0):
        for i, vals in enumerate(weights):
            space = Space1D(Topology1D("circle", 1.0),
                            WeightFn(coords, vals, period=circ),
                            grid_step=circ / 2000)
            rep = circle_obstruction(space, CurvatureParams(K, 2.0))
            total += 1
            if not rep.extra["anomaly"] and rep.max_violation > 0:
                found += 1
            if i == 0:  # constant weight: factor matches 1/cos(d/2 sqrt(K/N))
                wt = rep.witness
                err = abs(wt["violation_factor"] - wt["analytic_factor"])
                assert err <= 1e-9
                factor_err = max(factor_err or 0.0, err)
    assert found == total == 60
    report(4, "circle-obstruction", time.time() - t0, 30.0,
           f"60/60 violations found; constant-weight factor error {factor_err:.1e}")


def _bg_battery():
    spaces = {k: flat(k) for k in ("line", "halfline", "interval", "circle")}
    centers = {"line": 0.0, "halfline": 0.0, "interval": 0.5, "circle": 0.0}
    reaches = {"line": 4.0, "halfline": 8.0, "interval": 0.5, "circle": math.pi}
    for name, space in spaces.items():
        for K, N in ((0.0, 2.0), (-1.0, 3.0), (1.0, 2.0)):
            params = CurvatureParams(K, N)
            conj = math.inf if K <= 0 else math.pi * math.sqrt((N - 1) / K)
            t_max = min(0.95 * conj, 0.98 * reaches[name])
            radii = list(np.linspace(0.1 * t_max, 0.7 * t_max, 10))
            if name == "line" and K == 0.0 and N == 2.0:
                # swap in the pinned LHS=4 / RHS=40 instance, keeping order
                k_near = int(np.argmin([abs(r - 1.0) for r in radii]))
                radii[k_near] = 1.0
                radii.sort()
            yield name, space, centers[name], params, radii


def test_acceptance_05_bg_boundary_inequality():
    t0 = time.time()
    pinned_ok = False
    min_slack = math.inf
    for name, space, x0, params, radii in _bg_battery():
        rep = bg_boundary_check(space, x0, params, radii)
        assert -rep.max_violation > 0.0, (name, params)
        min_slack = min(min_slack, -rep.max_violation)
        if name == "line" and params.K == 0.0 and params.N == 2.0:
            from curvlab1d.space1d import boundary_measure, measure_ball
            from curvlab1d.coefficients import f_vol, s_vol
            lhs = boundary_measure(space, x0, 1.0)
            rhs = (2 * 5.0 * measure_ball(space, x0, 1.0)
                   * s_vol(params, 1.0) / f_vol(params, 1.0))
            assert abs(lhs - 4.0) <= 1e-6
            assert abs(rhs - 40.0) <= 1e-6
            pinned_ok = True
    assert pinned_ok
    report(5, "bg-boundary", time.time() - t0, 10.0,
           f"12 space/parameter cells x 10 radii; min slack {min_slack:.3f}")


def test_acceptance_06_bg_ratio_monotonicity():
    t0 = time.time()
    worst = -math.inf
    for name, space, x0, params, radii in _bg_battery():
        margins = []
        for step in (space.grid_step, space.grid_step / 2.0, space.grid_step / 4.0):
            sp = Space1D(space.topology, space.weight, grid_step=step,
                         window=space.window)
            rep = bg_ratio_scan(sp, x0, params, radii)
            margins.append(rep.max_violation)
        # ball and comparison integrals are exact, so the margin is already
        # converged: the h, h/2, h/4 trend must be flat and stay <= 1e-6
        assert max(margins) - min(margins) <= 1e-12
        assert margins[-1] <= 1e-6, (name, params)
        worst = max(worst, margins[-1])
    report(6, "bg-ratio-monotone", time.time() - t0, 10.0,
           f"worst increase {worst:.2e} (refinement-stable)")


def test_acceptance_07_w2_lp_equivalence():
    t0 = time.time()
    sp = Space1D(Topology1D("line"), grid_step=1e-3, window=(0, 10))
    rng = np.random.default_rng(77)
    checked = 0
    worst_line = 0.0
    while checked < 200:
        k = int(rng.integers(2, 9))
        masses = rng.uniform(0.2, 1.0, size=k)
        masses /= masses.sum()
        xs = np.sort(rng.uniform(0.5, 9.5, size=k))
        ys = np.sort(rng.uniform(0.5, 9.5, size=k))
        if (np.min(np.diff(xs, prepend=-1.0)) < 2e-4
                or np.min(np.diff(ys, prepend=-1.0)) < 2e-4):
            continue
        got = w2(measure_from_atoms(sp, xs, masses), measure_from_atoms(sp, ys, masses))
        want = math.sqrt(lp_transport_cost(xs, masses, ys, masses))
        worst_line = max(worst_line, abs(got - want))
        checked += 1
    assert worst_line <= 1e-6

    circ = 2 * math.pi
    spc = Space1D(Topology1D("circle", 1.0), grid_step=1e-3)

    def dist(x, y):
        d = abs(x - y) % circ
        return min(d, circ - d)

    checked_c = 0
    worst_circle = 0.0
    while checked_c < 20:
        k = int(rng.integers(2, 8))
        masses = rng.uniform(0.2, 1.0, size=k)
        masses /= masses.sum()
        xs = np.sort(rng.uniform(0.0, circ - 0.01, size=k))
        ys = np.sort(rng.uniform(0.0, circ - 0.01, size=k))
        if (np.min(np.diff(xs, prepend=-1.0)) < 2e-4
                or np.min(np.diff(ys, prepend=-1.0)) < 2e-4):
            continue
        got = w2(measure_from_atoms(spc, xs, masses), measure_from_atoms(spc, ys, masses))
        want = math.sqrt(lp_transport_cost(xs, masses, ys, masses, dist=dist))
        worst_circle = max(worst_circle, abs(got - want))
        checked_c += 1
    assert worst_circle <= 5e-4
    report(7, "w2-lp-equivalence", time.time() - t0, 60.0,
           f"200 line pairs worst {worst_line:.1e}; 20 circle pairs worst {worst_circle:.1e}")


TRIPOD = Tripod((1.0, 1.0, 1.0))
BASE = BranchingScenario(a=0.5, b=0.1, eps=0.05, eta=0.5)


def test_acceptance_08_branching_shannon_chain():
    t0 = time.time()
    lhs_prev = -math.inf
    rows = []
    for eps in (0.05, 0.02, 0.01, 0.005, 0.002):
        pair = build_branching_plans(TRIPOD, BASE.replace_eps(eps))
        rep = entropy_chain_inequality(pair)
        lhs, rhs = rep["lhs"], rep["rhs"]
        assert rhs <= -0.01
        assert lhs < 0.0 and lhs > lhs_prev  # monotone toward 0
        lhs_prev = lhs
        if eps <= 0.01:
            assert rep["contradiction"], f"chain must fail at eps={eps}"
        rows.append((eps, lhs, rhs))
    report(8, "branching-shannon", time.time() - t0, 60.0,
           "; ".join(f"eps={e}: lhs={l:.3f} rhs={r:.3f}" for e, l, r in rows[-2:]))


def test_acceptance_09_branching_renyi_factor():
    t0 = time.time()
    got = {}
    for N in (2.0, 8.0, 64.0):
        rep = renyi_contradiction(build_branching_plans(TRIPOD, replace(BASE, eps=1e-3, N=N)))
        ratio, threshold = rep["ratio"], rep["threshold"]
        assert ratio >= threshold * (1.0 - 5e-3), (N, ratio, threshold)
        got[N] = (ratio, threshold)
    report(9, "branching-renyi", time.time() - t0, 60.0,
           "; ".join(f"N={int(N)}: {r:.4f} >= {th:.4f}(1-5e-3)"
                     for N, (r, th) in got.items()))


def test_acceptance_10_entropy_bookkeeping():
    t0 = time.time()
    rng = np.random.default_rng(10)
    worst_split = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.35, 0.6))
        b = float(rng.uniform(0.05, a - 0.15))
        eps = float(rng.uniform(0.005, min(0.08, (1 - a) / 3)))
        eta = float(rng.uniform(0.25, 0.6))
        beta = float(rng.choice([1.0, 1.0, 0.5]))
        sc = BranchingScenario(a=a, b=b, eps=eps, eta=eta, beta=beta)
        pair = build_branching_plans(TRIPOD, sc)
        t_dis = sc.a + sc.eps
        em = entropy_along(pair, t_dis, "mixed")
        eu = entropy_along(pair, t_dis, "u")
        ed = entropy_along(pair, t_dis, "d")
        err = abs(em - (0.5 * eu + 0.5 * ed - math.log(2.0)))
        assert err <= 1e-6
        worst_split = max(worst_split, err)
        # lower entropy bound of the up-half at a + eps (unnormalized)
        hd = pair.half_density(t_dis)

        def g(rho):
            out = np.zeros_like(rho)
            pos = rho > 0
            out[pos] = rho[pos] * np.log(rho[pos])
            return out

        ent_raw = hd.integrate("stem", g) + hd.integrate("target", g)
        bound = sc.beta * math.log(
            sc.eps / (10.0 * TRIPOD.measure_ball(TRIPOD.center, sc.eta / 2.0)))
        assert ent_raw >= bound
    report(10, "entropy-bookkeeping", time.time() - t0, 30.0,
           f"50 scenarios; worst split-identity error {worst_split:.1e}")


def test_acceptance_11_lipschitz_modulus():
    t0 = time.time()
    specs = [
        ("flat-line", lambda x: 0.0 * x),
        ("linear", lambda x: 0.5 * x),
        ("gaussian", lambda x: x * x / 4.0),
        ("cosine", lambda x: 0.4 * np.cos(2.0 * x)),
        ("sine-mix", lambda x: 0.3 * np.sin(x) + 0.2 * np.cos(3.0 * x)),
    ]
    params = CurvatureParams(0.0, 2.0)
    r = 0.5
    rng = np.random.default_rng(11)
    total_pairs = 0
    for name, fn in specs:
        w = WeightFn.from_callable(fn, -4.0, 4.0, 1e-3)
        space = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-4, 4))
        pairs = []
        while len(pairs) < 100:
            x = float(rng.uniform(-3.0, 3.0))
            d = float(r / 2.0 * rng.uniform(0.05, 0.95))
            if x - r < -4.0 or x + d + r > 4.0:
                continue
            pairs.append((x, x + d))
        emp, theory, rep = lipschitz_modulus(space, params, r, pairs)
        assert rep.max_violation <= 0.0, name
        total_pairs += len(pairs)
    assert total_pairs == 500
    report(11, "lipschitz-modulus", time.time() - t0, 30.0,
           "500/500 pairs below the comparison bound across 5 weighted spaces")


def test_acceptance_12_cli_determinism(tmp_path):
    t0 = time.time()
    descs = {
        "interval": {"topology": "interval", "param": 1.0, "grid_step": 1e-3},
        "line": {"topology": "line", "window": [-4, 4], "grid_step": 1e-3},
        "circle": {"topology": "circle", "param": 1.0, "grid_step": 1e-3},
        "scenario": {"a": 0.5, "b": 0.1, "eps": 0.05, "eta": 0.5,
                     "beta": 1.0, "N": 2.0, "edge_lengths": [1, 1, 1]},
        "grid": {"t": [0.0, 0.5, 1.0], "K": [0.0, 1.0], "N": [2.0],
                 "theta": [0.5, 1.0]},
    }
    paths = {}
    for name, desc in descs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(desc))
        paths[name] = str(p)
    commands = [
        ["check-kn-convex", "--input", paths["line"]],
        ["verify-cde", "--input", paths["interval"]],
        ["verify-cd-infty", "--input", paths["interval"]],
        ["circle-obstruction", "--input", paths["circle"], "--k", "1"],
        ["bg-scan", "--input", paths["line"]],
        ["bg-boundary", "--input", paths["line"]],
        ["density-ratio", "--input", paths["line"]],
        ["lipschitz", "--input", paths["line"]],
        ["classify", "--input", paths["interval"]],
        ["tripod-shannon", "--input", paths["scenario"]],
        ["tripod-renyi", "--input", paths["scenario"]],
        ["coefficients-table", "--input", paths["grid"]],
    ]
    for cmd in commands:
        o1 = str(tmp_path / "a.out")
        o2 = str(tmp_path / "b.out")
        cli_main(cmd + ["--seed", "9", "--output", o1])
        cli_main(cmd + ["--seed", "9", "--output", o2])
        assert open(o1, "rb").read() == open(o2, "rb").read(), cmd[0]
    report(12, "cli-determinism", time.time() - t0, 120.0,
           "12/12 commands byte-identical across reruns")
