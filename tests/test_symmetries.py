"""Verdicts that respect the symmetries of CD(K, N).

(X, d, m), its mirror image and (X, d, e^{-c} m) have the same
curvature-dimension bounds, and (X, lambda d, m) is CD(K / lambda^2, N)
when (X, d, m) is CD(K, N).
An exact check moves its margin under neither.  Each property below holds
a check's margin to a rounding bound; relations that a check breaks today
are `FOUND:` lines in CHANGES.md (ROADMAP item 20).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from curvlab1d.coefficients import CurvatureParams
from curvlab1d.curvature import (_DEFAULT_T_GRID, TripleBattery, _battery_margins,
                                 _battery_sigmas, check_kn_convex, default_triple_battery,
                                 verify_cd_infty)
from curvlab1d.space1d import Space1D, Topology1D, WeightFn
from curvlab1d.transport1d import entropies_along, uniform_measure

# Rounding bound on a verify_cd_infty margin.  Every entropy is a sum over
# the weight's knots inside one segment (at most 40 here) of products
# rounded once each, so it moves by a few ulps per term of the largest
# magnitude that enters it; the bound for a row is 64 eps times that
# magnitude: |Ent0| + |Ent1| + |Ent_t| + |K| W2^2 on the unmoved space,
# plus |c| or |log lambda|, the shift that the relation adds to each
# entropy.  In 3,000 random draws the margin moved by at most 4.3 eps of it.
ROUNDING = 64.0 * np.finfo(float).eps

# Rounding bound on a (K,N)-convexity row margin under the mirror x -> L - x.
# The row's points and length move by an ulp of L, which moves
# g = exp(-f/N) by about eps L max|f'| / N of g, and interpolating the
# mirrored weight rounds once more; the row is sigma0 g0 + sigma1 g1 - g_t,
# so the bound is 16 eps (|sigma0| + |sigma1| + 1) max g max(1, L max|f'| / N).
# It leaves out sigma's own sensitivity to d: rows with K d^2 < N pi^2 / 2
# moved by at most 2.1 eps of that scale in 1,500 random draws, but within
# 6% of the conjugate length a row can move past it (a FOUND: line in
# CHANGES.md).
MIRROR_ROUNDING = 16.0 * np.finfo(float).eps


def weighted_space(kind, length, f, lam=1.0, c=0.0):
    """The PL weight f + c on evenly spaced knots over [0, length) of kind,
    with every length times lam."""
    n = len(f)
    if kind == "circle":
        topo = Topology1D("circle", lam * length / (2.0 * math.pi))
        coords = lam * np.linspace(0.0, length, n, endpoint=False)
        return Space1D(topo, WeightFn(coords, f + c, period=topo.circumference),
                       grid_step=lam * length / 400)
    w = WeightFn(lam * np.linspace(0.0, length, n), f + c)
    if kind == "interval":
        return Space1D(Topology1D("interval", lam * length), w, grid_step=lam * length / 400)
    return Space1D(Topology1D(kind), w, grid_step=lam * length / 400,
                   window=(0.0, lam * length))


def uniform_pairs(space, spans, lam=1.0):
    """Uniform pairs from (a0, w0, a1, w1) start-and-width spans, given in
    unscaled lengths."""
    return [(uniform_measure(space, lam * a0, lam * (a0 + w0)),
             uniform_measure(space, lam * a1, lam * (a1 + w1)))
            for a0, w0, a1, w1 in spans]


def entropy_scale(space, K, pairs):
    """The largest |Ent0| + |Ent1| + |Ent_t| + |K| W2^2 over rows."""
    scale = 0.0
    for mu0, mu1 in pairs:
        d, ents = entropies_along(mu0, mu1, [0.0, 1.0, *_DEFAULT_T_GRID])
        scale = max(scale, abs(ents[0]) + abs(ents[1]) + max(map(abs, ents[2:]))
                    + abs(K) * d * d)
    return scale


@st.composite
def weighted_cases(draw, kinds):
    """(kind, length, f, K, spans) with 1-4 uniform pairs inside [0, length)."""
    kind = draw(st.sampled_from(kinds))
    length = draw(st.floats(0.5, 5.0))
    f = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=40)))
    K = draw(st.floats(-2.0, 2.0))
    spans = []
    for _ in range(draw(st.integers(1, 4))):
        w0, w1 = (length * draw(st.floats(0.05, 0.4)) for _ in range(2))
        a0, a1 = ((length - w) * draw(st.floats(0.0, 0.99)) for w in (w0, w1))
        spans.append((a0, w0, a1, w1))
    return kind, length, f, K, spans


@settings(max_examples=40)
@given(case=weighted_cases(("interval", "line", "halfline", "circle")),
       c=st.floats(-20.0, 20.0))
def test_cd_infty_margin_ignores_a_constant_in_the_weight(case, c):
    # f -> f + c scales m by e^{-c}: every entropy moves by c, and the
    # margin Ent_t - (1 - t) Ent0 - t Ent1 + K/2 t(1 - t) W2^2 by nothing
    kind, length, f, K, spans = case
    space = weighted_space(kind, length, f)
    pairs = uniform_pairs(space, spans)
    shifted = weighted_space(kind, length, f, c=c)
    base = verify_cd_infty(space, K, pairs).max_violation
    moved = verify_cd_infty(shifted, K, uniform_pairs(shifted, spans)).max_violation
    bound = ROUNDING * (entropy_scale(space, K, pairs) + abs(c))
    assert abs(moved - base) <= bound, (base, moved, bound)


@settings(max_examples=40)
@given(case=weighted_cases(("interval", "line", "halfline")),
       log_lam=st.floats(-2.0, 2.0))
def test_cd_infty_margin_ignores_the_unit_of_length(case, log_lam):
    # lengths times lambda with K / lambda^2: every entropy moves by
    # -log lambda, W2 scales by lambda, and the margin stays.  The circle is
    # left out: its cut's golden-section shift moves margins by up to 1.4e-8
    # under this relation (a FOUND: line in CHANGES.md, ROADMAP item 5)
    kind, length, f, K, spans = case
    lam = 10.0 ** log_lam
    space = weighted_space(kind, length, f)
    pairs = uniform_pairs(space, spans)
    scaled = weighted_space(kind, length, f, lam=lam)
    base = verify_cd_infty(space, K, pairs).max_violation
    moved = verify_cd_infty(scaled, K / lam ** 2,
                            uniform_pairs(scaled, spans, lam)).max_violation
    bound = ROUNDING * (entropy_scale(space, K, pairs) + abs(math.log(lam)))
    assert abs(moved - base) <= bound, (base, moved, bound)


@settings(max_examples=40)
@given(length=st.floats(0.5, 5.0),
       f=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=40).map(np.array),
       K=st.floats(-2.0, 2.0), N=st.floats(1.1, 4.0), seed=st.integers(0, 2 ** 16))
def test_kn_convex_margins_ignore_a_mirror(length, f, K, N, seed):
    # the interval's weight mirrored, f(L - x), and the default battery's
    # endpoints mirrored: every row is the same triple, read from the other end
    space = weighted_space("interval", length, f)
    coords = space.weight.coords
    mirror = Space1D(Topology1D("interval", length),
                     WeightFn(length - coords[::-1], f[::-1]), grid_step=space.grid_step)
    bat = default_triple_battery(space, seed=seed)
    flipped = TripleBattery(length - bat.x0, length - bat.x1, bat.major, bat.t, bat.plan_of)
    params = CurvatureParams(K, N)
    rows = [bat.major, bat.t, bat.plan_of]
    base, live = _battery_margins(space, params, bat.x0, bat.x1, *rows)
    moved, live_moved = _battery_margins(mirror, params, flipped.x0, flipped.x1, *rows)
    assert np.array_equal(live, live_moved)
    _, s0, s1 = _battery_sigmas(params, np.abs(bat.x1 - bat.x0), bat.t, bat.plan_of)
    slope = float(np.max(np.abs(np.diff(f) / np.diff(coords))))
    scale = math.exp(-float(np.min(f)) / N) * max(1.0, length * slope / N)
    bound = MIRROR_ROUNDING * (np.abs(s0) + np.abs(s1) + 1.0) * scale
    on = live[bat.plan_of]
    assert np.all(np.abs(moved[on] - base[on]) <= bound), float(np.max(
        np.abs(moved[on] - base[on]) / bound))
    report = check_kn_convex(space, params, bat)
    again = check_kn_convex(mirror, params, flipped)
    assert abs(again.max_violation - report.max_violation) <= float(np.max(bound))
