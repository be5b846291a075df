"""Weight convexity and entropic curvature-dimension checks.

Three stories:
  1. the cosine weight sits exactly at equality of the (K,N)-convexity
     inequality (margins at interpolation-error scale);
  2. the flat interval is entropically (0,N) but fails any K > 0;
  3. the two 1D density regimes differ: the convexity-definition equality
     weight cos^N is weaker than the entropic condition, while the
     cos^{N-1} comparison density passes arbitrary pairs.
"""

import math

import numpy as np

from curvlab1d.coefficients import CurvatureParams
from curvlab1d.space1d import Space1D, Topology1D, WeightFn
from curvlab1d.transport1d import uniform_measure
from curvlab1d.curvature import (
    check_kn_convex, differential_criterion, verify_cd_infty, verify_cde,
)

K, N = 1.0, 2.0

print("=== (K,N)-convexity of the equality weight ===\n")
alpha = math.sqrt(K / N)
half = 0.9 * math.pi / (2 * alpha)
w = WeightFn.from_callable(lambda x: -N * np.log(np.cos(x * alpha)), -half, half, 1e-3)
space = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-half, half))
rng = np.random.default_rng(1)
plans = [sorted(-half + 2 * half * rng.random(2)) for _ in range(100)]
plans = [(x0, x1) for x0, x1 in plans if abs(x1 - x0) > 0.05]
rep = check_kn_convex(space, CurvatureParams(K, N), plans, tol=1e-5)
print(f"cos^N weight, 100 random triples: worst margin {rep.max_violation:+.2e} "
      f"(equality case; PASS = {rep.passed})")

repd = differential_criterion(w, CurvatureParams(K, N))
print(f"pointwise criterion V'' >= K + V'^2/N: worst node margin "
      f"{repd.max_violation:+.2e}")

print("\n=== entropic checks on the flat interval ===\n")
flat = Space1D(Topology1D("interval", 1.0), grid_step=1e-3)
rng = np.random.default_rng(2)
pairs = []
for _ in range(30):
    w0 = rng.uniform(0.05, 0.3); a0 = rng.uniform(0, 1 - w0)
    w1 = rng.uniform(0.05, 0.3); a1 = rng.uniform(0, 1 - w1)
    pairs.append((uniform_measure(flat, a0, a0 + w0),
                  uniform_measure(flat, a1, a1 + w1)))
rep0 = verify_cde(flat, CurvatureParams(0.0, 2.0), pairs, tol=5e-4)
print(f"CD^e(0,2): worst margin {rep0.max_violation:+.2e}  PASS = {rep0.passed}")

stretch = [(uniform_measure(flat, 0.1, 0.3), uniform_measure(flat, 0.5, 0.9))]
rep5 = verify_cde(flat, CurvatureParams(5.0, 2.0), stretch, tol=5e-4)
print(f"CD^e(5,2) on a stretching pair: margin {rep5.max_violation:+.4f}  "
      f"(flat space has no positive lower bound)")

repi = verify_cd_infty(flat, 3.0, stretch, tol=5e-4)
print(f"CD(3,inf) on the same pair: margin {repi.max_violation:+.4f}  (fails too)")

wg = WeightFn.from_callable(lambda x: x * x / 2.0, -3, 3, 1e-3)
gauss = Space1D(Topology1D("line"), wg, grid_step=1e-3, window=(-3, 3))
gp = []
rng = np.random.default_rng(3)
for _ in range(15):
    w0 = rng.uniform(0.1, 0.8); a0 = rng.uniform(-2.5, 2.5 - w0)
    w1 = rng.uniform(0.1, 0.8); a1 = rng.uniform(-2.5, 2.5 - w1)
    gp.append((uniform_measure(gauss, a0, a0 + w0),
               uniform_measure(gauss, a1, a1 + w1)))
repg = verify_cd_infty(gauss, 1.0, gp, tol=1e-3)
print(f"Gaussian weight, CD(1,inf): worst margin {repg.max_violation:+.2e}  "
      f"PASS = {repg.passed}")

print("\n=== the two 1D density regimes ===\n")
beta = math.sqrt(K / (N - 1))
half2 = 0.9 * math.pi / (2 * beta)
wbe = WeightFn.from_callable(lambda x: -(N - 1) * np.log(np.cos(x * beta)),
                             -half2, half2, 1e-3)
be_space = Space1D(Topology1D("line"), wbe, grid_step=1e-3, window=(-half2, half2))
rng = np.random.default_rng(4)

def pair_battery(sp, count):
    lo, hi = sp.domain()
    out = []
    for _ in range(count):
        w0 = rng.uniform(0.05, 0.5); a0 = rng.uniform(lo, hi - w0)
        w1 = rng.uniform(0.05, 0.5); a1 = rng.uniform(lo, hi - w1)
        out.append((uniform_measure(sp, a0, a0 + w0),
                    uniform_measure(sp, a1, a1 + w1)))
    return out

rep_be = verify_cde(be_space, CurvatureParams(K, N), pair_battery(be_space, 20), tol=1e-3)
print(f"cos^(N-1)(x sqrt(K/(N-1))) density, arbitrary pairs: "
      f"margin {rep_be.max_violation:+.2e}  PASS = {rep_be.passed}")

rep_eq = verify_cde(space, CurvatureParams(K, N), pair_battery(space, 20), tol=1e-3)
print(f"cos^N(x sqrt(K/N)) density, arbitrary pairs:          "
      f"margin {rep_eq.max_violation:+.4f}  (genuine violation: the convexity")
print("  definition is the necessary direction, not a sufficient one)")
