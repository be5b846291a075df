"""Ball-growth comparisons: ratio monotonicity, boundary-measure bounds,
linear growth, density-ratio traces, and the Lipschitz modulus.
"""

import math

import numpy as np

from curvlab1d.coefficients import CurvatureParams
from curvlab1d.space1d import Space1D, Topology1D, WeightFn
from curvlab1d.branching import Tripod, TripodPoint
from curvlab1d.geometry_scan import (
    bg_boundary_check, bg_ratio_scan, density_ratio_trace,
    linear_growth_constant, lipschitz_modulus,
)

line = Space1D(Topology1D("line"), window=(-4, 4))
p02 = CurvatureParams(0.0, 2.0)

print("=== ratio monotonicity m(B_r)/F(r) ===\n")
radii = list(np.linspace(0.4, 2.6, 8))
rep = bg_ratio_scan(line, 0.0, p02, radii)
print("flat line, (K,N) = (0,2):  ratio = 4/r, strictly decreasing")
for r, v in zip(rep.extra["r_grid"], rep.extra["ratios"]):
    print(f"  r = {r:.3f}:  {v:.4f}")
print(f"worst consecutive increase: {rep.max_violation:+.2e}  PASS = {rep.passed}")

print("\nFlat spaces carry no K > 0 bound: at (1,2) the ratio turns "
      "increasing past r ~ 2.33:")
rep_bad = bg_ratio_scan(line, 0.0, CurvatureParams(1.0, 2.0), [2.0, 2.5, 3.0])
print(f"  margin {rep_bad.max_violation:+.4f}  PASS = {rep_bad.passed}")

print("\n=== boundary-measure bound ===\n")
rep_b = bg_boundary_check(line, 0.0, p02, [1.0])
print(f"flat line, t = 1: boundary mass {rep_b.witness['lhs']:.1f} <= "
      f"bound {rep_b.witness['rhs']:.1f}  (slack {-rep_b.max_violation:.1f})")

print("\n=== linear ball growth ===\n")
C, rep_g = linear_growth_constant(line, 0.0, 2.0, [0.1, 0.3, 0.5, 1.0], p02)
print(f"flat line: empirical sup m(B_s(x))/s = {C:.6f}, "
      f"envelope {rep_g.extra['envelope']:.1f}")

print("\n=== density-ratio traces (liminf proxies) ===\n")
trace = density_ratio_trace(line, 0.0, 1, list(np.linspace(1.0, 0.05, 8)))
print(f"flat line, k=1: ratios all {trace.ratios[0]:.1f}, in M_1 = {trace.in_mk}")
tripod = Tripod((1.0, 1.0, 1.0))
t1 = density_ratio_trace(tripod, TripodPoint(0, 0.0), 1,
                         list(np.linspace(0.5, 0.01, 8)))
print(f"tripod center, k=1: ratios all {t1.ratios[0]:.1f} (three branches), "
      f"in M_1 = {t1.in_mk}")
t2 = density_ratio_trace(tripod, TripodPoint(0, 0.0), 2,
                         list(np.linspace(0.5, 0.01, 8)))
print(f"tripod center, k=2: ratio grows {t2.ratios[0]:.0f} -> {t2.ratios[-1]:.0f} "
      f"(diverges), in M_2 = {t2.in_mk}")

print("\n=== Lipschitz modulus of x -> m(B_r(x))/r ===\n")
w = WeightFn.from_callable(lambda x: 0.5 * x, -4, 4, 1e-3)
wline = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-4, 4))
pairs = [(x, x + 0.05) for x in np.linspace(-2, 2, 20)]
emp, theory, rep_l = lipschitz_modulus(wline, p02, 0.5, pairs)
print(f"weight f = x/2: empirical constant {emp:.4f} <= bound {theory:.4f} "
      f"(margin {rep_l.max_violation:+.3f})")
