"""Exact 1D optimal transport: quantiles, W2, displacement, entropy.

The quantile coupling solves 1D transport exactly; this script compares it
with closed forms, shows displacement interpolation between uniforms, and
evaluates the entropy functionals along the geodesic.
"""

import math

import numpy as np

from curvlab1d.space1d import Space1D, Topology1D
from curvlab1d.transport1d import (
    displacement_interpolate, entropy, measure_from_atoms, quantile, renyi,
    uniform_measure, w2,
)

space = Space1D(Topology1D("line"), grid_step=1e-3, window=(0, 10))

print("=== W2 between uniforms ===\n")
mu0 = uniform_measure(space, 0.0, 1.0)
mu1 = uniform_measure(space, 4.0, 5.0)
print(f"translate [0,1] -> [4,5]:  W2 = {w2(mu0, mu1):.12f} (exactly 4)")
mu2 = uniform_measure(space, 0.0, 2.0)
print(f"stretch   [0,1] -> [0,2]:  W2 = {w2(mu0, mu2):.12f} "
      f"(exactly sqrt(1/3) = {math.sqrt(1/3):.12f})")

print("\n=== atoms (mollified at width 1e-4) ===\n")
nu0 = measure_from_atoms(space, [1.0, 3.0, 6.0], [0.2, 0.3, 0.5])
nu1 = measure_from_atoms(space, [2.0, 5.0, 8.0], [0.2, 0.3, 0.5])
print(f"3-atom pair: W2 = {w2(nu0, nu1):.6f}")
print("(the quantile coupling matches the exact LP plan; see the tests)")

print("\n=== displacement interpolation ===\n")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    mid = displacement_interpolate(mu0, mu2, t)
    lo, hi = mid.support_window
    print(f"t = {t:.2f}: support [{lo:.3f}, {hi:.3f}]  "
          f"(uniform [0, {1 + t:.2f}] expected)")

print("\n=== entropy along the geodesic ===\n")
print("Between translates the entropy is constant; between a uniform and")
print("its stretch it decreases concavely toward the wider endpoint:\n")
for t in np.linspace(0, 1, 6):
    m = displacement_interpolate(mu0, mu2, float(t))
    print(f"  t = {t:.1f}: Ent = {entropy(m):+.6f}  "
          f"(exactly -log(1+t) = {-math.log(1 + t):+.6f})")

print("\nDimensional entropies recover the entropy as N grows:")
mu = uniform_measure(space, 0.0, 2.0)
for N in (2, 8, 64, 1024):
    print(f"  S_{N:<5} = {renyi(mu, float(N)):+.6f}")
print(f"  Ent     = {entropy(mu):+.6f}")

print("\nQuantile of the density 2x on [0,1] is sqrt(u):")
from curvlab1d.transport1d import measure_from_density
q = quantile(measure_from_density(space, lambda x: 2 * np.clip(x, 0, 1) * (x <= 1),
                                  0.0, 1.0, n_cells=4000))
for u in (0.04, 0.25, 0.64):
    print(f"  Q({u}) = {q(u):.6f}  vs sqrt(u) = {math.sqrt(u):.6f}")
