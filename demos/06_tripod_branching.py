"""Branching kills entropy K-convexity: the tripod experiment.

Two mirrored plans share a common prefix, branch inside a short window,
and land on different edges.  Writing K-convexity of the entropy along
their mixture produces a chain whose right side is a fixed negative
number while the left side vanishes with the window width: for small
windows the chain fails, so no K-convexity can hold.  The dimensional
variant fails with the sharper factor 2^(1/N).
"""

import math

import numpy as np

from curvlab1d.branching import (
    BranchingScenario, Tripod, entropy_chain_inequality, build_branching_plans,
    entropy_along, mixture_w2_correction, renyi_contradiction,
)

tripod = Tripod((1.0, 1.0, 1.0))
base = BranchingScenario(a=0.5, b=0.1, eps=0.05, eta=0.5)

print("=== the plan pair ===\n")
pair = build_branching_plans(tripod, base)
print(f"source arc s in {base.s_window}, crossing times tau in {base.tau_window}")
print(f"density certificate C = {pair.certificate['C']:.4f} "
      f"(time-b sup {pair.certificate['sup_density_at_b']:.4f}, "
      f"time-1 sup {pair.certificate['sup_density_up_at_1']:.4f})")

t_dis = base.a + base.eps
em = entropy_along(pair, t_dis, "mixed")
eu = entropy_along(pair, t_dis, "u")
ed = entropy_along(pair, t_dis, "d")
print(f"\nsplit identity at t = a + eps: Ent(mixed) = {em:.6f}")
print(f"  (Ent(u) + Ent(d))/2 - log 2  = {0.5 * eu + 0.5 * ed - math.log(2):.6f}")

print("\n=== the entropy chain over shrinking windows ===\n")
print(f"{'eps':>7} {'lhs':>10} {'rhs':>10}   chain")
for eps in (0.05, 0.02, 0.01, 0.005, 0.002):
    rep = entropy_chain_inequality(build_branching_plans(tripod, base.replace_eps(eps)))
    verdict = "FAILS (contradiction)" if rep["contradiction"] else "holds"
    print(f"{eps:>7} {rep['lhs']:>10.4f} {rep['rhs']:>10.4f}   {verdict}")

print("\nThe right side stays below -0.01 while the left side climbs to 0:")
print("once lhs > rhs the K-convexity chain that produced the bound is")
print("violated, which is the contradiction.")

print("\n=== the dimensional variant: the 2^(1/N) factor ===\n")
p = build_branching_plans(tripod, base.replace_eps(1e-3))
print(f"{'N':>6} {'ratio':>10} {'2^(1/N)':>10}")
for N in (2.0, 8.0, 64.0, 1024.0):
    rep = renyi_contradiction(p, N)
    print(f"{N:>6.0f} {rep['ratio']:>10.6f} {rep['threshold']:>10.6f}")
print("\nconcavity would force ratio <= 1; it converges to 2^(1/N) instead.")

print("\n=== curvature correction for K != 0 ===\n")
out = mixture_w2_correction(pair, K=1.0)
print(f"W2(mixture at b, mixture at a+eps) = {out['w2']:.6f}")
print(f"correction term = {out['correction']:.6f} <= envelope {out['envelope']:.6f}")
