"""Classifying 1D model spaces by admissible curvature parameters.

The classifier searches a candidate list for the smallest K whose
convexity battery the space's weight passes.  Circles face the targeted obstruction search for K > 0,
so no positive bound is ever admitted there.
"""

import math

import numpy as np

from curvlab1d.coefficients import CurvatureParams
from curvlab1d.space1d import Space1D, Topology1D, WeightFn
from curvlab1d.geometry_scan import classify

candidates = [CurvatureParams(k, n)
              for k, n in ((1.0, 2.0), (0.5, 2.0), (0.0, 2.0), (-1.0, 2.0))]


def show(name, space, search_params):
    report = classify(space, search_params)
    if report is not None:
        print(f"{name:<28} -> {space.topology.kind:<9} admissible at "
              f"(K, N) = ({report.K:+.1f}, {report.N:.0f})")
    else:
        print(f"{name:<28} -> {space.topology.kind:<9} no admissible pair")


print("candidate battery: (1,2), (0.5,2), (0,2), (-1,2); smallest passing K wins\n")

flat_iv = Space1D(Topology1D("interval", 1.0))
show("flat interval", flat_iv, candidates)

K, N = 1.0, 2.0
alpha = math.sqrt(K / N)
half = 0.9 * math.pi / (2 * alpha)
w = WeightFn.from_callable(lambda x: -N * np.log(np.cos(x * alpha)), -half, half, 1e-3)
cos_line = Space1D(Topology1D("line"), w, grid_step=1e-3, window=(-half, half))
show("cosine-weight line window", cos_line, [CurvatureParams(1.0, 2.0)])

flat_circle = Space1D(Topology1D("circle", 1.0))
show("flat unit circle", flat_circle, [CurvatureParams(1.0, 2.0), CurvatureParams(0.1, 8.0)])
show("flat unit circle (K <= 0 ok)", flat_circle, candidates)

conc = WeightFn.from_callable(lambda x: -x * x, -1, 1, 1e-3)
conc_line = Space1D(Topology1D("line"), conc, grid_step=1e-3, window=(-1, 1))
show("concave-weight line", conc_line, [CurvatureParams(1.0, 2.0), CurvatureParams(0.0, 2.0)])

print("\nThe smallest-K convention reports the weakest admissible bound in")
print("the candidate list; a circle rejects every K > 0 as it must.")
