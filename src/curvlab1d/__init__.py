"""curvlab-1d: synthetic lower Ricci curvature checks on 1D weighted spaces.

The library evaluates, at desk scale, the quantitative inequalities that
govern curvature-dimension conditions on one-dimensional weighted metric
measure spaces (line, half-line, interval, circle) and on the branching
tripod graph: distortion-coefficient convexity, (K,N)-convexity of weights,
entropic CD^e(K,N) / CD(K,infinity) checks along exact 1D Wasserstein
geodesics, the circle non-collapse obstruction for K > 0, Bishop-Gromov
ratio and boundary-measure bounds, and the failure of K-convexity of the
entropy under branching.
"""

__version__ = "0.1.0"

from .coefficients import CurvatureParams, sigma, s_vol, f_vol
from .space1d import Topology1D, WeightFn, Space1D, RescaledSpace
from .transport1d import ProbMeasure1D, QuantileFn
from .curvature import CurvatureReport, TriplePlan
from .branching import Tripod, TripodPoint, BranchingScenario, PlanPair

__all__ = [
    "CurvatureParams", "sigma", "s_vol", "f_vol",
    "Topology1D", "WeightFn", "Space1D", "RescaledSpace",
    "ProbMeasure1D", "QuantileFn",
    "CurvatureReport", "TriplePlan",
    "Tripod", "TripodPoint", "BranchingScenario", "PlanPair",
    "__version__",
]
