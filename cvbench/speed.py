"""Machine-speed calibration of measured times.

The shared hosts this benchmark runs on change speed by 1.3x to 2x for
seconds to minutes at a time (SMT siblings and memory shared with other
tenants), and every timed metric moves with them at once.  No run length
averages that out, so the runner times a fixed calibration loop (the
*probe*) before every verdict and every set-up, and after the last one.
Each measured time is scaled by ``REFERENCE_PROBE_S / p``, where ``p`` is
the median probe time around it: it is reported in seconds of a machine on
which the probe takes ``REFERENCE_PROBE_S``.  The probe is benchmark code,
so a change to the library moves the scaled times as it moves the raw ones.

The probe mixes what the library spends its time on: scalar numpy calls
from a Python loop (weight evaluations) and short vector passes over a
2001-point array (transport objectives, ball integrals).  On the development
host the scalar part slowed down more than the verdicts in a slow spell and
the vector part less; with about a third of the probe's time in the scalar
part, the log-log slope of verdict time against probe time was about 1 across
the job kinds of all three workloads.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the probe's time on the machine the benchmark was defined on (Intel
# Xeon, 2.1 GHz, 2 vCPUs) in its fast state; a nominal unit, not a limit.
REFERENCE_PROBE_S = 0.0045
SCALAR_CALLS = 1000
VECTOR_PASSES = 200
# Probes in the median for one measured time: two before the probe that
# precedes it, that probe, the one that follows it and two more.
WINDOW_BEFORE = 3
WINDOW_AFTER = 3

_XS = np.linspace(0.0, 1.0, 2001)
_YS = np.sin(3.0 * _XS)


def probe() -> float:
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(SCALAR_CALLS):
        x = (i * 0.6180339887) % 1.0
        s += float(np.interp(x, _XS, _YS)) * math.exp(-x)
    for _ in range(VECTOR_PASSES):
        s += float(np.sum(np.cumsum(_YS * _YS) * _XS))
    dt = time.perf_counter() - t0
    if not math.isfinite(s):
        raise RuntimeError("calibration probe computed a non-finite sum")
    return dt


def scale(times: list, probes: list) -> list:
    """Scale ``times[i]`` (bracketed by ``probes[i]`` and ``probes[i + 1]``)
    to the reference machine speed, by the median probe in a window around it."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before each time and one after the last")
    out = []
    for i, t in enumerate(times):
        window = probes[max(0, i + 1 - WINDOW_BEFORE): i + 1 + WINDOW_AFTER]
        out.append(t * REFERENCE_PROBE_S / statistics.median(window))
    return out
