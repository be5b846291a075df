"""Seeded inputs and job runners for the three benchmark workloads.

A job is one verdict: one call to a check function, or one ``cli.main``.
Every input is drawn from ``np.random.default_rng([seed, workload id,
stream, index])``, so the same seed gives byte-identical inputs, different
seeds give different inputs, and job ``i`` does not depend on how many jobs
ran before it.  The job *kinds* follow a fixed cycle per workload, so every
seed runs the same mix of job sizes; only the random content differs.

Jobs call the library through module attributes (``gs.lipschitz_modulus``,
``cli.main``) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from curvlab1d import cli
from curvlab1d import coefficients as co
from curvlab1d import curvature as cv
from curvlab1d import geometry_scan as gs
from curvlab1d import space1d as sp
from curvlab1d import transport1d as tr

WHY = {
    "growth": ("few large sampled weights queried by many ball-growth scans: "
               "scalar weight calls inside exact ball integrals dominate "
               "(space1d); no transport, no triple loop"),
    "transport": ("verify_cde / verify_cd_infty on uniform-pair batteries, mostly "
                  "on weighted circles (512-shift circle cut, transport1d) and "
                  "some on intervals (entropy weight term)"),
    "cli": ("one cli.main per job on a fresh JSON input across eight commands: "
            "the path users run; the curvature triple battery dominates, "
            "JSON, report bodies and tripod sweeps run only here"),
}

WORKLOAD_IDS = {"growth": 1, "transport": 2, "cli": 3}

# Fixed kind cycles.  The median falls inside one kind, not between two, and
# the heaviest kind holds about 20/n of the n jobs of a run, so the tail
# percentile (ten samples beyond it) sits mid-way into that kind; see README.md.
CYCLES = {
    "growth": ("density_ratio", "lipschitz", "bg_ratio", "lipschitz", "rescale",
               "lipschitz", "linear_growth", "density_ratio", "lipschitz",
               "bg_boundary", "lipschitz", "lipschitz"),
    "transport": ("cde_circle", "cdinf_interval", "cdinf_circle", "cde_circle",
                  "cde_interval", "cdinf_circle", "cde_circle_x2",
                  "cdinf_interval", "cdinf_circle", "cde_circle"),
    "cli": ("check_kn_convex", "circle_obstruction", "bg_scan", "tripod_shannon",
            "classify_interval", "coefficients_table", "bg_scan", "tripod_renyi",
            "bg_scan", "classify_circle"),
}

# Input sizes.  "full" is what the benchmark measures; "tiny" only keeps
# the self-tests fast.
SIZES = {
    "full": {"growth_knots": 8001, "circle_knots": 2000, "interval_knots": 1001,
             "cli_line_knots": 8001, "cli_small_knots": 1001, "bg_knots": 2001,
             "lip_pairs": 4, "radii": 6, "circle_pairs": 1, "interval_pairs": 4},
    "tiny": {"growth_knots": 801, "circle_knots": 200, "interval_knots": 101,
             "cli_line_knots": 401, "cli_small_knots": 201, "bg_knots": 401,
             "lip_pairs": 2, "radii": 3, "circle_pairs": 1, "interval_pairs": 1},
}

_GRID_STEP = 1e-3
_TWO_PI = 2.0 * math.pi


@dataclass
class Job:
    workload: str
    index: int
    kind: str
    inputs: dict   # plain JSON-able data: everything the program receives

    @property
    def digest(self) -> str:
        return _digest(self.inputs)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(seed: int, workload: str, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], stream, index])


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _floats(a) -> list:
    return [float(v) for v in a]


# -- weights -----------------------------------------------------------------

def _line_weight(rng, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    a, b, c = _u(rng, 0.15, 0.35), _u(rng, 0.02, 0.1), _u(rng, 1.0, 3.0)
    phi, d = _u(rng, 0.0, _TWO_PI), _u(rng, -0.3, 0.3)
    return _floats(xs), _floats(a * xs * xs + b * np.sin(c * xs + phi) + d * xs)


def _halfline_weight(rng, hi, n):
    xs = np.linspace(0.0, hi, n)
    a, e, b = _u(rng, 0.1, 0.5), _u(rng, 0.0, 0.05), _u(rng, 0.02, 0.1)
    c, phi = _u(rng, 1.0, 3.0), _u(rng, 0.0, _TWO_PI)
    return _floats(xs), _floats(a * xs + e * xs * xs + b * np.sin(c * xs + phi))


def _interval_weight(rng, length, n):
    xs = np.linspace(0.0, length, n)
    a, b = _u(rng, 0.0, 1.0), _u(rng, 0.0, 0.2)
    c, phi = _u(rng, 1.0, 6.0), _u(rng, 0.0, _TWO_PI)
    return _floats(xs), _floats(a * xs * xs + b * np.sin(c * xs + phi))


def _circle_weight(rng, radius, n):
    th = np.linspace(0.0, _TWO_PI * radius, n, endpoint=False)
    a, b = _u(rng, 0.0, 0.3), _u(rng, 0.0, 0.15)
    phi, psi = _u(rng, 0.0, _TWO_PI), _u(rng, 0.0, _TWO_PI)
    u = th / radius
    return _floats(th), _floats(a * np.cos(u + phi) + b * np.cos(2.0 * u + psi))


def _space_desc(kind, coords, f, param=None, window=None) -> dict:
    d = {"topology": kind, "grid_step": _GRID_STEP, "weight": {"coords": coords, "f": f}}
    if param is not None:
        d["param"] = param
    if window is not None:
        d["window"] = list(window)
    return d


# -- set-up: the spaces a workload's jobs share ---------------------------------

def setup_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Seeded descriptions of the spaces the workload's jobs share."""
    z = SIZES[size]
    rng = _rng(seed, workload, 0, 0)
    if workload == "growth":
        n = z["growth_knots"]
        return {"spaces": [
            _space_desc("line", *_line_weight(rng, -4.0, 4.0, n), window=(-4.0, 4.0)),
            _space_desc("halfline", *_halfline_weight(rng, 8.0, n), window=(0.0, 8.0)),
        ]}
    if workload == "transport":
        n = z["circle_knots"]
        return {"circles": [_space_desc("circle", *_circle_weight(rng, 1.0, n), param=1.0)
                            for _ in range(2)],
                "intervals": [_space_desc("interval",
                                          *_interval_weight(rng, 1.0, z["interval_knots"]),
                                          param=1.0)]}
    return {}


def build_setup(workload: str, inputs: dict) -> dict:
    """Library objects built from the set-up inputs (timed as set-up)."""
    return {key: [sp.load_space(d) for d in descs] for key, descs in inputs.items()}


# -- job inputs ------------------------------------------------------------------

def make_job(workload: str, seed: int, index: int, size: str = "full") -> Job:
    kind = CYCLES[workload][index % len(CYCLES[workload])]
    rng = _rng(seed, workload, 1, index)
    maker = {"growth": _growth_inputs, "transport": _transport_inputs,
             "cli": _cli_inputs}[workload]
    return Job(workload, index, kind, maker(kind, rng, SIZES[size]))


def _growth_inputs(kind, rng, z) -> dict:
    which = int(rng.integers(0, 2))
    lo, hi = (-4.0, 4.0) if which == 0 else (0.0, 8.0)
    d = {"space": which, "K": float(rng.choice([0.0, -0.25, -0.5])),
         "N": float(rng.choice([2.0, 3.0]))}
    if kind == "lipschitz":
        r = 0.5
        pairs = []
        for _ in range(z["lip_pairs"]):
            x = _u(rng, lo + r + 0.01, hi - 1.5 * r - 0.01)
            pairs.append([x, x + _u(rng, 0.05, 0.95) * r / 2.0])
        d.update(r=r, pairs=pairs)
    elif kind in ("bg_ratio", "bg_boundary"):
        base = np.linspace(0.1, 1.0, z["radii"])
        d.update(x0=_u(rng, lo + 1.3, hi - 1.3),
                 radii=_floats(np.sort(base + rng.uniform(-0.03, 0.03, base.size))))
    elif kind == "density_ratio":
        base = np.geomspace(1.0, 0.02, z["radii"] + 4)
        d.update(x=_u(rng, lo + 1.3, hi - 1.3), k=1,
                 radii=_floats(np.sort(base * rng.uniform(0.97, 1.03, base.size))[::-1]))
    elif kind == "linear_growth":
        d.update(y=_u(rng, lo + 1.2, hi - 1.2), R=0.4, s_grid=[0.2, 0.5],
                 n_centers=z["radii"] - 2)
    elif kind == "rescale":
        r = _u(rng, 0.38, 0.42)
        d.update(x=_u(rng, lo + 0.6, hi - 0.6), r=r, s_grid=[0.25, 0.5, 0.75, 1.0])
    else:
        raise ValueError(f"unknown growth job kind {kind!r}")
    return d


def _uniform_pairs(rng, span, count) -> list:
    # widths stay near 15% and 20% of the span: the entropy term costs one
    # weight call per knot under the interpolant, so width sets job cost
    pairs = []
    for _ in range(count):
        pair = []
        for share in (0.15, 0.2):
            w = span * share * _u(rng, 0.95, 1.05)
            a = _u(rng, 0.0, span - w)
            pair.append([a, a + w])
        pairs.append(pair)
    return pairs


def _transport_inputs(kind, rng, z) -> dict:
    circle = "_circle" in kind
    span = _TWO_PI if circle else 1.0
    count = z["circle_pairs" if circle else "interval_pairs"]
    return {"space": int(rng.integers(0, 2)) if circle else 0,
            "K": _u(rng, -0.5, 0.5), "N": float(rng.choice([2.0, 3.0])),
            "pairs": _uniform_pairs(rng, span, 2 * count if kind.endswith("_x2") else count)}


def _cli_inputs(kind, rng, z) -> dict:
    k_seed = int(rng.integers(0, 2**31 - 1))
    if kind == "check_kn_convex":
        desc = _space_desc("line", *_line_weight(rng, -4.0, 4.0, z["cli_line_knots"]),
                           window=(-4.0, 4.0))
        argv = ["check-kn-convex", f"--k={_u(rng, -0.5, 0.0)!r}",
                f"--n={float(rng.choice([2.0, 3.0, 4.0]))!r}"]
    elif kind == "classify_interval":
        desc = _space_desc("interval",
                           *_interval_weight(rng, 1.0, z["cli_small_knots"]), param=1.0)
        # the first candidate always passes (|f''| <= 9.2, |f'| <= 3.2 on [0, 1]),
        # so every job costs one triple battery
        argv = ["classify", f"--k={-_u(rng, 14.0, 16.0)!r},0.0", "--n=2.0,2.0"]
    elif kind == "classify_circle":
        desc = _space_desc("circle", *_circle_weight(rng, 1.0, z["cli_small_knots"]), param=1.0)
        argv = ["classify", f"--k=0.0,{_u(rng, 0.2, 1.0)!r}", "--n=2.0,2.0"]
    elif kind == "circle_obstruction":
        desc = _space_desc("circle", *_circle_weight(rng, 1.0, z["cli_small_knots"]), param=1.0)
        argv = ["circle-obstruction", f"--k={_u(rng, 0.5, 2.0)!r}",
                f"--n={float(rng.choice([2.0, 3.0]))!r}"]
    elif kind == "bg_scan":
        desc = _space_desc("line", *_line_weight(rng, -4.0, 4.0, z["bg_knots"]),
                           window=(-4.0, 4.0))
        argv = ["bg-scan", f"--k={float(rng.choice([0.0, -0.5]))!r}", "--n=2.0",
                f"--x={_u(rng, -0.05, 0.05)!r}"]
    elif kind in ("tripod_shannon", "tripod_renyi"):
        desc = {"a": _u(rng, 0.4, 0.6), "b": _u(rng, 0.1, 0.3), "eps": _u(rng, 0.03, 0.08),
                "eta": _u(rng, 0.3, 0.6), "beta": 1.0, "N": float(rng.choice([2.0, 3.0])),
                "edge_lengths": [1.0, 1.0, 1.0]}
        argv = [kind.replace("_", "-")]
    elif kind == "coefficients_table":
        desc = {"t": _floats(np.sort(rng.uniform(0.0, 1.0, 3))),
                "K": _floats(np.sort(rng.uniform(-2.0, 2.0, 2))),
                "N": [_u(rng, 1.5, 4.0)],
                "theta": _floats(np.sort(rng.uniform(0.1, 3.0, 3)))}
        argv = ["coefficients-table", "--format=json"]
    else:
        raise ValueError(f"unknown cli job kind {kind!r}")
    return {"argv": argv + [f"--seed={k_seed}"], "input": desc}


# -- running one job -------------------------------------------------------------

class JobContext:
    """Shared objects of a run: set-up spaces and a scratch directory for cli."""

    def __init__(self, setup: dict, tmpdir: str | None = None):
        self.setup = setup
        self.tmpdir = tmpdir


def prepare(job: Job, ctx: JobContext):
    """Untimed work before a job: write the cli input file.  Returns the call."""
    if job.workload == "cli":
        path = os.path.join(ctx.tmpdir, f"in{job.index}.json")
        out = os.path.join(ctx.tmpdir, f"out{job.index}.json")
        with open(path, "w") as fh:
            json.dump(job.inputs["input"], fh)
        argv = job.inputs["argv"] + ["--input", path, "--output", out]
        return lambda: _run_cli(argv, out)
    runner = _GROWTH if job.workload == "growth" else _TRANSPORT
    return lambda: runner[job.kind](job.inputs, ctx.setup)


def _run_cli(argv, out):
    code = cli.main(argv)
    return {"code": code, "out": out}


def _params(d):
    return co.CurvatureParams(d["K"], d["N"])


def _growth_space(d, setup):
    return setup["spaces"][d["space"]]


def _lipschitz(d, setup):
    emp, theory, rep = gs.lipschitz_modulus(_growth_space(d, setup), _params(d), d["r"],
                                            [tuple(p) for p in d["pairs"]])
    return {"report": rep, "numbers": [emp, theory]}


def _bg_ratio(d, setup):
    return {"report": gs.bg_ratio_scan(_growth_space(d, setup), d["x0"], _params(d), d["radii"])}


def _bg_boundary(d, setup):
    return {"report": gs.bg_boundary_check(_growth_space(d, setup), d["x0"], _params(d),
                                           d["radii"])}


def _density_ratio(d, setup):
    trace = gs.density_ratio_trace(_growth_space(d, setup), d["x"], d["k"], d["radii"])
    return {"flag": trace.in_mk, "margin": min(trace.ratios), "numbers": list(trace.ratios)}


def _linear_growth(d, setup):
    emp, rep = gs.linear_growth_constant(_growth_space(d, setup), d["y"], d["R"], d["s_grid"],
                                         _params(d), n_centers=d["n_centers"])
    return {"report": rep, "numbers": [emp, rep.extra["envelope"]]}


def _rescale(d, setup):
    rs = sp.rescale(_growth_space(d, setup), d["x"], d["r"])
    return {"margin": rs.normalization, "numbers": [rs.ball(s) for s in d["s_grid"]]}


_GROWTH = {"lipschitz": _lipschitz, "bg_ratio": _bg_ratio, "bg_boundary": _bg_boundary,
           "density_ratio": _density_ratio, "linear_growth": _linear_growth,
           "rescale": _rescale}


def _battery(space, pairs):
    return [(tr.uniform_measure(space, *p0), tr.uniform_measure(space, *p1))
            for p0, p1 in pairs]


def _transport_job(d, setup, circle, entropic):
    space = setup["circles" if circle else "intervals"][d["space"]]
    battery = _battery(space, d["pairs"])
    if entropic:
        rep = cv.verify_cde(space, _params(d), battery)
    else:
        rep = cv.verify_cd_infty(space, d["K"], battery)
    return {"report": rep}


_TRANSPORT = {
    "cde_circle": lambda d, s: _transport_job(d, s, True, True),
    "cde_circle_x2": lambda d, s: _transport_job(d, s, True, True),
    "cdinf_circle": lambda d, s: _transport_job(d, s, True, False),
    "cde_interval": lambda d, s: _transport_job(d, s, False, True),
    "cdinf_interval": lambda d, s: _transport_job(d, s, False, False),
}
