"""Command-line front end.

Runs named checks on JSON space/scenario descriptions and writes
deterministic report bodies (JSON or CSV).  Timestamps never enter the
body; they go to a sidecar `<output>.meta.json`, so identical runs produce
byte-identical reports.

Exit codes: 0 = check passed / scan completed; 2 = the inequality under
test failed (report still written); 1 = usage or schema errors.  FAIL is
exit 2, not 1, so CI can tell "the math says no" from "the tool broke".
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .coefficients import (CurvatureParams, _beyond_conjugate_radius, conjugate_radius, f_vol,
                           s_vol, sigma)
from .space1d import Space1D, WindowError, _known_fields, _number, load_space
from . import transport1d as tr
from . import curvature as cv
from . import geometry_scan as gs
from . import branching as br

_EPS_SWEEP_FACTORS = (1.0, 0.4, 0.2, 0.1, 0.04)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        # strict JSON has no Infinity/NaN literals
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _dump_body(body: dict) -> str:
    return json.dumps(_jsonable(body), sort_keys=True, separators=(",", ":")) + "\n"


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"input file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValueError(f"input file {path} does not hold a JSON object")
    return data


def _space_from_args(args) -> Space1D:
    if not args.input:
        raise ValueError("this command needs --input with a space description")
    data = _load_json(args.input)
    if args.grid_step is not None:
        data["grid_step"] = args.grid_step
    return load_space(data)


def _scenario_from_args(args) -> tuple[br.Tripod, br.BranchingScenario, list[float]]:
    if not args.input:
        raise ValueError("this command needs --input with a scenario description")
    data = _load_json(args.input)
    defaults = {"a": None, "b": None, "eps": None, "eta": None, "beta": 1.0, "N": 2.0}
    _known_fields(data, (*defaults, "edge_lengths", "eps_sweep"), "scenario description")
    fields = {}
    for field, default in defaults.items():
        if field not in data and default is None:
            raise ValueError(f"scenario description: missing field {field!r}")
        fields[field] = _number(data.get(field, default),
                                f"scenario description: field {field!r}")
    lengths = data.get("edge_lengths", [1.0, 1.0, 1.0])
    if not isinstance(lengths, list) or len(lengths) != 3:
        raise ValueError("scenario description: edge_lengths must have 3 entries")
    tripod = br.Tripod(tuple(_number(l, "scenario description: edge_lengths entry")
                             for l in lengths))
    scenario = br.BranchingScenario(**fields)
    sweep = data.get("eps_sweep", [scenario.eps * f for f in _EPS_SWEEP_FACTORS])
    if not isinstance(sweep, list):
        raise ValueError("scenario description: eps_sweep must be a list")
    sweep = [_number(v, "scenario description: eps_sweep entry") for v in sweep]
    if not sweep:
        raise ValueError("scenario description: eps_sweep is empty")
    return tripod, scenario, sweep


def _default_pair_battery(space: Space1D, seed: int):
    lo, hi = space.domain()
    span = hi - lo
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(50):  # pairs of uniform measures, each on 5-30% of the domain
        w0 = span * rng.uniform(0.05, 0.3)
        a0 = lo + rng.uniform(0.0, span - w0)
        w1 = span * rng.uniform(0.05, 0.3)
        a1 = lo + rng.uniform(0.0, span - w1)
        pairs.append((tr.uniform_measure(space, a0, a0 + w0),
                      tr.uniform_measure(space, a1, a1 + w1)))
    return pairs


def _reach(space: Space1D, x0: float) -> float:
    """How far a ball around x0 may grow: half a circle, else to the nearer
    window end, or to the far end where both ends are the space's own.  A
    centre outside the domain, or at a window end, is refused."""
    lo, hi = space.domain()
    if not space.contains(x0):
        raise ValueError(f"--x {x0!r} lies outside the window [{lo!r}, {hi!r}]")
    if space.topology.kind == "circle":
        return space.topology.circumference / 2.0
    sides = [side for side, own in zip((x0 - lo, hi - x0), space._own_ends()) if not own]
    reach = min(sides) if sides else max(x0 - lo, hi - x0)
    if not reach > 0.0:
        raise ValueError(f"--x {x0!r} leaves no room before an end of the window "
                         f"[{lo!r}, {hi!r}]")
    return reach


def _default_radii(space: Space1D, x0: float, params: CurvatureParams):
    r_max = min(0.95 * conjugate_radius(params), 0.98 * _reach(space, x0))
    return list(np.linspace(0.1 * r_max, 0.7 * r_max, 10))


def _x0(args, space: Space1D) -> float:
    """--x, or the middle of the domain."""
    lo, hi = space.domain()
    return args.x if args.x is not None else 0.5 * (lo + hi)


def _tol(args) -> dict:
    """--tol as a keyword argument; without it the check's own default holds."""
    return {} if args.tol is None else {"tol": args.tol}


def _base_body(args, check_id: str) -> dict:
    return {
        "check_id": check_id,
        "seed": args.seed,
        "tool_version": __version__,
    }


# -- report checks: (space, params, args) -> CurvatureReport -------------------

def _bg_check(check, space, params, args):
    """A Bishop-Gromov check(space, x0, params, radii) over the default radii
    around --x."""
    x0 = _x0(args, space)
    return check(space, x0, params, _default_radii(space, x0, params), **_tol(args))


def _lipschitz(space, params, args):
    """200 seeded pairs (x, x + d), drawn where both balls fit the window."""
    lo, hi = space.domain()
    r = 0.25 * _reach(space, 0.5 * (lo + hi))
    circle = space.topology.kind == "circle"
    own_lo, own_hi = space._own_ends()
    a = lo if circle or own_lo else lo + r
    rng = np.random.default_rng(args.seed)
    pairs = []
    for _ in range(200):
        u = rng.random()
        d = r / 2.0 * rng.uniform(0.05, 0.95)
        b = hi if circle else hi - d - (0.0 if own_hi else r)
        x = a + (b - a) * u
        pairs.append((float(x), float(x + d)))
    return gs.lipschitz_modulus(space, params, r, pairs)[2]


_REPORT_CHECKS = {
    "check-kn-convex": lambda space, params, args: cv.check_kn_convex(
        space, params, cv.default_triple_battery(space, seed=args.seed), **_tol(args)),
    "verify-cde": lambda space, params, args: cv.verify_cde(
        space, params, _default_pair_battery(space, args.seed), **_tol(args)),
    "verify-cd-infty": lambda space, params, args: cv.verify_cd_infty(
        space, params.K, _default_pair_battery(space, args.seed), **_tol(args)),
    "circle-obstruction": lambda space, params, args: cv.circle_obstruction(space, params),
    "bg-scan": lambda space, params, args: _bg_check(gs.bg_ratio_scan, space, params, args),
    "bg-boundary": lambda space, params, args: _bg_check(gs.bg_boundary_check, space, params, args),
    "lipschitz": _lipschitz,
}


# -- command handlers: return (exit_code, body_dict, csv_rows_or_None) -------

def _cmd_report(args):
    """Run the command's report check; the body is the report's plus the
    seed, tool version and grid step, and a FAIL exits 2."""
    space = _space_from_args(args)
    # verify-cd-infty reads no --n: the default N = 2 only lets K be checked
    report = _REPORT_CHECKS[args.command](space, CurvatureParams(args.k, args.n), args)
    body = report.to_dict() | _base_body(args, report.kind) | {"grid_step": space.grid_step}
    # a circle obstruction passes when it finds the violation it looks for
    ok = not report.extra["anomaly"] if "anomaly" in report.extra else report.passed
    return (0 if ok else 2), body, None


def _cmd_density_ratio(args):
    space = _space_from_args(args)
    x0 = _x0(args, space)
    reach = _reach(space, x0)
    r_hi = 0.45 * reach
    if not r_hi > 10.0 * space.grid_step:
        lo, hi = space.domain()
        raise ValueError(f"--x {x0!r} lies too near an end of the window [{lo!r}, {hi!r}]: "
                         f"the largest radius {r_hi!r} is not above 10 grid steps "
                         f"({10.0 * space.grid_step!r})")
    r_lo = max(10.0 * space.grid_step, r_hi / 50.0)
    radii = np.geomspace(r_hi, r_lo, 20).tolist()
    trace = gs.density_ratio_trace(space, x0, args.kexp, radii)
    body = _base_body(args, "density-ratio-trace")
    body.update({
        "params": {"k": args.kexp, "x": x0},
        "margin": min(trace.ratios),
        "witness": {"min_ratio": min(trace.ratios), "max_ratio": max(trace.ratios)},
        "grid_step": space.grid_step,
        "in_mk": trace.in_mk,
        "threshold_factor": gs._THRESHOLD_FACTOR,
        "rows": [[r, v] for r, v in zip(radii, trace.ratios)],
    })
    return 0, body, [("r", "ratio"), *zip(radii, trace.ratios)]


def _cmd_classify(args):
    space = _space_from_args(args)
    ks = [float(v) for v in str(args.k).split(",")]
    ns = [float(v) for v in str(args.n).split(",")]
    if len(ks) != len(ns):
        raise ValueError("--k and --n must list the same number of candidates")
    candidates = [CurvatureParams(k, n) for k, n in zip(ks, ns)]
    report = gs.classify(space, candidates, seed=args.seed, tol=args.tol)
    body = _base_body(args, "classification")
    body.update({
        "params": {"candidates": [[p.K, p.N] for p in candidates]},
        "model": {"kind": space.topology.kind, "param": space.topology.param},
        "admissible": report is not None,
        "kn_params": [report.K, report.N] if report else None,
        "margin": report.max_violation if report else None,
        "witness": report.witness if report else {},
        "grid_step": space.grid_step,
    })
    return 0, body, None


def _cmd_tripod(args):
    """Shannon-chain and Renyi verdicts over the eps sweep; the report follows
    the last eps, judged by the chain or (tripod-renyi) by the Renyi ratio."""
    tripod, scenario, sweep = _scenario_from_args(args)
    rows = [("eps", "lhs", "rhs", "ratio")]
    for eps in sweep:
        pair = br.build_branching_plans(tripod, scenario.replace_eps(eps))
        chain, ratio_rep = br.entropy_chain_inequality(pair), br.renyi_contradiction(pair)
        rows.append((eps, chain["lhs"], chain["rhs"], ratio_rep["ratio"]))
    if args.command == "tripod-renyi":
        final, margin = ratio_rep, ratio_rep["threshold"] - ratio_rep["ratio"]
    else:
        final, margin = chain, chain["lhs"] - chain["rhs"]
    body = _base_body(args, f"{args.command}-chain")
    body.update({
        "params": {"a": scenario.a, "b": scenario.b, "eta": scenario.eta,
                   "beta": scenario.beta, "N": scenario.N},
        "margin": margin,
        "witness": final,
        "grid_step": None,
        "sweep": [list(r) for r in rows[1:]],
        "contradiction_reproduced": final["contradiction"],
    })
    return (0 if final["contradiction"] else 2), body, rows


def _cmd_coefficients_table(args):
    if not args.input:
        raise ValueError("coefficients-table needs --input with grids "
                         '{"t": [...], "K": [...], "N": [...], "theta": [...]}')
    data = _load_json(args.input)
    _known_fields(data, ("t", "K", "N", "theta"), "coefficients grid")
    grid = {}
    for fieldname in ("t", "K", "N", "theta"):
        if fieldname not in data or not isinstance(data[fieldname], list):
            raise ValueError(f"coefficients grid: missing list field {fieldname!r}")
        grid[fieldname] = [_number(v, f"coefficients grid: {fieldname!r} entry")
                           for v in data[fieldname]]
    rows = [("t", "K", "N", "theta", "sigma", "s_vol", "f_vol")]
    for t in grid["t"]:
        for K in grid["K"]:
            for N in grid["N"]:
                params = CurvatureParams(K, N)
                for theta in grid["theta"]:
                    sg = sigma(t, params, theta)
                    sv = s_vol(params, theta)
                    # f_vol is undefined past the conjugate radius; an
                    # overflow below it is an error
                    fv = (math.nan if _beyond_conjugate_radius(params, theta)
                          else f_vol(params, theta))
                    rows.append((t, K, N, theta, sg, sv, fv))
    body = _base_body(args, "coefficients-table")
    body.update({
        "params": {"t": data["t"], "K": data["K"], "N": data["N"],
                   "theta": data["theta"]},
        "margin": None, "witness": {}, "grid_step": None,
        "rows": [list(r) for r in rows[1:]],
    })
    return 0, body, rows


# every command reads these; --seed enters every body
_COMMON_OPTIONS = ("input", "output", "seed", "format")
_SPACE_CHECK = ("grid_step", "k", "n", "tol")

# command -> (handler, output formats with the default first, options read
# beyond _COMMON_OPTIONS); any other option given explicitly is a usage error
_COMMANDS = {
    "check-kn-convex": (_cmd_report, ("json",), _SPACE_CHECK),
    "verify-cde": (_cmd_report, ("json",), _SPACE_CHECK),
    "verify-cd-infty": (_cmd_report, ("json",), ("grid_step", "k", "tol")),
    "circle-obstruction": (_cmd_report, ("json",), ("grid_step", "k", "n")),
    "bg-scan": (_cmd_report, ("json",), _SPACE_CHECK + ("x",)),
    "bg-boundary": (_cmd_report, ("json",), _SPACE_CHECK + ("x",)),
    "lipschitz": (_cmd_report, ("json",), ("grid_step", "k", "n")),
    "density-ratio": (_cmd_density_ratio, ("json", "csv"), ("grid_step", "x", "kexp")),
    "classify": (_cmd_classify, ("json",), _SPACE_CHECK),
    "tripod-shannon": (_cmd_tripod, ("json", "csv"), ()),
    "tripod-renyi": (_cmd_tripod, ("json", "csv"), ()),
    "coefficients-table": (_cmd_coefficients_table, ("csv", "json"), ()),
}

# option defaults, filled in once the options given explicitly are known
_DEFAULTS = {"input": None, "output": None, "seed": 0, "tol": None, "grid_step": None,
             "k": "0.0", "n": "2.0", "x": None, "kexp": 1, "format": None}


def _csv_text(rows) -> str:
    buf = io.StringIO()
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (np.floating, np.integer)):
                v = v.item()
            cells.append(repr(v) if isinstance(v, float) else str(v))
        buf.write(",".join(cells))
        buf.write("\n")
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; an option not given is absent from the namespace
    (see _DEFAULTS)."""
    parser = argparse.ArgumentParser(
        prog="curvlab-1d",
        description="Curvature-dimension checks on 1D weighted spaces and the tripod",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="JSON space or scenario description")
    parser.add_argument("--output", help="report body path (sidecar .meta.json gets the timestamp)")
    parser.add_argument("--seed", type=int, help="default 0")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--grid-step", dest="grid_step", type=float)
    parser.add_argument("--k", help="curvature bound K (comma list for classify; default 0.0)")
    parser.add_argument("--n", help="dimension bound N (comma list for classify; default 2.0)")
    parser.add_argument("--x", type=float, help="scan center coordinate")
    parser.add_argument("--kexp", type=int, help="density-ratio exponent k (default 1)")
    parser.add_argument("--format", choices=("json", "csv"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        given = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    args = argparse.Namespace(**(_DEFAULTS | vars(given)))
    handler, formats, reads = _COMMANDS[args.command]
    fmt = args.format or formats[0]
    try:
        unread = [f"--{o.replace('_', '-')}" for o in _DEFAULTS
                  if hasattr(given, o) and o not in _COMMON_OPTIONS and o not in reads]
        if unread:
            raise ValueError(f"{args.command} does not read {', '.join(unread)}")
        if fmt not in formats:
            raise ValueError(f"{args.command} has no {fmt} output")
        # classify takes comma lists in --k/--n; other commands need floats
        if args.command != "classify":
            args.k, args.n = _number(args.k, "--k"), _number(args.n, "--n")
        code, body, rows = handler(args)
    except (ValueError, WindowError, br.InfeasibleScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    text = _csv_text(rows) if fmt == "csv" else _dump_body(body)

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        meta = {"generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        with open(args.output + ".meta.json", "w") as fh:
            json.dump(meta, fh)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
