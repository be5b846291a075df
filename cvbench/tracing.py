"""Per-layer tracing from outside the library.

``Tracer.install()`` wraps each curvlab1d module's public functions, the
underscore helpers another module calls, and a few class methods, and
patches every wrapper into each namespace that imported the function by
name.  ``uninstall()`` puts every original back.

Each wrapped call pushes a frame so its exclusive time (duration minus
wrapped callees) can be charged to its own module; numpy work counts for
the module that called it.  Check-level and layer-entry calls become spans
(name, start, end, parent span).  Hot leaf calls (hundreds of thousands per
job) are not spans: they only add to a (name, parent span) aggregate.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("cli", "space1d", "coefficients", "transport1d", "curvature",
           "geometry_scan", "branching")

# underscore helpers that another module calls (curvature._entropies_along)
CROSS_MODULE_HELPERS = {
    "transport1d": ("_circle_cut", "_breakpoints", "_shifted_bp", "_interpolant_segments"),
}

METHODS = {
    "space1d": {
        "WeightFn": ("__call__", "knots_in", "integrate_density", "integrate_weighted"),
        "Space1D": ("domain", "contains", "distance", "is_domain_endpoint",
                    "sphere_coords", "total_mass"),
        "RescaledSpace": ("ball",),
    },
    "branching": {
        "Tripod": ("distance", "measure_ball"),
        "PlanPair": ("half_density",),
        "_HalfDensity": ("integrate", "sup_density"),
    },
}

# Called per ball, per margin or per quadrature node: aggregated, never spans.
HOT = {
    "space1d": {"measure_ball", "boundary_measure", "disintegrate", "WeightFn.*",
                "Space1D.*", "RescaledSpace.*"},
    "coefficients": {"*"},
    "transport1d": {"_breakpoints", "_shifted_bp", "_interpolant_segments",
                    "uniform_measure", "entropy_of_segments", "renyi_of_segments"},
    "curvature": {"triple_margin", "default_tolerance"},
    "branching": {"Tripod.*", "PlanPair.*", "_HalfDensity.*"},
}

ROOT_SPAN = -1


def _is_hot(module: str, qualname: str) -> bool:
    pats = HOT.get(module, ())
    cls = qualname.split(".")[0] + ".*" if "." in qualname else None
    return "*" in pats or qualname in pats or (cls is not None and cls in pats)


def _lib_modules() -> dict:
    return {m: importlib.import_module(f"curvlab1d.{m}") for m in MODULES}


def _report_hook(name):
    """Extract (flagged, attempted) counts from a check's return value."""
    if name in ("curvature.check_kn_convex", "curvature.verify_cde",
                "curvature.verify_cd_infty"):
        def hook(args, kwargs, out):
            key = "n_plans" if name.endswith("check_kn_convex") else "n_pairs"
            return "conjugate", len(out.conjugate_flags), out.extra[key]
        return hook
    if name == "geometry_scan.linear_growth_constant":
        def hook(args, kwargs, out):
            s_grid = kwargs.get("s_grid", args[3] if len(args) > 3 else None)
            n_centers = kwargs.get("n_centers", args[5] if len(args) > 5 else 200)
            return "window", out[1].extra["skipped_pairs"], n_centers * len(s_grid)
        return hook
    return None


class Tracer:
    """Installs wrappers, records spans and aggregates, restores originals."""

    def __init__(self):
        self.stack = [[0.0]]          # frames: [child time]
        self.span_id = ROOT_SPAN
        self.spans = []               # [id, name, start, end, parent, self_s]
        self.agg = {}                 # (name, parent span id) -> [calls, total, self]
        self.skips = {}               # "conjugate"/"window" -> [flagged, attempted]
        self._patches = []            # (owner, attribute, original)
        self._snapshot = None

    # -- wrappers ---------------------------------------------------------------

    def _hot_wrapper(self, fn, name):
        tracer, perf, agg = self, time.perf_counter, self.agg

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                key = (name, tracer.span_id)
                a = agg.get(key)
                if a is None:
                    agg[key] = [1, dt, dt - frame[0]]
                else:
                    a[0] += 1
                    a[1] += dt
                    a[2] += dt - frame[0]
        return wrapper

    def _span_wrapper(self, fn, name):
        tracer, perf, hook = self, time.perf_counter, _report_hook(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = tracer.span_id
            rec = [len(tracer.spans), name, 0.0, 0.0, parent, 0.0]
            tracer.spans.append(rec)
            tracer.span_id = rec[0]
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stack[-1][0] += t1 - t0
                tracer.span_id = parent
                rec[2], rec[3], rec[5] = t0, t1, (t1 - t0) - frame[0]
            if hook is not None:
                kind, flagged, attempted = hook(args, kwargs, out)
                s = tracer.skips.setdefault(kind, [0, 0])
                s[0] += flagged
                s[1] += attempted
            return out
        return wrapper

    def _wrap(self, fn, module, qualname):
        name = f"{module}.{qualname}"
        w = (self._hot_wrapper if _is_hot(module, qualname) else self._span_wrapper)(fn, name)
        w.__wrapped__ = fn
        w.__name__ = getattr(fn, "__name__", qualname)
        return w

    # -- install / uninstall ------------------------------------------------------

    @staticmethod
    def snapshot() -> dict:
        """Identity of every attribute of the traced modules and classes."""
        import curvlab1d
        owners = {"curvlab1d": curvlab1d, **_lib_modules()}
        for m, classes in METHODS.items():
            for cls in classes:
                owners[f"{m}.{cls}"] = getattr(owners[m], cls)
        return {(key, attr): id(val) for key, owner in owners.items()
                for attr, val in vars(owner).items()}

    def install(self):
        import curvlab1d
        mods = _lib_modules()
        self._snapshot = self.snapshot()
        wrappers = {}   # id(original) -> wrapper
        for m, mod in mods.items():
            helpers = CROSS_MODULE_HELPERS.get(m, ())
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in helpers)):
                    wrappers[id(val)] = (val, self._wrap(val, m, attr))
        # patch every namespace that holds one of the originals by name
        for owner in (curvlab1d, *mods.values()):
            for attr, val in list(vars(owner).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((owner, attr, val))
                    setattr(owner, attr, hit[1])
        for m, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[m], cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, m, f"{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def restored(self) -> bool:
        return self._snapshot is not None and self.snapshot() == self._snapshot

    # -- results ----------------------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, inclusive s, exclusive s] over spans and aggregates."""
        out = {}
        for _, name, t0, t1, _, excl in self.spans:
            a = out.setdefault(name, [0, 0.0, 0.0])
            a[0] += 1
            a[1] += t1 - t0
            a[2] += excl
        for (name, _), (calls, total, excl) in self.agg.items():
            a = out.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += excl
        return out

    def under(self, leaf: str, parent_prefix: str) -> list:
        """[calls, inclusive s, exclusive s] of a hot leaf under spans whose name
        starts with parent_prefix."""
        names = {rec[0]: rec[1] for rec in self.spans}
        out = [0, 0.0, 0.0]
        for (name, parent), vals in self.agg.items():
            if name == leaf and names.get(parent, "").startswith(parent_prefix):
                for i in range(3):
                    out[i] += vals[i]
        return out

    def dump(self) -> dict:
        return {
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "self_s": s[5]} for s in self.spans],
            "aggregates": [{"name": n, "parent": p, "calls": v[0], "total_s": v[1],
                            "self_s": v[2]} for (n, p), v in self.agg.items()],
        }


# metric name -> (traced name, field index: 0 calls, 1 inclusive, 2 exclusive)
_NAMED = {
    "cli.calls": ("cli.main", 0),
    "space1d.weight_eval.calls": ("space1d.WeightFn.__call__", 0),
    "space1d.weight_eval.self_s": ("space1d.WeightFn.__call__", 2),
    "space1d.measure_ball.calls": ("space1d.measure_ball", 0),
    "space1d.measure_ball.total_s": ("space1d.measure_ball", 1),
    "space1d.integrate_density.calls": ("space1d.WeightFn.integrate_density", 0),
    "space1d.boundary_measure.calls": ("space1d.boundary_measure", 0),
    "space1d.rescale.total_s": ("space1d.rescale", 1),
    "space1d.load_space.total_s": ("space1d.load_space", 1),
    "coefficients.sigma.calls": ("coefficients.sigma", 0),
    "coefficients.s_vol.calls": ("coefficients.s_vol", 0),
    "coefficients.f_vol.calls": ("coefficients.f_vol", 0),
    "coefficients.f_vol.total_s": ("coefficients.f_vol", 1),
    "transport1d.w2.calls": ("transport1d.w2", 0),
    "transport1d.circle_cut.calls": ("transport1d._circle_cut", 0),
    "transport1d.circle_cut.total_s": ("transport1d._circle_cut", 1),
    "transport1d.entropy_of_segments.calls": ("transport1d.entropy_of_segments", 0),
    "transport1d.entropy_of_segments.total_s": ("transport1d.entropy_of_segments", 1),
    "curvature.triple_margin.calls": ("curvature.triple_margin", 0),
    "curvature.check_kn_convex.total_s": ("curvature.check_kn_convex", 1),
    "curvature.verify_cde.total_s": ("curvature.verify_cde", 1),
    "curvature.verify_cd_infty.total_s": ("curvature.verify_cd_infty", 1),
    "curvature.circle_obstruction.total_s": ("curvature.circle_obstruction", 1),
    "geometry_scan.lipschitz_modulus.total_s": ("geometry_scan.lipschitz_modulus", 1),
    "geometry_scan.bg_ratio_scan.total_s": ("geometry_scan.bg_ratio_scan", 1),
    "geometry_scan.bg_boundary_check.total_s": ("geometry_scan.bg_boundary_check", 1),
    "geometry_scan.linear_growth_constant.total_s": ("geometry_scan.linear_growth_constant", 1),
    "geometry_scan.density_ratio_trace.total_s": ("geometry_scan.density_ratio_trace", 1),
    "branching.build_branching_plans.total_s": ("branching.build_branching_plans", 1),
    "branching.half_density_integrate.calls": ("branching._HalfDensity.integrate", 0),
    "branching.sup_density.calls": ("branching._HalfDensity.sup_density", 0),
}

def layer_metrics(tracer: Tracer, verdict_s: float, body_bytes: int,
                  overhead_frac: float) -> dict:
    """Every per-layer metric of the traced run, as name -> value."""
    names = tracer.by_name()
    zero = [0, 0.0, 0.0]
    vals = {m: names.get(src, zero)[field] for m, (src, field) in _NAMED.items()}
    module_self = {m: 0.0 for m in MODULES}
    for name, (_, _, excl) in names.items():
        module_self[name.split(".", 1)[0]] += excl
    for m in MODULES:
        vals[f"{m}.self_s"] = module_self[m]
        vals[f"{m}.self_frac"] = module_self[m] / verdict_s
    vals["cli.body_bytes"] = body_bytes
    vals["transport1d.circle_objective.calls"] = tracer.under(
        "transport1d._shifted_bp", "transport1d._circle_cut")[0]
    leaves = sum(tracer.under(leaf, "curvature.")[2]
                 for leaf in ("space1d.WeightFn.__call__", "coefficients.sigma"))
    vals["curvature.with_leaves_frac"] = (module_self["curvature"] + leaves) / verdict_s
    for key, metric in (("conjugate", "curvature.conjugate_skip_frac"),
                        ("window", "geometry_scan.window_skip_frac")):
        flagged, attempted = tracer.skips.get(key, (0, 0))
        vals[metric] = flagged / attempted if attempted else 0.0
    vals["trace.overhead_frac"] = overhead_frac
    vals["trace.verdict_s"] = verdict_s
    vals["trace.unattributed_frac"] = 1.0 - sum(module_self.values()) / verdict_s
    return vals


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"
