"""Verdict records, invariants and the committed-reference gate.

A verdict record holds what a user acts on: the passed flag (checks) or
exit code (cli), the signed margin, and the witness numbers.  A verdict
fails when its job raised, when it breaks an invariant every verdict must
hold, or when it disagrees with the committed reference for its seed:
passed flag or exit code differ, or a margin or witness number is off by
more than 1e-8 relative (1e-10 absolute).
"""

from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-8
ABS_TOL = 1e-10

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# References ship for these seeds.  CLAIM_SEED is held out: a change that
# claims a gain is developed on DEV_SEEDS and confirmed on CLAIM_SEED.
DEV_SEEDS = tuple(range(11))
CLAIM_SEED = 1000
# Jobs per reference file: about 1.15x the most a 40 s run attempted at the
# library's speed when the benchmark was defined (runs are now 35 s).  Jobs past the end are
# checked by the invariants only, and the run says how many.
REF_JOBS = {"growth": 430, "transport": 330, "cli": 270}


def _numbers(obj) -> list:
    """Numeric leaves of a JSON-like value, dict keys in sorted order.

    Booleans count as 0/1; the strings "inf"/"-inf"/"nan" the CLI emits for
    non-finite values count as those floats; other strings are skipped.
    """
    if isinstance(obj, dict):
        return [v for k in sorted(obj) for v in _numbers(obj[k])]
    if isinstance(obj, (list, tuple)):
        return [v for item in obj for v in _numbers(item)]
    if isinstance(obj, bool):
        return [float(obj)]
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, str) and obj in ("inf", "-inf", "nan"):
        return [float(obj)]
    if hasattr(obj, "item"):  # numpy scalar
        return [float(obj.item())]
    return []


def _float(v):
    return None if v is None else float(v)


def record(job, result) -> tuple[dict, int]:
    """(verdict record, report body bytes) of a finished job."""
    if job.workload == "cli":
        with open(result["out"], "rb") as fh:
            raw = fh.read()
        body = json.loads(raw)
        nums = _numbers(body.get("witness", {}))
        for key in ("admissible", "kn_params", "rows", "sweep", "contradiction_reproduced",
                    "in_mk", "anomaly", "passed"):
            nums += _numbers(body.get(key))
        return ({"code": result["code"], "passed": body.get("passed"),
                 "margin": _float(body.get("margin")), "numbers": nums,
                 "check_id": body.get("check_id"), "body": body}, len(raw))
    rep = result.get("report")
    if rep is not None:
        nums = _numbers(rep.witness) + [float(len(rep.conjugate_flags))]
        return ({"passed": bool(rep.passed), "margin": float(rep.max_violation),
                 "numbers": nums + _numbers(result.get("numbers", []))}, 0)
    flag = result.get("flag")
    return ({"passed": None if flag is None else bool(flag),
             "margin": _float(result.get("margin")),
             "numbers": _numbers(result.get("numbers", []))}, 0)


def invariant_error(job, rec) -> str | None:
    """What every verdict must satisfy, with or without a reference."""
    m = rec["margin"]
    if job.workload == "cli":
        code, body = rec["code"], rec["body"]
        if code not in (0, 2):
            return f"exit code {code}"
        if not body.get("check_id"):
            return "report body has no check_id"
        expect = None
        if "passed" in body:
            expect = 0 if body["passed"] else 2
        elif "contradiction_reproduced" in body:
            expect = 0 if body["contradiction_reproduced"] else 2
        elif body.get("check_id") in ("classification", "coefficients-table",
                                      "density-ratio-trace"):
            expect = 0
        if body.get("check_id") == "circle-obstruction":
            expect = 2 if body.get("anomaly", True) else 0
        if expect is not None and code != expect:
            return f"exit code {code} disagrees with the report body (expected {expect})"
        if m is None and body.get("check_id") not in ("classification", "coefficients-table"):
            return "report has no margin"
    elif m is None or not math.isfinite(m):
        return f"margin {m} is not a finite number"
    if m is not None and math.isnan(m):
        return "margin is NaN"
    if not rec["numbers"]:
        return "verdict has no witness numbers"
    return None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def reference_error(rec, ref) -> str | None:
    """Disagreement between a verdict and its committed reference, if any."""
    for key in ("code", "passed"):
        if rec.get(key) != ref.get(key):
            return f"{key} {rec.get(key)!r} != reference {ref.get(key)!r}"
    if not _close(rec["margin"], ref["margin"]):
        return f"margin {rec['margin']!r} != reference {ref['margin']!r}"
    if len(rec["numbers"]) != len(ref["numbers"]):
        return f"{len(rec['numbers'])} witness numbers != reference {len(ref['numbers'])}"
    for i, (a, b) in enumerate(zip(rec["numbers"], ref["numbers"])):
        if not _close(a, b):
            return f"witness number {i}: {a!r} != reference {b!r}"
    return None


def stored(job, rec) -> dict:
    """The part of a record that goes into a reference file."""
    out = {"index": job.index, "kind": job.kind, "digest": job.digest[:16],
           "passed": rec.get("passed"), "margin": rec["margin"], "numbers": rec["numbers"]}
    if "code" in rec:
        out["code"] = rec["code"]
    return out


def ref_path(workload: str, seed: int) -> str:
    return os.path.join(REF_DIR, workload, f"seed-{seed}.json")


def load_reference(workload: str, seed: int, size: str) -> dict | None:
    """index -> stored verdict, or None when no reference ships for the seed."""
    path = ref_path(workload, seed)
    if size != "full" or not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    return {v["index"]: v for v in data["verdicts"]}


class Gate:
    """Counts attempted / failed verdicts of one run."""

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.ref_checked = 0
        self.errors = []

    def check(self, job, rec, error: str | None = None) -> bool:
        self.attempted += 1
        if error is None:
            error = invariant_error(job, rec)
        if error is None and self.refs is not None and job.index in self.refs:
            ref = self.refs[job.index]
            self.ref_checked += 1
            if ref["digest"] != job.digest[:16]:
                error = "job inputs differ from the inputs the reference was made from"
            else:
                error = reference_error(rec, ref)
        if error is not None:
            self.failed += 1
            self.errors.append(f"job {job.index} ({job.kind}): {error}")
            return False
        return True

    @property
    def status(self) -> str:
        if self.refs is None:
            return "unchecked (no committed reference for this seed; invariants only)"
        rest = self.attempted - self.ref_checked
        return (f"checked {self.ref_checked}/{self.attempted} verdicts against the reference"
                + (f"; {rest} past its end checked by invariants only" if rest else ""))
