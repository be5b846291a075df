#!/usr/bin/env python3
"""Regenerate the committed reference verdicts.

    python3 cvbench/make_refs.py --workload growth --seeds 0 1 2

Runs jobs 0 .. REF_JOBS-1 of each seed once, untimed, and writes each
verdict's passed flag or exit code, margin and witness numbers (rounded to
12 significant digits, well inside the 1e-8 gate) to
``cvbench/refs/<workload>/seed-<seed>.json``.  Regenerate only when the job
definitions change, never to make a changed library pass.
"""

import argparse
import json
import os
import sys
import tempfile

import run


def _round(v):
    return v if v is None else float(f"{v:.12g}")


def make(workload: str, seed: int, wl, vd) -> str:
    setup_inputs = wl.setup_inputs(workload, seed)
    setup = wl.build_setup(workload, setup_inputs)
    stream = run.Stream(wl, workload, seed, "full", setup_inputs)
    gate = vd.Gate(None)
    verdicts = []
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        ctx = wl.JobContext(setup, tmp)
        for index in range(vd.REF_JOBS[workload]):
            job = stream.job(index)
            call = wl.prepare(job, ctx)
            rec, _ = vd.record(job, call())
            if not gate.check(job, rec):
                raise SystemExit(f"{workload} seed {seed}: {gate.errors[-1]}")
            out = vd.stored(job, rec)
            out["margin"] = _round(out["margin"])
            out["numbers"] = [_round(v) for v in out["numbers"]]
            verdicts.append(out)
    path = vd.ref_path(workload, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "size": "full",
                   "inputs_sha256": stream.hash.hexdigest(), "verdicts": verdicts},
                  fh, separators=(",", ":"))
        fh.write("\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    wl, vd, _ = run.load_library()
    run.OUT_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        print(make(args.workload, seed, wl, vd), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
