#!/usr/bin/env python3
"""curvlab-1d benchmark: one closed-loop client, one process, no threads.

    python3 cvbench/run.py --workload growth --seed 0 --seconds 35 --trace 0

Each job is one verdict (a check call, or one ``cli.main``) on inputs drawn
from ``--seed``; the next job starts when the previous verdict returns.
With ``--trace 0`` the run times verdicts until ``--seconds`` of verdict
time have passed and prints the end-to-end metrics.  With ``--trace 1`` it
runs two kind cycles untraced, then the next two traced (different inputs,
same kinds), and prints the per-layer metrics.  Every verdict is checked;
the last stdout line is the JSON result.  Timed metrics are scaled to a
reference machine speed by a calibration probe (speed.py); the raw values
are printed beside them.  See README.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".cvbench_out"

WORKLOADS = ("growth", "transport", "cli")
END_TO_END = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_p50_ms": "ms",
              "verdict_tail_ms": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9
# Jobs per pass of a traced run: two whole kind cycles, so the counts repeat
# exactly between runs of one seed.
TRACE_JOBS = {"growth": 24, "transport": 20, "cli": 20}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import curvlab1d.cli; "
                 "print(repr(time.perf_counter() - t))")


class LibraryMissing(RuntimeError):
    pass


def load_library():
    """Import curvlab1d from this checkout's src/ (never an installed copy)."""
    if not (SRC / "curvlab1d" / "__init__.py").is_file():
        raise LibraryMissing(f"no curvlab1d package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import curvlab1d
    if Path(curvlab1d.__file__).resolve().parent != (SRC / "curvlab1d").resolve():
        raise LibraryMissing(f"curvlab1d imported from {curvlab1d.__file__}, not {SRC}")
    import tracing
    import verdicts
    import workloads
    return workloads, verdicts, tracing


def tail_percentile(latencies):
    """(percentile, value, samples beyond) at the highest percentile that
    leaves at least ten samples above it.  With ten samples or fewer no
    percentile qualifies; the maximum is returned with 0 samples beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1], 0
    k = n - 11
    return 100.0 * (k + 1) / n, xs[k], n - 1 - k


def latency_values(lat):
    """verdicts_per_s, verdict_p50_ms and verdict_tail_ms of verdict times in
    seconds, with the tail's percentile and the samples beyond it."""
    pct, tail, beyond = tail_percentile(lat)
    return ({"verdicts_per_s": len(lat) / sum(lat),
             "verdict_p50_ms": 1e3 * statistics.median(lat),
             "verdict_tail_ms": 1e3 * tail}, pct, beyond)


def time_import() -> float:
    """Seconds to import curvlab1d (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(wl, workload, setup_inputs):
    """(calibrated, raw) median over SETUP_REPEATS of (import time + building
    the shared spaces), and the last set-up built."""
    samples, probes, setup = [], [speed.probe()], None
    for _ in range(SETUP_REPEATS):
        t_import = time_import()
        t0 = time.perf_counter()
        setup = wl.build_setup(workload, setup_inputs)
        samples.append(t_import + time.perf_counter() - t0)
        probes.append(speed.probe())
    return (statistics.median(speed.scale(samples, probes)), statistics.median(samples)), setup


def machine_record() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"l{level}_cache"] = size

    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "l2_cache": caches.get("l2_cache"), "l3_cache": caches.get("l3_cache"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads_pinned": {v: os.environ[v] for v in THREAD_VARS}}


class Stream:
    """The seed's job sequence; refuses a repeated input, hashes what it gave."""

    def __init__(self, wl, workload, seed, size, setup_inputs):
        self.wl, self.workload, self.seed, self.size = wl, workload, seed, size
        self.seen = set()
        self.hash = hashlib.sha256(wl._digest(setup_inputs).encode())

    def job(self, index):
        job = self.wl.make_job(self.workload, self.seed, index, self.size)
        digest = job.digest
        if digest in self.seen:
            raise RuntimeError(f"job {index} repeats an earlier input")
        self.seen.add(digest)
        self.hash.update(digest.encode())
        return job


def run_one(wl, vd, job, ctx, gate):
    """Run and check one job; returns (verdict seconds, report body bytes)."""
    call = wl.prepare(job, ctx)
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed verdict is counted, the run goes on
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        gate.check(job, None, error=f"raised {type(exc).__name__}: {exc}")
        return dt, 0
    dt = time.perf_counter() - t0
    try:
        rec, nbytes = vd.record(job, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        gate.check(job, None, error=f"unreadable result: {exc}")
        return dt, 0
    finally:
        if job.workload == "cli":
            for path in (result["out"], result["out"] + ".meta.json",
                         os.path.join(ctx.tmpdir, f"in{job.index}.json")):
                if os.path.exists(path):
                    os.remove(path)
    gate.check(job, rec)
    return dt, nbytes


def timed_run(wl, vd, stream, ctx, gate, seconds):
    """Raw verdict latencies until ``seconds`` of verdict time, and the
    calibration probes around them (one before each verdict, one after)."""
    lat, probes, index = [], [], 0
    busy = 0.0
    while busy < seconds:
        job = stream.job(index)
        probes.append(speed.probe())
        dt, _ = run_one(wl, vd, job, ctx, gate)
        lat.append(dt)
        busy += dt
        index += 1
    probes.append(speed.probe())
    return lat, probes


def traced_run(wl, vd, tg, stream, ctx, gate, workload, seed):
    n = TRACE_JOBS[workload]
    jobs = [stream.job(i) for i in range(2 * n)]
    plain = sum(run_one(wl, vd, job, ctx, gate)[0] for job in jobs[:n])
    tracer = tg.Tracer()
    tracer.install()
    try:
        traced = [run_one(wl, vd, job, ctx, gate) for job in jobs[n:]]
    finally:
        tracer.uninstall()
    if not tracer.restored():
        raise RuntimeError("tracer left a library attribute patched")
    verdict_s = sum(dt for dt, _ in traced)
    metrics = tg.layer_metrics(tracer, verdict_s, sum(nb for _, nb in traced),
                               overhead_frac=verdict_s / plain - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="verdict time to measure; a traced run is sized by job count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input; only the self-tests use it")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, vd, tg = load_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup_inputs = wl.setup_inputs(args.workload, args.seed, args.size)
    (setup_s, setup_raw_s), setup = measure_setup(wl, args.workload, setup_inputs)
    stream = Stream(wl, args.workload, args.seed, args.size, setup_inputs)
    gate = vd.Gate(vd.load_reference(args.workload, args.seed, args.size))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = wl.JobContext(setup, tmp)
        if args.trace:
            layer = traced_run(wl, vd, tg, stream, ctx, gate, args.workload, args.seed)
            metrics = {k: (v, tg.metric_unit(k)) for k, v in sorted(layer.items())}
            notes = {}
        else:
            raw, probes = timed_run(wl, vd, stream, ctx, gate, args.seconds)
            with open(OUT_DIR / f"latency-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({"raw_s": raw, "probes_s": probes}, fh)
            values, pct, beyond = latency_values(speed.scale(raw, probes))
            raw_values, _, _ = latency_values(raw)
            values["setup_s"], raw_values["setup_s"] = setup_s, setup_raw_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
            notes = {k: f"(raw {v:.6g})" for k, v in raw_values.items()}
            notes["verdict_tail_ms"] += f" (p{pct:.2f} of {len(raw)} verdicts, {beyond} beyond it)"
            notes["probe_ms"] = (f"min {1e3 * min(probes):.3f} median "
                                 f"{1e3 * statistics.median(probes):.3f} "
                                 f"max {1e3 * max(probes):.3f} over {len(probes)} probes; "
                                 f"reference {1e3 * speed.REFERENCE_PROBE_S:.3f}")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"closed loop, 1 client, 1 process")
    print(f"inputs_sha256={stream.hash.hexdigest()} jobs={gate.attempted}")
    print(f"reference: {gate.status}")
    for err in gate.errors[:20]:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r} {unit} {notes.get(name, '')}".rstrip())
    if "probe_ms" in notes:
        print(f"{'calibration probe_ms':48s} {notes['probe_ms']}")
    print(f"{'failed_frac':48s} {gate.failed / max(gate.attempted, 1)!r} ratio "
          f"({gate.failed}/{gate.attempted})")
    print("record: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "trace": args.trace, "size": args.size,
                                   "inputs_sha256": stream.hash.hexdigest(),
                                   "reference": gate.status, "notes": notes,
                                   "machine": machine_record()}))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
