"""Self-tests of the benchmark.  Run with ``python3 -m pytest cvbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

wl, vd, tg = run.load_library()


def _run(args, cwd=None):
    root = cwd or BENCH.parent
    return subprocess.run([sys.executable, "cvbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- tail percentile ----------------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 57, 100, 1000])
def test_tail_percentile_leaves_exactly_ten_beyond(n):
    lat = [float(v) for v in range(n, 0, -1)]
    pct, value, beyond = run.tail_percentile(lat)
    assert beyond == 10
    assert sum(x > value for x in lat) == 10
    assert value == n - 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_with_ten_samples_or_fewer_reports_the_max():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


# -- speed calibration --------------------------------------------------------------------

def test_scale_is_identity_at_reference_speed_and_follows_the_probe():
    ref = speed.REFERENCE_PROBE_S
    times = [0.1, 0.2, 0.3, 0.4]
    assert speed.scale(times, [ref] * 5) == pytest.approx(times)
    assert speed.scale(times, [2 * ref] * 5) == pytest.approx([t / 2 for t in times])
    # one disturbed probe moves no scaled time: the window median ignores it
    assert speed.scale(times, [ref, ref, 9 * ref, ref, ref]) == pytest.approx(times)
    # a slow spell scales the times inside it, not those far before it
    probes = [ref] * 6 + [2 * ref] * 6
    scaled = speed.scale([1.0] * 11, probes)
    assert scaled[0] == pytest.approx(1.0) and scaled[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed.scale(times, [ref] * 4)


def test_probe_takes_milliseconds():
    assert 1e-4 < speed.probe() < 1.0


# -- seeded generator ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_seeded_and_never_repeats(workload):
    def digests(seed):
        return ([wl._digest(wl.setup_inputs(workload, seed))]
                + [wl.make_job(workload, seed, i).digest for i in range(30)])

    a, b, c = digests(3), digests(3), digests(4)
    assert a == b
    assert not set(a[1:]) & set(c[1:])
    assert len(set(a[1:])) == len(a) - 1


def test_stream_refuses_a_repeated_input(monkeypatch):
    stream = run.Stream(wl, "growth", 0, "tiny", {})
    stream.job(0)
    monkeypatch.setattr(wl, "make_job", lambda w, s, i, z: wl.Job(w, 0, "rescale", {"x": 1}))
    stream.job(1)
    with pytest.raises(RuntimeError, match="repeats"):
        stream.job(2)


# -- correctness gate -----------------------------------------------------------------------

def _tiny_records(workload, count, tmp_path):
    setup = wl.build_setup(workload, wl.setup_inputs(workload, 0, "tiny"))
    ctx = wl.JobContext(setup, str(tmp_path))
    out = []
    for i in range(count):
        job = wl.make_job(workload, 0, i, "tiny")
        out.append((job, vd.record(job, wl.prepare(job, ctx)())[0]))
    return out


@pytest.mark.parametrize("field", ["margin", "number", "passed"])
def test_perturbed_verdict_is_counted_failed(field, tmp_path):
    (job, rec), = _tiny_records("growth", 1, tmp_path)
    refs = {job.index: vd.stored(job, rec)}
    gate = vd.Gate(refs)
    assert gate.check(job, rec)
    bad = dict(rec, numbers=list(rec["numbers"]))
    if field == "margin":
        bad["margin"] = rec["margin"] * (1.0 + 1e-6) + 1e-9
    elif field == "number":
        bad["numbers"][0] = rec["numbers"][0] * (1.0 + 1e-6) + 1e-9
    else:
        bad["passed"] = not rec["passed"]
    assert not gate.check(job, bad)
    assert (gate.attempted, gate.failed) == (2, 1)


def test_gate_tolerance_is_1e8_relative():
    rec = {"passed": True, "margin": 1.0, "numbers": [2.0, 0.0]}
    assert vd.reference_error(dict(rec, margin=1.0 + 5e-9), rec) is None
    assert vd.reference_error(dict(rec, margin=1.0 + 2e-8), rec) is not None
    assert vd.reference_error(dict(rec, numbers=[2.0, 5e-11]), rec) is None
    assert vd.reference_error(dict(rec, numbers=[2.0, 2e-10]), rec) is not None


def test_unreferenced_seed_reports_unchecked():
    assert vd.load_reference("growth", 987654, "full") is None
    assert vd.Gate(None).status.startswith("unchecked")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_references_ship_for_every_seed_and_match_the_generator(workload):
    for seed in (*vd.DEV_SEEDS, vd.CLAIM_SEED):
        refs = vd.load_reference(workload, seed, "full")
        assert refs is not None, f"no reference for {workload} seed {seed}"
        assert sorted(refs) == list(range(vd.REF_JOBS[workload]))
        for i in (0, len(refs) - 1):
            assert refs[i]["digest"] == wl.make_job(workload, seed, i).digest[:16]


# -- tracing ----------------------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_verdicts_equal_untraced_and_attributes_restored(workload, tmp_path):
    n = len(wl.CYCLES[workload])
    plain = _tiny_records(workload, n, tmp_path)
    before = tg.Tracer.snapshot()
    tracer = tg.Tracer()
    tracer.install()
    try:
        assert tg.Tracer.snapshot() != before
        traced = _tiny_records(workload, n, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert tg.Tracer.snapshot() == before
    assert tracer.spans
    for (job, a), (_, b) in zip(plain, traced):
        assert vd.reference_error(b, vd.stored(job, a)) is None
        assert (a["margin"], a["numbers"]) == (b["margin"], b["numbers"])


def test_wrappers_reach_names_imported_elsewhere():
    from curvlab1d import coefficients, curvature, geometry_scan, space1d
    tracer = tg.Tracer()
    tracer.install()
    try:
        assert curvature.sigma is coefficients.sigma
        assert curvature.sigma.__wrapped__ is not None
        assert geometry_scan.measure_ball is space1d.measure_ball
        assert hasattr(space1d.WeightFn.__call__, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(curvature.sigma, "__wrapped__")


# -- whole runs ---------------------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_has_no_failures(workload):
    res = _result(_run(["--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", "0", "--size", "tiny"]))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
            "--size", "tiny"]
    a, b = _result(_run(args)), _result(_run(args))
    assert a["failed"] == 0 and b["failed"] == 0
    counts = [k for k in a["metrics"] if k.endswith(".calls")]
    assert "transport1d.circle_objective.calls" in counts
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}
    declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())
                ["per_layer"]}
    assert set(a["metrics"]) == declared


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "cvbench",
                    ignore=shutil.ignore_patterns("__pycache__", "refs"))
    proc = _run(["--workload", "growth", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
