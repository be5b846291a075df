import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab1d.cli import _dump_body, main
from curvlab1d.space1d import load_space


@pytest.fixture()
def spaces(tmp_path):
    paths = {}
    descs = {
        "interval": {"topology": "interval", "param": 1.0, "grid_step": 1e-3},
        "line": {"topology": "line", "window": [-4, 4], "grid_step": 1e-3},
        "halfline": {"topology": "halfline", "window": [0, 4], "grid_step": 1e-3},
        "circle": {"topology": "circle", "param": 1.0, "grid_step": 1e-3},
        "scenario": {"a": 0.5, "b": 0.1, "eps": 0.05, "eta": 0.5,
                     "beta": 1.0, "N": 2.0, "edge_lengths": [1, 1, 1]},
        "grid": {"t": [0.0, 0.5, 1.0], "K": [0.0, 1.0], "N": [2.0],
                 "theta": [0.5, 1.0]},
    }
    for name, desc in descs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(desc))
        paths[name] = str(p)
    return paths


def run(args):
    return main(args)


def body_of(path):
    with open(path) as fh:
        return json.load(fh)


def test_exit_codes_pass_fail_usage(spaces, tmp_path):
    out = str(tmp_path / "o.json")
    # PASS -> 0
    assert run(["check-kn-convex", "--input", spaces["interval"],
                "--k", "0", "--n", "2", "--output", out]) == 0
    # inequality FAIL -> 2, report still written
    code = run(["verify-cde", "--input", spaces["interval"],
                "--k", "5", "--n", "2", "--output", out])
    assert code == 2
    body = body_of(out)
    assert body["passed"] is False
    assert body["margin"] > 0
    # schema error -> 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"topology": "moebius"}))
    assert run(["check-kn-convex", "--input", str(bad), "--output", out]) == 1
    # missing input -> 1
    assert run(["check-kn-convex", "--input", str(tmp_path / "nope.json")]) == 1
    # infeasible scenario -> 1
    infeasible = tmp_path / "inf.json"
    infeasible.write_text(json.dumps({"a": 0.5, "b": 0.1, "eps": 0.05,
                                      "eta": 0.5, "edge_lengths": [0.01, 1, 1]}))
    assert run(["tripod-shannon", "--input", str(infeasible), "--output", out]) == 1


# every body's seed is --seed, which the command writes: a report holds no seed
REPORT_COMMANDS = {"check-kn-convex": ("interval", "0"), "lipschitz": ("interval", "0"),
                   "bg-scan": ("line", "0"), "bg-boundary": ("line", "0"),
                   "circle-obstruction": ("circle", "1"), "verify-cde": ("interval", "0"),
                   "verify-cd-infty": ("interval", "0")}


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_report_contract_fields(spaces, tmp_path, command):
    space, k = REPORT_COMMANDS[command]
    out = str(tmp_path / "r.json")
    n = [] if command == "verify-cd-infty" else ["--n", "2"]  # CD(K, infinity) reads no N
    assert run([command, "--input", spaces[space], "--k", k, *n,
                "--seed", "5", "--output", out]) in (0, 2)
    body = body_of(out)
    for key in ("check_id", "params", "margin", "tol", "passed", "witness", "seed",
                "grid_step", "tool_version"):
        assert key in body
    assert body["seed"] == 5
    # each fact once: K and N only in params, and no second name for the margin
    assert body["params"] == ({"K": float(k)} if command == "verify-cd-infty"
                              else {"K": float(k), "N": 2.0})
    for key in ("kind", "max_violation", "K", "N", "min_slack"):
        assert key not in body, key


@pytest.mark.parametrize("space", ["interval", "line", "halfline", "circle"])
def test_lipschitz_checks_every_pair(spaces, tmp_path, space):
    # x is drawn where y stays in the domain and both balls fit the window,
    # so none of the 200 pairs is dropped (138 of them were on the interval,
    # then 192, and 138 on the line [-4, 4])
    out = str(tmp_path / "l.json")
    assert run(["lipschitz", "--input", spaces[space], "--seed", "0", "--output", out]) == 0
    body = body_of(out)
    assert body["n_pairs"] == 200
    assert "pairs_dropped" not in body["params"]


@pytest.mark.parametrize("command,desc,field", [
    pytest.param("check-kn-convex", {"topology": "interval", "param": 1, "wieght": {
        "coords": [0, 1], "f": [0.0, -30.0]}}, "'wieght'", id="misspelt-weight"),
    pytest.param("lipschitz", {"topology": "line", "param": 1, "window": [-4, 4]}, "param",
                 id="line-param"),
    pytest.param("lipschitz", {"topology": "halfline", "param": 4, "window": [0, 4]}, "param",
                 id="halfline-param"),
    pytest.param("lipschitz", {"topology": "line", "window": [-4, 4], "weight": {
        "coords": [-4, 4], "f": [0, 0], "fs": [1, 1]}}, "'fs'", id="weight-field"),
    pytest.param("tripod-shannon", {"a": 0.5, "b": 0.1, "eps": 0.05, "eta": 0.5,
                                    "edge_length": [0.01, 1, 1]}, "'edge_length'",
                 id="scenario-field"),
    pytest.param("coefficients-table", {"t": [0.5], "K": [0.0], "N": [2.0], "theta": [1.0],
                                        "Ks": [5.0]}, "'Ks'", id="grid-field"),
])
def test_description_fields_are_never_dropped(tmp_path, capsys, command, desc, field):
    # a field the description does not define, or a param on a line or
    # half-line, exits 1 and names the field: it was silently dropped, so a
    # misspelt weight ran as f = 0 (check-kn-convex exit 0, margin 0.0)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(desc))
    assert run([command, "--input", str(path), "--output", str(tmp_path / "o.json")]) == 1
    assert field in capsys.readouterr().err


def test_a_null_param_on_a_line_loads(tmp_path):
    # space_to_dict writes "param": null for a line or half-line
    for desc in ({"topology": "line", "param": None, "window": [-4, 4]},
                 {"topology": "halfline", "param": None, "window": [0, 4]}):
        path = tmp_path / "null.json"
        path.write_text(json.dumps(desc))
        assert run(["lipschitz", "--input", str(path), "--output", str(tmp_path / "o.json")]) == 0


# one description per rule that the type owning it judges, and a word of the
# message naming the field or rule; load_space reads only the JSON
OWNED_RULES = [
    pytest.param({"topology": "moebius"}, "topology", id="unknown-kind"),
    pytest.param({"topology": "interval"}, "param", id="interval-no-param"),
    pytest.param({"topology": "interval", "param": 0}, "param", id="interval-param-0"),
    pytest.param({"topology": "interval", "param": -1}, "param", id="interval-param-neg"),
    pytest.param({"topology": "interval", "param": math.inf}, "param", id="interval-param-inf"),
    pytest.param({"topology": "circle", "param": math.inf}, "param", id="circle-param-inf"),
    pytest.param({"topology": "line", "param": 2, "window": [-4, 4]}, "param", id="line-param"),
    pytest.param({"topology": "halfline", "param": 4, "window": [0, 4]}, "param",
                 id="halfline-param"),
    pytest.param({"topology": "line"}, "window", id="line-no-window"),
    pytest.param({"topology": "interval", "param": 1, "window": [0, 1]}, "window",
                 id="interval-window"),
    pytest.param({"topology": "interval", "param": 1, "window": None}, "window",
                 id="interval-null-window"),
    pytest.param({"topology": "halfline", "window": [1, 4]}, "start at 0",
                 id="halfline-window-start"),
    pytest.param({"topology": "line", "window": [1, 0]}, "window", id="line-window-reversed"),
    pytest.param({"topology": "line", "window": [-math.inf, math.inf]}, "window",
                 id="line-window-inf"),
    pytest.param({"topology": "halfline", "window": [0, math.inf]}, "window",
                 id="halfline-window-inf"),
    pytest.param({"topology": "interval", "param": 1, "grid_step": math.inf}, "grid_step",
                 id="grid-step-inf"),
    pytest.param({"topology": "interval", "param": 8,
                  "weight": {"coords": [0, 1], "f": [0, 0]}}, "cover", id="interval-weight-short"),
    pytest.param({"topology": "line", "window": [-4, 4],
                  "weight": {"coords": [-1, 1], "f": [0, 0]}}, "cover", id="weight-cover"),
    pytest.param({"topology": "interval", "param": 1,
                  "weight": {"coords": [0, 1], "f": [0, 1, 2]}}, "coords and f",
                 id="weight-lengths"),
    pytest.param({"topology": "interval", "param": 1,
                  "weight": {"coords": [0, 0.6, 0.4, 1], "f": [0, 1, 2, 3]}}, "increasing",
                 id="weight-order"),
    pytest.param({"topology": "line", "window": [-4, 4],
                  "weight": {"coords": [-math.inf, 4], "f": [0, 1]}}, "coords",
                 id="weight-coords-inf"),
]


@pytest.mark.parametrize("desc,rule", OWNED_RULES)
def test_owned_rules_refuse_the_description(desc, rule, tmp_path, capsys):
    with pytest.raises(ValueError, match=rule):
        load_space(desc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert run(["check-kn-convex", "--input", str(path), "--output", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and rule in err


@pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
@pytest.mark.parametrize("command", ["check-kn-convex", "verify-cde", "verify-cd-infty",
                                     "bg-scan", "bg-boundary", "classify"])
def test_every_command_that_reads_tol_refuses_a_non_finite_one(tmp_path, capsys, command, tol):
    # a spike far from (0, 2)-convex passed check-kn-convex at an inf tol
    # (margin +2.26e6, exit 0), and a NaN tol failed bg-scan and
    # verify-cd-infty (exit 2) on negative margins
    path = tmp_path / "spike.json"
    path.write_text(json.dumps({"topology": "interval", "param": 1,
                                "weight": {"coords": [0, 0.5, 1], "f": [0, -30, 0]}}))
    out = tmp_path / "o.json"
    assert run([command, "--input", str(path), "--tol", tol, "--output", str(out)]) == 1
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("space", ["interval", "halfline"])
@pytest.mark.parametrize("command", ["bg-scan", "bg-boundary", "density-ratio"])
def test_growth_commands_start_at_an_own_end(spaces, tmp_path, command, space):
    # an own end does not cap the reach: from x = 0 the radii run toward the
    # far end (the reach was 0, and each command exited 1)
    out = str(tmp_path / "g.json")
    assert run([command, "--input", spaces[space], "--x", "0", "--output", out]) == 0
    body = body_of(out)
    radii = (body["r_grid"] if command == "bg-scan" else body["t_grid"]
             if command == "bg-boundary" else [r for r, _ in body["rows"]])
    span = {"interval": 1.0, "halfline": 4.0}[space]
    assert min(radii) > 0.0 and max(radii) > 0.4 * span


@pytest.mark.parametrize("space,command,x", [
    ("line", "bg-scan", "-4"), ("line", "bg-scan", "4"), ("line", "bg-scan", "9"),
    ("line", "bg-boundary", "-4"), ("line", "density-ratio", "-4"),
    ("line", "density-ratio", "3.99"), ("halfline", "bg-scan", "4"),
    ("halfline", "bg-boundary", "-1"), ("interval", "density-ratio", "1.5"),
])
def test_growth_commands_refuse_a_bad_centre(spaces, tmp_path, capsys, space, command, x):
    # a centre outside the window, at a window end, or (density-ratio) too
    # near one for radii above 10 grid steps exits 1 and names --x and the
    # window (each exited 1 with a message from deep inside the scan)
    assert run([command, "--input", spaces[space], "--x", x,
                "--output", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    window = {"line": "[-4.0, 4.0]", "halfline": "[0.0, 4.0]", "interval": "[0.0, 1.0]"}[space]
    assert err.startswith(f"error: --x {float(x)!r} ") and window in err, err


@pytest.mark.parametrize("a,k,code", [(0.022, "1", 0), (0.022, "1.1", 2),
                                      (0.22, "1.1", 0), (0.22, "1.5", 2)])
def test_a_growth_scan_passes_and_fails_on_one_space(tmp_path, a, k, code):
    # V = -2 log sin((x + a)/sqrt 2) on [0, 4], a pole trimmed off at -a, is
    # CD(1, 3) with equality (V'' - V'^2/2 = 1): the scan from the own end 0
    # passes at K = 1 and fails at a larger K, the nearer the pole the sooner
    x = np.linspace(0.0, 4.0, 4001)
    f = -2.0 * np.log(np.sin((x + a) / math.sqrt(2.0)))
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"topology": "interval", "param": 4,
                                "weight": {"coords": x.tolist(), "f": f.tolist()}}))
    out = str(tmp_path / "s.json")
    assert run(["bg-scan", "--input", str(path), "--x", "0", "--n", "3", "--k", k,
                "--output", out]) == code
    assert (body_of(out)["margin"] > 0.0) == (code == 2)


def test_circle_obstruction_with_nothing_to_score_exits_one(spaces, tmp_path, capsys):
    # at K = 1e40 every d below the conjugate length is within rounding of 0:
    # the check exited 2 with passed: true, anomaly: true and an empty witness
    for command in ("circle-obstruction", "classify"):
        out = tmp_path / "c.json"
        assert run([command, "--input", spaces["circle"], "--k", "1e40", "--n", "2",
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: nothing to score")
        assert not out.exists()


def test_circle_obstruction_exit_zero_when_found(spaces, tmp_path):
    out = str(tmp_path / "c.json")
    assert run(["circle-obstruction", "--input", spaces["circle"],
                "--k", "1", "--n", "2", "--output", out]) == 0
    body = body_of(out)
    assert body["anomaly"] is False
    assert "violation_factor" in body["witness"]


def test_tripod_commands(spaces, tmp_path):
    out = str(tmp_path / "t.json")
    assert run(["tripod-renyi", "--input", spaces["scenario"], "--output", out]) == 0
    body = body_of(out)
    assert body["contradiction_reproduced"] is True
    assert body["witness"]["ratio"] >= body["witness"]["threshold"] * (1 - 5e-3)
    csv_out = str(tmp_path / "t.csv")
    assert run(["tripod-shannon", "--input", spaces["scenario"],
                "--output", csv_out, "--format", "csv"]) == 0
    lines = open(csv_out).read().strip().splitlines()
    assert lines[0] == "eps,lhs,rhs,ratio"
    assert len(lines) == 6  # default sweep of 5 eps values


def test_coefficients_table_csv(spaces, tmp_path):
    out = str(tmp_path / "coef.csv")
    assert run(["coefficients-table", "--input", spaces["grid"],
                "--output", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "t,K,N,theta,sigma,s_vol,f_vol"
    rows = [ln.split(",") for ln in lines[1:]]
    # K = 0 rows have sigma == t
    for r in rows:
        if float(r[1]) == 0.0:
            assert float(r[4]) == pytest.approx(float(r[0]), abs=1e-15)
        if float(r[0]) == 1.0:
            assert float(r[4]) == pytest.approx(1.0, abs=1e-12)


def test_density_ratio_csv_and_json(spaces, tmp_path):
    out_csv = str(tmp_path / "dr.csv")
    assert run(["density-ratio", "--input", spaces["line"],
                "--output", out_csv, "--format", "csv"]) == 0
    lines = open(out_csv).read().strip().splitlines()
    assert lines[0] == "r,ratio"
    assert all(float(ln.split(",")[1]) == pytest.approx(2.0, abs=1e-9)
               for ln in lines[1:])
    out_json = str(tmp_path / "dr.json")
    assert run(["density-ratio", "--input", spaces["line"],
                "--output", out_json]) == 0
    body = body_of(out_json)
    assert body["in_mk"] is False


def test_classify_comma_lists(spaces, tmp_path):
    out = str(tmp_path / "cl.json")
    assert run(["classify", "--input", spaces["circle"],
                "--k", "1,0.1", "--n", "2,8", "--output", out]) == 0
    body = body_of(out)
    assert body["model"] == {"kind": "circle", "param": 1.0}
    assert body["admissible"] is False
    assert body["kn_params"] is None
    assert run(["classify", "--input", spaces["interval"],
                "--k", "0", "--n", "2", "--output", out]) == 0
    assert body_of(out)["kn_params"] == [0.0, 2.0]


def test_grid_step_override(spaces, tmp_path):
    out = str(tmp_path / "g.json")
    run(["check-kn-convex", "--input", spaces["interval"], "--k", "0",
         "--n", "2", "--grid-step", "0.01", "--output", out])
    assert body_of(out)["grid_step"] == 0.01


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_json_is_strict(spaces, tmp_path):
    body = _strict_loads(_dump_body({"b": np.float64("inf"), "a": float("nan"),
                                     "c": np.float64("-inf")}))
    assert body == {"a": "nan", "b": "inf", "c": "-inf"}
    # theta = 5 lies past the conjugate radius pi * sqrt(2) of K = 1, N = 2
    grid = tmp_path / "far.json"
    grid.write_text(json.dumps({"t": [0.5], "K": [1.0], "N": [2.0], "theta": [5.0]}))
    out = str(tmp_path / "coef.json")
    assert run(["coefficients-table", "--input", str(grid), "--format", "json",
                "--output", out]) == 0
    row = _strict_loads(open(out).read())["rows"][0]
    assert row[4] == "inf" and row[6] == "nan"


@pytest.mark.parametrize("K,N,scale", [(4.0, 1.3, 1.0), (1.0, 2.5, 1.0 + 5e-13)])
def test_coefficients_table_at_the_conjugate_radius(K, N, scale, tmp_path):
    # f_vol there raised "TypeError: must be real number, not complex" (a traceback)
    theta = math.pi * math.sqrt((N - 1.0) / K) * scale
    grid = tmp_path / "conj.json"
    grid.write_text(json.dumps({"t": [0.5], "K": [K], "N": [N], "theta": [theta]}))
    out = str(tmp_path / "coef.json")
    assert run(["coefficients-table", "--input", str(grid), "--format", "json",
                "--output", out]) == 0
    row = _strict_loads(open(out).read())["rows"][0]
    assert row[3] == theta and math.isfinite(row[6]) and row[6] > 0.0


def test_explicit_zero_tol_is_honoured(spaces, tmp_path):
    out = str(tmp_path / "z.json")
    run(["verify-cde", "--input", spaces["interval"], "--tol", "0", "--output", out])
    assert body_of(out)["tol"] == 0.0


def test_vacuous_scan_exits_one(spaces, tmp_path):
    # every default pair is conjugate-flagged at K = 1e6: nothing is checked
    assert run(["verify-cde", "--input", spaces["interval"], "--k", "1e6",
                "--output", str(tmp_path / "v.json")]) == 1


def test_unrepresentable_weight_exits_one(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"topology": "interval", "param": 1,
                                "weight": {"coords": [0, 1], "f": [-1500, -1500]}}))
    for command in ("check-kn-convex", "verify-cde"):
        assert run([command, "--input", str(deep),
                    "--output", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")


SCHEMA_TYPE_ERRORS = [
    pytest.param("check-kn-convex", {"topology": "interval", "param": 1.0, "grid_step": None},
                 "grid_step", id="grid_step-null"),
    pytest.param("bg-scan", {"topology": "line", "window": [None, 1]}, "window",
                 id="window-null"),
    # an int past the float range is a schema error, never an OverflowError
    pytest.param("bg-scan", {"topology": "line", "param": 10 ** 400, "window": [-4, 4]}, "param",
                 id="param-past-float"),
    pytest.param("bg-scan", {"topology": "line", "window": [-4, 10 ** 400]}, "window",
                 id="window-past-float"),
    pytest.param("tripod-shannon", {"a": None, "b": 0.1, "eps": 0.05, "eta": 0.5}, "'a'",
                 id="scenario-a-null"),
    pytest.param("tripod-renyi", {"a": 0.5, "b": 0.1, "eps": 0.05, "eta": 0.5,
                                  "edge_lengths": 5}, "edge_lengths", id="edge_lengths-5"),
    pytest.param("coefficients-table", {"t": [None], "K": [0.0], "N": [2.0], "theta": [0.5]},
                 "'t'", id="grid-t-null"),
    pytest.param("tripod-shannon", 5, "JSON object", id="not-an-object"),
]


@pytest.mark.parametrize("command,desc,field", SCHEMA_TYPE_ERRORS)
def test_schema_type_errors_exit_one(command, desc, field, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(desc))
    assert run([command, "--input", str(path), "--output", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_csv_only_for_commands_with_rows(spaces, tmp_path, capsys):
    out = tmp_path / "o.csv"
    for command in ("check-kn-convex", "verify-cde", "verify-cd-infty", "circle-obstruction",
                    "bg-scan", "bg-boundary", "lipschitz", "classify"):
        assert run([command, "--input", spaces["interval"], "--format", "csv",
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


ALL_COMMANDS = [
    ["check-kn-convex", "--input", "line"],
    ["verify-cde", "--input", "interval"],
    ["verify-cd-infty", "--input", "interval"],
    ["circle-obstruction", "--input", "circle", "--k", "1"],
    ["bg-scan", "--input", "line"],
    ["bg-boundary", "--input", "line"],
    ["density-ratio", "--input", "line"],
    ["lipschitz", "--input", "line"],
    ["classify", "--input", "interval"],
    ["tripod-shannon", "--input", "scenario"],
    ["tripod-renyi", "--input", "scenario"],
    ["coefficients-table", "--input", "grid"],
]


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
def test_determinism_byte_identical(argv, spaces, tmp_path):
    cmd = list(argv)
    cmd[cmd.index("--input") + 1] = spaces[cmd[cmd.index("--input") + 1]]
    out1 = str(tmp_path / "d1.out")
    out2 = str(tmp_path / "d2.out")
    run(cmd + ["--seed", "3", "--output", out1])
    run(cmd + ["--seed", "3", "--output", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()
    # timestamps live in the sidecar, not the body
    meta = json.load(open(out1 + ".meta.json"))
    assert "generated_at" in meta


UNREAD_OPTIONS = [
    ("lipschitz", ["--x", "0.3"]),
    ("lipschitz", ["--tol", "0.1"]),
    ("check-kn-convex", ["--kexp", "7"]),
    ("check-kn-convex", ["--x", "0.2"]),
    ("verify-cde", ["--x", "0.2"]),
    ("verify-cd-infty", ["--n", "3"]),
    ("circle-obstruction", ["--tol", "0.1"]),
    ("bg-scan", ["--kexp", "2"]),
    ("density-ratio", ["--tol", "5"]),
    ("density-ratio", ["--k", "1"]),
    ("classify", ["--x", "0.5"]),
    ("tripod-shannon", ["--grid-step", "0.1"]),
    ("tripod-renyi", ["--n", "3"]),
    ("coefficients-table", ["--seed", "1", "--tol", "1"]),
]


@pytest.mark.parametrize("command,option", UNREAD_OPTIONS,
                         ids=[f"{c}{''.join(o[::2])}" for c, o in UNREAD_OPTIONS])
def test_unread_option_exits_one(command, option, spaces, tmp_path, capsys):
    # an option the command would ignore is refused, not swallowed
    source = {"tripod-shannon": "scenario", "tripod-renyi": "scenario",
              "coefficients-table": "grid", "circle-obstruction": "circle"}.get(command, "line")
    out = tmp_path / "o.json"
    assert run([command, "--input", spaces[source], *option, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and option[-2] in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check-kn-convex", "verify-cde"])
def test_strongly_negative_k_writes_a_body(command, tmp_path):
    # x = sqrt(-K d^2 / N) passes math.sinh's overflow for most plans and pairs
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"topology": "line", "window": [-4, 4]}))
    out = tmp_path / "o.json"
    code = run([command, "--input", str(path), "--k=-1e6", "--n=2", "--output", str(out)])
    assert code in (0, 2)
    body = _strict_loads(out.read_text())
    assert body["params"] == {"K": -1e6, "N": 2.0} and isinstance(body["margin"], float)


@pytest.mark.parametrize("argv,desc", [
    (["coefficients-table"], {"t": [0.5], "K": [-1e6], "N": [2.0], "theta": [2.0]}),
    (["bg-scan", "--k=-1e6"], {"topology": "line", "window": [-4, 4]}),
], ids=["coefficients-table", "bg-scan"])
def test_coefficient_overflow_exits_one(argv, desc, tmp_path, capsys):
    # sinh(r sqrt(-K / (N - 1))) overflows: s_vol at theta = 2, f_vol at the radii
    path = tmp_path / "in.json"
    path.write_text(json.dumps(desc))
    out = tmp_path / "o.json"
    assert run(argv + ["--input", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("K,what", [(0.0, "f_vol overflows at r = 1e+308 for K = 0.0"),
                                     (4.0, "s_vol overflows at t = 1e+308 for K = 4.0")])
def test_coefficients_table_at_a_huge_radius_exits_one(K, what, tmp_path, capsys,
                                                       monkeypatch):
    # f_vol's quadrature of x on [0, 1e308] overflowed and ran on for hours;
    # s_vol's sin of an infinite t c said only "math domain error"
    from curvlab1d import coefficients

    inner, calls = coefficients._s_vol, [0]

    def guarded(params, t):
        calls[0] += 1
        if calls[0] > 10_000:
            raise RuntimeError("more than 10000 integrand calls")
        return inner(params, t)

    monkeypatch.setattr(coefficients, "_s_vol", guarded)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"t": [0.5], "K": [K], "N": [2.0], "theta": [1e308]}))
    out = tmp_path / "o.json"
    assert run(["coefficients-table", "--input", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {what}, N = 2.0")
    assert not out.exists()


@st.composite
def _space_descs(draw, kind):
    """A valid space description of the topology: 2-200 weight knots
    spanning its domain, weight values in [-3, 3]."""
    size = draw(st.floats(0.5, 4.0))
    lo = draw(st.floats(-3.0, 0.0)) if kind == "line" else 0.0
    hi = lo + size
    desc = {"topology": kind}
    if kind in ("line", "halfline"):
        desc["window"] = [lo, hi]
    else:
        desc["param"] = size
    n = draw(st.integers(2, 200))
    if kind == "circle":
        coords = np.linspace(0.0, 2.0 * math.pi * size, n, endpoint=False)
    else:
        coords = np.linspace(lo, hi, n)
    f = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    desc["weight"] = {"coords": coords.tolist(), "f": f}
    return desc


@pytest.mark.parametrize("kind", ["line", "halfline", "interval", "circle"])
@settings(max_examples=5)
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_fuzzed_spaces_give_byte_identical_bodies(kind, data, seed):
    # every command runs twice on the same input: same exit code, same bytes
    desc = data.draw(_space_descs(kind))
    commands = (["check-kn-convex", "--k=-0.5"], ["classify", "--k=-1,0.5", "--n=2,3"],
                ["bg-scan"], ["circle-obstruction", "--k=1"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.json")
        with open(path, "w") as fh:
            json.dump(desc, fh)
        for cmd in commands:
            runs = []
            for k in range(2):
                out = os.path.join(tmp, f"{cmd[0]}{k}.json")
                code = run(cmd + ["--input", path, f"--seed={seed}", "--output", out])
                body = open(out, "rb").read() if os.path.exists(out) else None
                runs.append((code, body))
            assert runs[0] == runs[1]
            assert runs[0][0] in (0, 1, 2)
