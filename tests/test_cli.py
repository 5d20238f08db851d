import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capclust
from capclust import CenterSpec, Point, Problem, SolverConfig, distance_summary, euclidean, solve, validate_problem
from capclust.cli import main
from capclust.evaluation import PER_DEMAND, PER_POINT
from capclust.io import write_labels, write_solution


@pytest.fixture()
def dataset(tmp_path):
    spec = {"cluster_sizes": [10, 10, 14], "scale_range": [0.0, 0.05],
            "grid_side": 3.0, "n_outliers": 3, "rng_seed": 4}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    points = tmp_path / "points.csv"
    code = main(["generate", "--spec", str(spec_path), "--seed", "4", "--out", str(points)])
    assert code == 0
    return points, tmp_path / "points_labels.csv"


def test_generate_solve_evaluate_pipeline(dataset, tmp_path, capsys):
    points, labels = dataset
    out = tmp_path / "run"
    code = main([
        "solve", "--points", str(points), "--k", "3", "--metric", "sqeuclidean",
        "--restarts", "4", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "solution.txt").exists()
    assert (out / "plot.svg").exists()
    code = main(["evaluate", "--solution", str(out / "solution.txt"), "--truth", str(labels)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ARI" in printed
    ari = float([ln for ln in printed.splitlines() if ln.startswith("ARI")][-1].split()[1])
    assert ari > 0.6


def test_solve_deterministic_documents(dataset, tmp_path):
    points, _ = dataset
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main([
            "solve", "--points", str(points), "--k", "3", "--metric", "euclidean",
            "--capacity", "2,2000", "--membership", "fractional",
            "--outlier-lambda", "0.4", "--restarts", "3", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        outs.append((out / "solution.txt").read_bytes())
    assert outs[0] == outs[1]


def test_infeasible_exits_2(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,2\n1,1,0,2\n2,2,0,2\n")
    code = main([
        "solve", "--points", str(points), "--k", "1", "--capacity", "0,3",
        "--membership", "hard", "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_budget_exhausted_with_incumbent_exits_4(tmp_path):
    # the split-optimal two-point instance: the LP root is fractional, the
    # greedy incumbent is the hard optimum, and a zero budget keeps the
    # gap open
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w,gamma,a,q\n0,0,0,1,,2,\n1,1,0,1,,2,\n")
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,5\n1,3\n")
    out = tmp_path / "out"
    code = main([
        "solve", "--points", str(points), "--matrix", str(matrix), "--metric", "matrix",
        "--k", "2", "--capacity", "1,3", "--membership", "hard",
        "--time-budget", "0", "--restarts", "1", "--seed", "0", "--out", str(out),
    ])
    assert code == 4
    assert (out / "solution.txt").exists()


def test_parse_error_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,x,y\n0,0,0\n")
    code = main(["solve", "--points", str(bad), "--k", "1", "--out", str(tmp_path / "o")])
    assert code == 3


def test_non_finite_input_exits_3(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,1\n1,nan,0,1\n")
    assert main(["solve", "--points", str(points), "--k", "1", "--out", str(tmp_path / "o")]) == 3
    matrix = tmp_path / "m.csv"
    matrix.write_text("0\ninf\n")
    points.write_text("id,x,y,w\n0,0,0,1\n1,1,0,1\n")
    code = main(["solve", "--points", str(points), "--matrix", str(matrix), "--metric", "matrix",
                 "--k", "1", "--out", str(tmp_path / "o")])
    assert code == 3


def test_evaluate_truncated_solution_exits_3(dataset, tmp_path, capsys):
    points, labels = dataset
    out = tmp_path / "run"
    code = main(["solve", "--points", str(points), "--k", "3", "--restarts", "1", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    doc = out / "solution.txt"
    lines = doc.read_text().splitlines(keepends=True)
    block = next(i for i, ln in enumerate(lines) if ln.startswith("memberships "))
    doc.write_text("".join(lines[: block + 2]))  # cut inside the memberships block
    assert main(["evaluate", "--solution", str(doc), "--truth", str(labels)]) == 3
    assert "parse error: line" in capsys.readouterr().err


def test_evaluate_unknown_point_id_exits_3(dataset, tmp_path, capsys):
    points, labels = dataset
    out = tmp_path / "run"
    assert main(["solve", "--points", str(points), "--k", "3", "--restarts", "1", "--seed", "1",
                 "--out", str(out)]) == 0
    doc = out / "solution.txt"
    lines = doc.read_text().splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if ln.startswith("m "))
    lines[row] = "m 999999 " + lines[row].split(" ", 2)[2]
    doc.write_text("".join(lines))
    assert main(["evaluate", "--solution", str(doc), "--truth", str(labels)]) == 3
    assert f"parse error: line {row + 1}: point id 999999" in capsys.readouterr().err


@pytest.mark.parametrize("truth, code, message", [
    ("id,label\n900001,0\n900002,1\n", 1, "error: truth and solution share no point id"),
    ("id,label\n", 3, "parse error: line 2: no labels in file"),
], ids=["no-shared-id", "header-only"])
def test_evaluate_with_nothing_to_compare_fails(dataset, tmp_path, capsys, truth, code, message):
    # An ARI over no points would read 1.000000, a perfect score.
    points, _ = dataset
    out = tmp_path / "run"
    assert main(["solve", "--points", str(points), "--k", "3", "--restarts", "1", "--seed", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    labels = tmp_path / "truth.csv"
    labels.write_text(truth)
    assert main(["evaluate", "--solution", str(out / "solution.txt"), "--truth", str(labels)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and "ARI" not in captured.out


def test_evaluate_statistics_match_distance_summary(tmp_path, capsys):
    rng = np.random.default_rng(8)
    pts = tuple(Point(i, coords=tuple(rng.normal(0, 1, 2)), w=float(rng.uniform(1, 5))) for i in range(30))
    prob = validate_problem(Problem(points=pts, metric=euclidean(), centers=CenterSpec(k=3)))
    sol = solve(prob, SolverConfig(restarts=2, rng_seed=0))
    write_solution(prob, sol, tmp_path / "solution.txt")
    write_labels(tmp_path / "truth.csv", [p.id for p in pts], sol.assignment.hard_labels())
    assert main(["evaluate", "--solution", str(tmp_path / "solution.txt"),
                 "--truth", str(tmp_path / "truth.csv")]) == 0
    printed = capsys.readouterr().out.splitlines()
    for weighting in (PER_POINT, PER_DEMAND):
        words = next(ln for ln in printed if ln.startswith(f"{weighting}:")).split()
        shown = {key: float(value) for key, value in zip(words[1::2], words[2::2])}
        assert shown == pytest.approx(distance_summary(prob, sol, weighting=weighting), rel=1e-5)


@pytest.mark.parametrize("argv, text, code", [
    (["solve", "--k", "1", "--metric", "threshold:abc"], None, 1),
    (["sweep", "--k-range", "1..2", "--lambda-grid", "a"], None, 1),
    (["solve", "--k", "1", "--restarts", "0"], None, 1),
    (["solve", "--k", "1", "--restarts", "10001"], None, 1),
    (["solve", "--k", "1", "--seed", "-1"], None, 1),
    (["solve", "--k", "1", "--config", "JSON"], '{"restarts": "x"}', 1),
    (["solve", "--k", "1", "--config", "JSON"], '{"capacity": [1]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [3], "bogus": 1}', 1),
    (["solve", "--k", "1", "--points", "missing.csv"], None, 1),
    (["solve", "--k", "1", "--config", "JSON"], '[{"restarts": 2}]', 3),
    (["solve", "--k", "1", "--config", "JSON"], '{"restarts": 2,\n}', 3),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [3], "weight_range": [NaN, 1]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [3], "weight_range": [1, Infinity]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [3], "scale_range": [0, Infinity]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [3], "grid_side": NaN}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [3], "weight_range": [-5, 1]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [3], "grid_side": -3}', 1),
    (["solve", "--k", "1", "--time-budget", "-1"], None, 1),
    (["solve", "--k", "1", "--time-budget", "nan"], None, 1),
    (["sweep", "--k-range", "1..2", "--lambda-grid", "nan,1"], None, 1),
    (["sweep", "--k-range", "1..2", "--lambda-grid", "inf"], None, 1),
    (["sweep", "--k-range", "1..2", "--lambda-grid", "-5"], None, 1),
    (["generate", "--spec", "JSON"], '{"scale_range": [0, 1e308]}', 1),
    (["solve", "--k", "2", "--restarts", "1", "--points", "JSON"], "id,x,y,w\n0,0,0,1.5e308\n1,1,0,1.5e308\n", 1),
    (["solve", "--k", "2", "--restarts", "1", "--points", "JSON"],
     "id,x,y,w,gamma,a\n0,0,0,1e306,0,1e306\n1,100,0,1e306,0,1e306\n", 1),
    (["solve", "--k", "2", "--fixed", "JSON"], "site\n1\n", 1),
    (["solve", "--k", "2", "--restarts", "1", "--fixed", "JSON"], "x,y\n", 3),
    (["solve", "--k", "1", "--config", "JSON"], '{"restarts": 2.7}', 1),
    (["solve", "--k", "1", "--config", "JSON"], '{"seed": true}', 1),
    (["solve", "--k", "1", "--restarts", "1", "--points", "JSON"], "id,x,y,w\n", 3),
    (["sweep", "--k-range", "1..2", "--lambda-grid", "0", "--restarts", "1", "--points", "JSON"],
     "id,x,y,w\n\n  \n", 3),
    (["solve", "--k", "3", "--restarts", "1"], None, 1),
    (["sweep", "--k-range", "1..3", "--lambda-grid", "0", "--restarts", "1"], None, 1),
    (["solve", "--k", "1", "--config", "JSON"], '{"restart": 3, "metricc": "euclidean"}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "n_outliers": -3}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "edge_weighted": [7]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "edge_weighted": [true]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "edge_weighted": [1.5]}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "rng_seed": true}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "shrink": true}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "grid_side": true}', 1),
    (["generate", "--spec", "JSON"], '{"cluster_sizes": [5, 5], "weight_range": [true, 5]}', 1),
], ids=["threshold-radius", "lambda-grid", "restarts-zero", "restarts-too-many", "negative-seed", "config-restarts",
        "config-capacity", "spec-unknown-key", "missing-input", "config-array", "config-syntax",
        "spec-nan-weight", "spec-infinite-weight", "spec-infinite-scale", "spec-nan-grid",
        "spec-negative-weight", "spec-negative-grid", "negative-time-budget", "nan-time-budget",
        "lambda-grid-nan", "lambda-grid-inf", "lambda-grid-negative", "spec-huge-scale",
        "huge-weight-sum", "huge-weight-times-distance", "fixed-site-without-sites", "fixed-header-only",
        "config-fractional-restarts", "config-boolean-seed", "points-header-only", "points-blank-rows",
        "k-above-points",
        "k-range-above-points", "config-unknown-key", "spec-negative-outliers", "spec-edge-weighted-outside",
        "spec-boolean-edge-weighted", "spec-fractional-edge-weighted", "spec-boolean-seed", "spec-boolean-shrink",
        "spec-boolean-grid", "spec-boolean-weight"])
def test_bad_outside_value_fails_cleanly(tmp_path, capsys, argv, text, code):
    (tmp_path / "in.json").write_text(text or "")
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,1\n1,1,0,1\n")
    argv = [str(tmp_path / "in.json") if a == "JSON" else str(tmp_path / a) if a == "missing.csv" else a
            for a in argv]
    if argv[0] != "generate" and "--points" not in argv:
        argv += ["--points", str(points)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("parse error: line " if code == 3 else "error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--k", "abc", "--points", "pts.csv", "--out", "out"],
    ["solve", "--k", "2", "--out", "out"],
    ["frobnicate"],
], ids=["bad-int", "missing-points", "unknown-command"])
def test_usage_error_exits_1(capsys, argv):
    # Not argparse's exit 2, which means infeasible; the usage line stays on stderr.
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: capclust") and "\nerror: capclust" in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["solve", "--help"])
    assert done.value.code == 0
    assert "usage: capclust solve" in capsys.readouterr().out


def test_generated_huge_weights_fail_cleanly(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"weight_range": [0, 1e308]}')
    points = tmp_path / "pts.csv"
    assert main(["generate", "--spec", str(spec), "--out", str(points)]) == 0
    code = main(["solve", "--points", str(points), "--k", "2", "--restarts", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err


def test_running_out_of_memory_fails_cleanly(tmp_path, monkeypatch, capsys):
    # A distance array too large for memory raises MemoryError inside the solve.
    from capclust import metrics

    message = "Unable to allocate 2.24 GiB for an array with shape (15000, 20000) and data type float64"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n" + "".join(f"{i},{i},0,1\n" for i in range(5)))
    monkeypatch.setattr(metrics, "geometric_distances", no_memory)
    code = main(["solve", "--points", str(points), "--k", "2", "--restarts", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: not enough memory: {message}\n"
    assert not (tmp_path / "out" / "solution.txt").exists()


def test_sweep_writes_report(dataset, tmp_path, capsys):
    points, _ = dataset
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--points", str(points), "--k-range", "2..4", "--lambda-grid", "0,0.5,2",
        "--metric", "sqeuclidean", "--restarts", "3", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    report = (out / "sweep.txt").read_text()
    assert "consensus" in report
    assert (out / "sweep.txt").exists()
    printed = capsys.readouterr().out
    assert "argmin" in printed


def test_sweep_with_no_solved_k_exits_infeasible(tmp_path, capsys):
    # Every k fails its lower capacity limit; the report is still written.
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n" + "".join(f"{i},{i},0,1\n" for i in range(5)))
    out = tmp_path / "sweep"
    argv = ["sweep", "--points", str(points), "--k-range", "1..3", "--lambda-grid", "1,2", "--out", str(out)]
    assert main(argv + ["--capacity", "10,20"]) == 2
    assert capsys.readouterr().err == "infeasible: no k in 1..3 solved\n"
    report = (out / "sweep.txt").read_text().splitlines()
    assert [row.split()[1] for row in report[1:4]] == ["failed"] * 3 and report[-1] == "consensus None"
    assert sorted(p.name for p in out.iterdir()) == ["sweep.txt"]
    # A sweep in which some k solves still succeeds.
    assert main(argv + ["--capacity", "1,5", "--restarts", "2"]) == 0


def test_threshold_metric_and_candidates(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,1\n1,0.2,0,1\n2,5,5,1\n")
    cands = tmp_path / "cands.csv"
    cands.write_text("x,y\n0,0\n5,5\n")
    out = tmp_path / "out"
    code = main([
        "solve", "--points", str(points), "--candidates", str(cands), "--k", "2",
        "--metric", "threshold:1.0", "--restarts", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    text = (out / "solution.txt").read_text()
    assert "site" in text


def test_matrix_metric_cli(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,1\n1,1,0,1\n2,2,0,1\n")
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,5\n1,4\n5,0\n")
    out = tmp_path / "out"
    code = main([
        "solve", "--points", str(points), "--matrix", str(matrix), "--k", "2",
        "--metric", "matrix", "--restarts", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    assert "site" in (out / "solution.txt").read_text()


def test_matrix_metric_rejects_candidates_of_another_site_count(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,1\n1,1,0,1\n")
    matrix = tmp_path / "m.csv"
    matrix.write_text("5,5,0\n5,5,0\n")
    cands = tmp_path / "cands.csv"
    cands.write_text("x,y\n0,0\n1,0\n")
    out = tmp_path / "out"
    code = main(["solve", "--points", str(points), "--matrix", str(matrix), "--candidates", str(cands),
                 "--k", "2", "--metric", "matrix", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    assert not (out / "solution.txt").exists()


@pytest.mark.parametrize("inputs, placement", [
    ("candidates", "discrete"),
    ("matrix", "discrete"),
    ("points", "continuous"),
])
def test_solve_writes_the_placement_its_inputs_imply(tmp_path, inputs, placement):
    points, matrix = _small_instance(tmp_path)
    cands = tmp_path / "cands.csv"
    cands.write_text("x,y\n0,0\n5,5\n9,0\n")
    extra = {"candidates": ["--candidates", str(cands)],
             "matrix": ["--matrix", str(matrix), "--metric", "matrix"], "points": []}[inputs]
    out = tmp_path / "out"
    assert main(["solve", "--points", str(points), "--k", "3", "--restarts", "2", *extra, "--out", str(out)]) == 0
    header = next(line for line in (out / "solution.txt").read_text().splitlines() if line.startswith("problem "))
    assert header.endswith(f"placement {placement}")


def _solve_summary(tmp_path, capsys, name, *flags) -> tuple[int, str, str]:
    """Exit code, stdout's first line and stderr of ``solve`` on the small instance with ``flags``."""
    points, _ = _small_instance(tmp_path)
    code = main(["solve", "--points", str(points), "--restarts", "3", *flags, "--out", str(tmp_path / name)])
    out, err = capsys.readouterr()
    return code, (out.splitlines() or [""])[0], err


def test_capacity_limit_near_the_float_range_solves_as_an_infinite_one(tmp_path, capsys):
    # The integral window [ceil(L), floor(U)] once became Python ints, and k * U overflowed converting to float.
    huge = _solve_summary(tmp_path, capsys, "huge", "--k", "2", "--capacity", "0,1e308")
    assert huge[0] == 0 and "Traceback" not in huge[2]
    assert huge == _solve_summary(tmp_path, capsys, "inf", "--k", "2", "--capacity", "0,inf")


def test_opening_penalty_whose_total_overflows_exits_1(tmp_path, capsys):
    code, _, err = _solve_summary(tmp_path, capsys, "out", "--k", "2", "--opening-lambda", "1e308")
    assert code == 1 and err.startswith("error: opening penalty times k=2") and "overflows" in err
    assert not (tmp_path / "out" / "solution.txt").exists()


@pytest.mark.parametrize("outlier_lambda", ["1e15", "1e17"])
def test_warm_lp_that_ends_unsolved_is_solved_cold(tmp_path, outlier_lambda):
    # At these penalties some restarts' first warm HiGHS run ends in status Unknown;
    # milp solves the same costs to optimality.
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,1\n1,1,0,1\n2,0,1,1\n3,5,5,1\n4,6,5,0\n")
    out = tmp_path / "out"
    assert main(["solve", "--points", str(points), "--k", "2", "--capacity", "0,1.5", "--membership", "fractional",
                 "--outlier-lambda", outlier_lambda, "--out", str(out)]) == 0
    assert "placement continuous" in (out / "solution.txt").read_text()


def test_coordinates_whose_distance_overflows_are_refused_without_a_warning(tmp_path, capfd):
    points = tmp_path / "pts.csv"
    points.write_text("id,x,y,w\n0,0,0,0\n1,1e200,0,0\n2,0,1e200,0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(capclust.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "capclust.cli", "solve", "--points", str(points), "--k", "1",
                           "--out", str(tmp_path / "out")], env=env)
    err = capfd.readouterr().err
    assert done.returncode == 1 and "Warning" not in err
    assert err.startswith("error: distances too large across coordinates spanning [0.0, 0.0] to [1e+200, 1e+200]")


def test_config_file_defaults_with_flag_override(dataset, tmp_path, capsys):
    points, _ = dataset
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": "euclidean", "restarts": 2, "seed": 3}))
    out1 = tmp_path / "c1"
    code = main(["solve", "--points", str(points), "--k", "2", "--config", str(config),
                 "--out", str(out1)])
    assert code == 0
    text = (out1 / "solution.txt").read_text()
    assert "metric euclidean" in text
    out2 = tmp_path / "c2"
    code = main(["solve", "--points", str(points), "--k", "2", "--config", str(config),
                 "--metric", "manhattan", "--out", str(out2)])
    assert code == 0
    assert "metric manhattan" in (out2 / "solution.txt").read_text()
    # A key that names no flag is an error that names it, not a silent default.
    config.write_text(json.dumps({"restart": 3, "metricc": "euclidean", "seed": 3}))
    assert main(["solve", "--points", str(points), "--k", "2", "--config", str(config), "--out", str(out2)]) == 1
    assert capsys.readouterr().err == "error: config: unknown key 'metricc', 'restart'\n"


def test_fixed_centers_flag(dataset, tmp_path):
    points, _ = dataset
    fixed = tmp_path / "fixed.csv"
    pts = np.loadtxt(str(points), delimiter=",", skiprows=1, usecols=(1, 2))
    fixed.write_text(f"x,y\n{pts[0, 0]},{pts[0, 1]}\n")
    out = tmp_path / "out"
    code = main([
        "solve", "--points", str(points), "--k", "3", "--fixed", str(fixed),
        "--release-lambda", "inf", "--restarts", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    assert "fixed" in (out / "solution.txt").read_text()


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs most of a second to import, and no command needs it.
    code = "import sys, capclust.cli; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(capclust.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "importing capclust.cli loaded scipy.stats"


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter; return the JSON value of its last printed line."""
    env = {**os.environ, "PYTHONPATH": str(Path(capclust.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = "[m for m in sorted(sys.modules) if m.split('.')[0] == 'scipy' or m == 'capclust.datagen']"


def test_package_and_cli_imports_load_no_scipy():
    code = f"import json, sys, capclust; first = {_LOADED}; import capclust.cli; print(json.dumps([first, {_LOADED}]))"
    assert _fresh_interpreter(code) == [[], []]


def _small_instance(tmp_path):
    points = tmp_path / "pts.csv"
    rows = [f"{i},{x},{y},1" for i, (x, y) in enumerate([(0, 0), (0.3, 0.1), (0.1, 0.4), (5, 5), (5.2, 4.9),
                                                          (4.8, 5.3), (9, 0), (9.1, 0.2), (8.8, 0.1)])]
    points.write_text("id,x,y,w\n" + "\n".join(rows) + "\n")
    matrix = tmp_path / "m.csv"
    matrix.write_text("0,7,9\n0.3,7,8.7\n0.4,6.5,9\n7,0,6\n7.1,0.2,6\n7,0.4,6.3\n9,6,0\n9,6.1,0.2\n8.8,6,0.3\n")
    return points, matrix


def test_uncapacitated_solve_and_matrix_sweep_load_no_scipy(tmp_path):
    points, matrix = _small_instance(tmp_path)
    solve_argv = ["solve", "--points", str(points), "--k", "3", "--metric", "euclidean", "--outlier-lambda", "2",
                  "--restarts", "2", "--seed", "1", "--out", str(tmp_path / "solve")]
    sweep_argv = ["sweep", "--points", str(points), "--matrix", str(matrix), "--metric", "matrix",
                  "--k-range", "1..3", "--lambda-grid", "0,1", "--restarts", "2", "--out", str(tmp_path / "sweep")]
    code = (f"import json, sys; from capclust.cli import main; "
            f"codes = [main({solve_argv!r}), main({sweep_argv!r})]; print(json.dumps([codes, {_LOADED}]))")
    assert _fresh_interpreter(code) == [[0, 0], []]


def test_solve_and_sweep_on_a_points_file_build_no_point(tmp_path, monkeypatch):
    # The loaded columns go to the problem as they are; only indexing a table builds a Point.
    from capclust import model

    points, matrix = _small_instance(tmp_path)
    fixed = tmp_path / "fixed.csv"
    fixed.write_text("x,y\n4,4\n")
    made, real = [], model.Point.__post_init__
    monkeypatch.setattr(model.Point, "__post_init__", lambda self: made.append(self.id) or real(self))
    assert main(["solve", "--points", str(points), "--k", "3", "--metric", "euclidean", "--outlier-lambda", "2",
                 "--fixed", str(fixed), "--release-lambda", "1", "--restarts", "2",
                 "--out", str(tmp_path / "solve")]) == 0
    assert main(["sweep", "--points", str(points), "--k-range", "1..3", "--lambda-grid", "0,1", "--restarts", "2",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert main(["sweep", "--points", str(points), "--matrix", str(matrix), "--metric", "matrix",
                 "--k-range", "1..3", "--lambda-grid", "0,1", "--restarts", "2", "--out", str(tmp_path / "m")]) == 0
    assert made == []
    assert Point(7) and made == [7]  # the count sees a Point that is built


def _capacitated_solve_imports(tmp_path, membership: str, window: str, a=None) -> list:
    """In a new interpreter, solve the small instance with a capacity window; report what it imported.

    The list holds: whether importing the CLI loaded ``scipy.optimize``, the
    exit code, whether ``scipy.optimize`` and ``scipy.sparse`` were loaded
    after the solve, and whether the one HiGHS extension in ``sys.modules``
    is the one ``allocation._find_binding()`` returns.
    """
    points, _matrix = _small_instance(tmp_path)
    if a is not None:
        rows = points.read_text().splitlines()
        points.write_text("\n".join([rows[0] + ",gamma,a"] + [f"{row},0,{ai}" for row, ai in zip(rows[1:], a)]) + "\n")
    argv = ["solve", "--points", str(points), "--k", "3", "--capacity", window, "--membership", membership,
            "--restarts", "2", "--seed", "1", "--out", str(tmp_path / "solve")]
    code = (f"import json, sys; from capclust import allocation; from capclust.cli import main; "
            f"before = 'scipy.optimize' in sys.modules; code = main({argv!r}); "
            f"print(json.dumps([before, code, 'scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules, "
            f"sys.modules.get('scipy.optimize._highspy._core') is allocation._find_binding()]))")
    return _fresh_interpreter(code)


def test_capacitated_solve_loads_the_highs_binding(tmp_path):
    # A fractional solve loads the extension alone: no scipy.optimize, no scipy.sparse.
    assert _capacitated_solve_imports(tmp_path, "fractional", "2,4") == [False, 0, False, False, True]


@pytest.mark.parametrize("a, window, milp_ran", [
    (None, "2,4", False),  # equal a and an integral window: the root LP is integral
    ([1, 2, 3, 1, 1, 1, 1, 2, 1], "4,5", True),  # its root LP is fractional, so milp runs
], ids=["integral-lp", "fractional-lp"])
def test_hard_solve_imports_scipy_optimize_only_for_milp(tmp_path, a, window, milp_ran):
    # After scipy.optimize is imported, the extension is still the one allocation loaded.
    assert _capacitated_solve_imports(tmp_path, "hard", window, a) == [False, 0, milp_ran, milp_ran, True]
