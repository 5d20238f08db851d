"""Smoke tests: each script under ``scripts/`` runs end to end with tiny flags."""

import importlib.util
import os
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
RATIO_LINE = r"new/old per pair: median [0-9.]+ q1 [0-9.]+ q3 [0-9.]+ over {pairs} pairs"


def run_script(name, *flags, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *flags],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, flags", [
    ("run_opening_cost_sweep.py", ["--k-min", "2", "--k-max", "4", "--restarts", "2"]),
    ("run_synthetic_experiment.py", ["--replications", "1", "--restarts", "2"]),
    ("run_fixed_center_comparison.py", ["--restarts", "2"]),
])
def test_experiment_script_runs(tmp_path, name, flags):
    done = run_script(name, *flags, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_recycling_benchmark_names_the_files_it_needs(tmp_path):
    done = run_script("run_recycling_benchmark.py", "--data", str(tmp_path / "missing"), cwd=tmp_path)
    assert done.returncode != 0
    assert "points.csv" in done.stderr and "matrix.csv" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("workload, files", [
    ("cap-fractional", ["out0/plot.svg", "out0/solution.txt"]),
    ("matrix-sweep", ["out0/solution_k2.txt", "out0/sweep.txt"]),
])
def test_output_digest_lists_every_written_file(tmp_path, workload, files):
    runs = [run_script("output_digest.py", "--workload", workload, "--seed", "1", "--small", cwd=tmp_path)
            for _ in range(2)]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == files
    assert all(len(line.split(" ")[1]) == 64 for line in lines)
    assert runs[1].stdout == runs[0].stdout


@pytest.mark.parametrize("listing", [[], ["--values"]], ids=["digest", "values"])
def test_output_digest_takes_several_seeds(tmp_path, listing):
    # Each seed's lines in turn, as a run with that seed alone prints them, under seed<N>/.
    flags = ["--workload", "matrix-sweep", "--small", *listing]
    both = run_script("output_digest.py", *flags, "--seed", "2", "1", cwd=tmp_path)
    alone = [run_script("output_digest.py", *flags, "--seed", seed, cwd=tmp_path) for seed in ("2", "1")]
    assert all(done.returncode == 0 for done in [both, *alone]), both.stderr
    expect = [f"seed{seed}/{line}" for seed, done in zip((2, 1), alone) for line in done.stdout.splitlines()]
    assert both.stdout.splitlines() == expect
    assert alone[0].stdout != alone[1].stdout

    # Several workloads: each workload's lines in turn, under <workload>/ and then any seed<N>/.
    other = [run_script("output_digest.py", "--workload", "cap-fractional", "--small", *listing, "--seed", seed,
                        cwd=tmp_path) for seed in ("2", "1")]
    workloads = ["--workload", "matrix-sweep", "cap-fractional", "--small", *listing]
    every = run_script("output_digest.py", *workloads, "--seed", "2", "1", cwd=tmp_path)
    one_seed = run_script("output_digest.py", *workloads, "--seed", "1", cwd=tmp_path)
    assert all(done.returncode == 0 for done in [*other, every, one_seed]), every.stderr
    runs = {"matrix-sweep": alone, "cap-fractional": other}
    assert every.stdout.splitlines() == [f"{name}/seed{seed}/{line}" for name, done in runs.items()
                                         for seed, run in zip((2, 1), done) for line in run.stdout.splitlines()]
    assert one_seed.stdout.splitlines() == [f"{name}/{line}" for name, done in runs.items()
                                            for line in done[1].stdout.splitlines()]

def test_output_digest_runs_without_pythonpath(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "output_digest.py"),
                           "--workload", "cap-fractional", "--seed", "1", "--small"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert [line.split(" ")[0] for line in done.stdout.splitlines()] == ["out0/plot.svg", "out0/solution.txt"]


@pytest.mark.parametrize("workload, document, k", [("cap-fractional", "out0/solution.txt", 4),
                                                   ("matrix-sweep", "out0/solution_k2.txt", 2)])
def test_output_values_list_each_objective_and_center(tmp_path, workload, document, k):
    runs = [run_script("output_digest.py", "--workload", workload, "--seed", "1", "--small", "--values", cwd=tmp_path)
            for _ in range(2)]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    lines = [line.split(" ") for line in runs[0].stdout.splitlines()]
    assert [line[:2] for line in lines] == [[document, "total"]] + [[document, "c"]] * k
    assert float(lines[0][2]) > 0
    assert [int(line[2]) for line in lines[1:]] == list(range(k))
    # a center is a pair of floats under continuous placement and a site index under discrete placement
    width, parse = (2, float) if workload == "cap-fractional" else (1, int)
    assert all(len(line) == 3 + width for line in lines[1:])
    [parse(v) for line in lines[1:] for v in line[3:]]  # raises on a malformed value
    assert runs[1].stdout == runs[0].stdout


def test_output_compare_reports_total_and_center_differences(tmp_path):
    old = ["a/solution.txt total 10.0", "a/solution.txt c 0 0.0 0.0", "a/solution.txt c 1 5.0 5.0",
           "b/solution.txt total 4.0", "b/solution.txt c 0 1.0 2.0", "b/solution.txt c 1 3.0 4.0",
           "c/solution_k2.txt total 7.0", "c/solution_k2.txt c 0 3", "c/solution_k2.txt c 1 8",
           "gone/solution.txt total 1.0", "gone/solution.txt c 0 0.0 0.0"]
    new = ["a/solution.txt total 10.000000000000002", "a/solution.txt c 0 1e-12 0.0", "a/solution.txt c 1 5.0 5.0",
           "b/solution.txt total 4.0", "b/solution.txt c 1 1.0 2.0", "b/solution.txt c 0 3.0 4.0",
           "c/solution_k2.txt total 7.0", "c/solution_k2.txt c 0 3", "c/solution_k2.txt c 1 9"]
    (tmp_path / "old.txt").write_text("\n".join(old) + "\n")
    (tmp_path / "new.txt").write_text("\n".join(new) + "\n")
    done = run_script("output_digest.py", "--compare", "old.txt", "new.txt", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "only in OLD gone/solution.txt",
        "documents 3",
        f"total max_rel_diff {abs(10.0 - 10.000000000000002) / 10.000000000000002!r} a/solution.txt",
        "center max_abs_diff 1.0 c/solution_k2.txt",  # site 8 became site 9
        "permuted_documents 1",
        "permuted b/solution.txt",
    ]


@pytest.mark.parametrize("workload", ["euclid-outlier", "matrix-sweep"])
def test_ab_time_alternates_passes_of_two_checkouts(tmp_path, workload):
    done = run_script("ab_time.py", ROOT, ROOT, "--workload", workload, "--seed", "1", "--passes", "3", "--small",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"workload {workload} seed 1: 1 commands, 3 passes"
    for side, line in zip(("old", "new"), lines[1:3]):
        assert re.fullmatch(side + r" seconds per command: median [0-9.]+ q1 [0-9.]+ q3 [0-9.]+", line)
    assert re.fullmatch(r"new faster in [0-3] of 3 passes", lines[3])
    assert re.fullmatch(RATIO_LINE.format(pairs=3), lines[4])
    assert re.fullmatch(r"new faster in [0-3] of 3 pairs \([0-3] ties\)", lines[5])
    assert len(lines) == 6


def test_ab_time_pairs_each_command_and_alternates_the_side_that_goes_first(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "environ", os.environ.copy())  # loading the script sets its BLAS thread variables
    spec = importlib.util.spec_from_file_location("ab_time", os.path.join(ROOT, "scripts", "ab_time.py"))
    ab_time = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_time)
    calls = []
    speeds = {"old": 2.0, "new": 1.5}

    def run(side, inst, out):
        calls.append((side, inst))
        # The machine slows down from pair to pair; each pair still sees the ratio 0.75.
        slowdown = 2.0 ** ((len(calls) - 1) // 2 - 3)
        return speeds[side] * inst * slowdown, 10.0 if side == "new" else None

    results, ratios = ab_time.compare({"old": "old", "new": "new"}, [1.0, 3.0, 2.0], 2, str(tmp_path), run)
    untimed, timed = calls[:6], calls[6:]
    assert untimed == [(side, inst) for side in ("old", "new") for inst in (1.0, 3.0, 2.0)]
    firsts = [timed[i][0] for i in range(0, len(timed), 2)]
    assert firsts == ["old", "new"] * 3
    assert [inst for _, inst in timed] == [inst for inst in (1.0, 3.0, 2.0) * 2 for _ in range(2)]
    assert ratios == [0.75] * 6
    # Per pass: seconds per command, and the peaks; the timed pairs ran at slowdowns 1, 2, 4, then 8, 16, 32.
    assert results["old"] == [(2.0 * 15 / 3, []), (2.0 * 120 / 3, [])]
    assert results["new"] == [(1.5 * 15 / 3, [10.0] * 3), (1.5 * 120 / 3, [10.0] * 3)]
    lines = ab_time.report(results, ratios)
    assert lines[2:] == ["new faster in 2 of 2 passes",
                         "new/old per pair: median 0.7500 q1 0.7500 q3 0.7500 over 6 pairs",
                         "new faster in 6 of 6 pairs (0 ties)",
                         "new VmHWM MB per command: median 10.0 max 10.0"]
    # Pairs won count each pair once, and a tie for neither side.
    assert ab_time.report(results, [0.9, 1.0, 1.2, 0.8, 1.0])[4] == "new faster in 2 of 5 pairs (2 ties)"


# Loads ab_time.py and prints each BLAS thread variable as it stood when numpy was first imported.
NUMPY_SEES = """
import importlib.util, os, sys
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.extend(os.environ.get(var) for var in VARS)
sys.meta_path.insert(0, Watch())
spec = importlib.util.spec_from_file_location("ab_time", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(*seen)
"""


def test_ab_time_runs_one_blas_thread_as_the_benchmark_does(tmp_path):
    # bench/run.py sets the three variables to 1 before numpy loads; so must
    # the timing script, whose fresh commands inherit its environment.
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", NUMPY_SEES, os.path.join(ROOT, "scripts", "ab_time.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 1 1\n"


def test_ab_time_fresh_runs_each_command_as_a_process(tmp_path):
    done = run_script("ab_time.py", ROOT, ROOT, "--workload", "cap-fractional", "--seed", "1", "--passes", "2",
                      "--small", "--fresh", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload cap-fractional seed 1: 1 commands, 2 passes, fresh processes"
    for side, line in zip(("old", "new"), lines[1:3]):
        assert re.fullmatch(side + r" seconds per command: median [0-9.]+ q1 [0-9.]+ q3 [0-9.]+", line)
    assert re.fullmatch(r"new faster in [0-2] of 2 passes", lines[3])
    assert re.fullmatch(RATIO_LINE.format(pairs=2), lines[4])
    assert re.fullmatch(r"new faster in [0-2] of 2 pairs \([0-2] ties\)", lines[5])
    for side, line in zip(("old", "new"), lines[6:8]):
        median, peak = map(float, re.fullmatch(side + r" VmHWM MB per command: median ([0-9.]+) max ([0-9.]+)",
                                               line).groups())
        assert 20.0 < median <= peak  # above the launcher's own peak: an interpreter with numpy loaded
    assert len(lines) == 8


def test_location_replay_checks_and_times_two_checkouts(tmp_path):
    done = run_script("location_replay.py", ROOT, ROOT, "--workload", "euclid-outlier", "--seed", "1", "--passes", "2",
                      "--small", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload euclid-outlier seed 1: 1 commands, 2 pairs"
    counts = [re.fullmatch(side + r": ([0-9]+) calls, ([0-9]+) clusters, ([0-9]+) iterations", line).groups()
              for side, line in zip(("old", "new"), lines[1:3])]
    assert counts[0] == counts[1] and int(counts[0][0]) > 0
    assert lines[3] == "every cluster of new matches old"
    for side, line in zip(("old", "new"), lines[4:6]):
        assert re.fullmatch(side + r" seconds per replay: median [0-9.]+ q1 [0-9.]+ q3 [0-9.]+", line)
    assert re.fullmatch(RATIO_LINE.format(pairs=2), lines[6])
    assert len(lines) == 7


def test_location_replay_names_a_cluster_that_new_relocates_otherwise(monkeypatch):
    monkeypatch.setattr(os, "environ", os.environ.copy())  # loading the script sets its BLAS thread variables
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))  # and restores the path the script extends
    path = os.path.join(ROOT, "scripts", "location_replay.py")
    spec = importlib.util.spec_from_file_location("location_replay", path)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    from capclust.location import CenterUpdate

    def call(xy, masses, starts, coords, iterations):
        update = CenterUpdate(np.array(coords), np.array(iterations), np.ones(len(starts), dtype=bool))
        return ("euclidean", np.array(xy), np.array(masses), np.array(starts)), update

    xy, masses = [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], [1.0, 2.0, 1.0]
    old = [call(xy, masses, [0, 2], [[0.5, 0.0], [5.0, 5.0]], [3, 1])]
    # The same clusters, once each and in another order, match; so does a
    # call that repeats one.
    assert replay.mismatch(old, [call(xy[2:] + xy[:2], masses[2:] + masses[:2], [0, 1], [[5.0, 5.0], [0.5, 0.0]],
                                      [1, 3])]) is None
    assert replay.mismatch(old, [call(xy[2:] * 2, masses[2:] * 2, [0, 1], [[5.0, 5.0]] * 2, [1, 1])]) is None
    assert replay.mismatch(old, [call(xy[2:], masses[2:], [0], [[5.0, 5.0]], [2])]) == (
        "cluster 0 of NEW: [5.0, 5.0] after 2 iterations, converged True; "
        "OLD: [5.0, 5.0] after 1 iterations, converged True")
    assert replay.mismatch(old, [call(xy[:2], [1.0, 3.0], [0], [[0.5, 0.0]], [3])]) == \
        "cluster 0 of NEW was never relocated by OLD"
