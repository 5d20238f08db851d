"""Smoke tests: each experiment script under ``scripts/`` runs end to end with tiny flags."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


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
