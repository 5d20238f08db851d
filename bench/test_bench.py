"""The benchmark's own tests: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (sets the thread variables and the source path)

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from check import check_output  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture
def no_setup_samples(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 0)


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_end_to_end(name, no_setup_samples, tmp_path):
    result, details = run.measure(name, seed=3, seconds=0.01, trace=False, small=True, work=tmp_path / "w")
    assert details["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_traced(name, no_setup_samples, tmp_path):
    result, details = run.measure(name, seed=3, seconds=0.01, trace=True, small=True, work=tmp_path / "w")
    assert details["problems"] == []
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for key in ("trace.overhead_ratio", "trace.unattributed_ratio", "cli.main.self_s", "solver.iterations"):
        assert key in metrics
    assert metrics["solver.iterations"]["value"] > 0
    assert 0 <= metrics["trace.unattributed_ratio"]["value"] < 1


def _solved(name: str, tmp_path):
    """One small instance of a workload, solved in process; returns (instance, out dir)."""
    from capclust import cli

    inst = workloads.write_inputs(workloads.WORKLOADS[name](5, small=True)[0], str(tmp_path / "in"))
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(inst.argv(out)) == 0
    assert check_output(inst, out, 0).failed == 0
    return inst, out


@pytest.mark.parametrize("edit", ["truncate", "distance", "total", "load"])
def test_corrupted_solution_counts_as_failure(edit, tmp_path):
    inst, out = _solved("cap-hard", tmp_path)
    path = os.path.join(out, "solution.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    if edit == "truncate":
        lines = lines[: len(lines) // 2]
    else:
        tag = {"distance": "m ", "total": "objective ", "load": "l "}[edit]
        i = next(i for i, ln in enumerate(lines) if ln.startswith(tag))
        parts = lines[i].split()
        parts[-1] = repr(float(parts[-1]) * 1.01 + 0.5)
        lines[i] = " ".join(parts)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    outcome = check_output(inst, out, 0)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert outcome.objective is None and outcome.problems


def test_nonzero_exit_counts_as_failure(tmp_path):
    inst, out = _solved("cap-hard", tmp_path)
    outcome = check_output(inst, out, 3)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_failed_sweep_row_counts_per_k(tmp_path):
    inst, out = _solved("matrix-sweep", tmp_path)
    path = os.path.join(out, "sweep.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[1] = f"{inst.k_values[0]} failed infeasible"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    outcome = check_output(inst, out, 0)
    assert outcome.attempted == len(inst.k_values) and outcome.failed >= 1
    assert check_output(inst, out, 1).failed == len(inst.k_values)


def test_malformed_input_fails_the_run(no_setup_samples, tmp_path, monkeypatch):
    real = workloads.write_inputs

    def corrupt(inst, directory):
        inst = real(inst, directory)
        with open(inst.files["points"], "a") as fh:
            fh.write("7,not-a-number,0.5,1.0\n")
        return inst

    monkeypatch.setattr(workloads, "write_inputs", corrupt)
    result, details = run.measure("cap-hard", seed=3, seconds=0.01, trace=False, small=True, work=tmp_path / "w")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("exit status 3" in p for p in details["problems"])


def test_tracer_rebinds_every_import_and_restores():
    import capclust
    from capclust import cli, model, selection, solver

    originals = (solver.allocate, selection.solve, cli.sweep_k, cli.validate_problem, capclust.solve)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unpatched() == []
        assert solver.allocate.__wrapped__ is originals[0]
        assert selection.solve is solver.solve is capclust.solve
        assert cli.validate_problem is model.validate_problem
        assert "mincostflow.FlowNetwork.solve" in tracer.wrapped
    finally:
        tracer.uninstall()
    assert (solver.allocate, selection.solve, cli.sweep_k, cli.validate_problem, capclust.solve) == originals
